// Package paths implements the path machinery of §4-5 of the paper: most
// reliable paths via Dijkstra over −log p weights, top-l most reliable
// simple path enumeration (used in place of Eppstein's algorithm; exact,
// loopless, Yen-style deviation search), and the layered-graph polynomial
// algorithm for the restricted "improve the most reliable path" problem
// (Algorithm 3, Theorem 3).
package paths

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// Path is a simple s-t path in an uncertain graph.
type Path struct {
	Nodes []ugraph.NodeID
	Edges []int32 // edge IDs; len(Edges) == len(Nodes)-1
	Prob  float64 // product of edge probabilities
}

// Weight returns the path's additive weight Σ −log p(e) = −log Prob; lower
// is more reliable.
func (p Path) Weight() float64 {
	if p.Prob <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p.Prob)
}

// MostReliable returns the most reliable path from s to t (Equation 5), or
// ok=false if t is unreachable through positive-probability edges.
func MostReliable(g *ugraph.Graph, s, t ugraph.NodeID) (Path, bool) {
	sr := newSearcher(g, nil)
	defer sr.release()
	return sr.search(s, t)
}

// arc is one entry of a packed adjacency row: the head, the edge ID, and the
// edge's additive weight w = −log p, +Inf when p = 0.
type arc struct {
	to  ugraph.NodeID
	eid int32
	w   float64
}

// rows is the packed weighted adjacency of G ∪ extra. Row u holds u's arcs
// of g in g's order, then u's arcs of extra in list order (at both ends for
// undirected graphs): the arc order of g.WithEdges(extra), so a search over
// the rows relaxes arcs in the same order as one over that graph.
type rows struct {
	off  []int32 // row u is arcs[off[u]:off[u+1]]
	arcs []arc

	// Packing scratch: the weight of each edge of g, and where each row's
	// next extra arc goes.
	w    []float64
	next []int32
}

// pack rebuilds r as the rows of G ∪ extra, where extra[i] is edge
// g.M()+i, reusing r's arrays where they are large enough.
func (r *rows) pack(g *ugraph.Graph, extra []ugraph.Edge) {
	c := g.Freeze()
	n, m := g.N(), g.M()
	r.w = resize(r.w, m)
	for eid := range r.w {
		r.w[eid] = weight(c.Prob(int32(eid)))
	}
	r.off = resize(r.off, n+1)
	r.off[0] = 0
	for u := 0; u < n; u++ {
		r.off[u+1] = int32(len(c.Out(ugraph.NodeID(u))))
	}
	for _, e := range extra {
		r.off[e.U+1]++
		if !g.Directed() {
			r.off[e.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		r.off[u+1] += r.off[u]
	}
	r.arcs = resize(r.arcs, int(r.off[n]))
	r.next = resize(r.next, n)
	for u := range r.next {
		i := r.off[u]
		for _, a := range c.Out(ugraph.NodeID(u)) {
			r.arcs[i] = arc{to: a.To, eid: a.EID, w: r.w[a.EID]}
			i++
		}
		r.next[u] = i
	}
	// Candidate edges mostly share one probability, ζ: reuse its weight.
	lastP, lastW := math.NaN(), 0.0
	for i, e := range extra {
		if e.P != lastP {
			lastP, lastW = e.P, weight(e.P)
		}
		a := arc{to: e.V, eid: int32(m + i), w: lastW}
		r.arcs[r.next[e.U]] = a
		r.next[e.U]++
		if !g.Directed() {
			a.to = e.U
			r.arcs[r.next[e.V]] = a
			r.next[e.V]++
		}
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// row returns u's packed arcs.
func (r *rows) row(u ugraph.NodeID) []arc { return r.arcs[r.off[u]:r.off[u+1]] }

// weight is the additive weight −log p of an edge, +Inf when p = 0, so a
// relaxation d + w over a p = 0 edge never improves a distance.
func weight(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p)
}

// searcher runs repeated most-reliable-path searches over the packed rows
// of G ∪ extra — the Yen-style top-l enumeration re-runs the search once
// per deviation. Everything a search needs is built once per searcher, in
// arrays that a pooled searcher keeps from its last use.
//
// A single test nd < dist[v] decides each relaxation, where nd = d + w is
// bit for bit the d − log p of a search over log-probabilities. Weights are
// non-negative, so a node settled at distance d is never offered a shorter
// one and needs no done flag; a p = 0 arc has w = +Inf and never relaxes;
// a banned node holds dist = −Inf while it is banned, so nothing relaxes
// into it. Banned edges are checked only when a relaxation would succeed.
type searcher struct {
	g     *ugraph.Graph
	extra []ugraph.Edge
	rows

	// bannedEdge excludes edges from the next search; callers set and
	// clear it, and ban nodes through dist, around each call (s itself is
	// never banned).
	bannedEdge []bool

	// dist is +Inf between searches except at banned nodes: each search
	// resets the nodes it touched when it ends, so bans set between
	// searches survive into the next. parent and parentEdge are only read
	// along the path a search reconstructs, every node of which that
	// search reached, so they are never reset.
	dist       []float64
	touched    []ugraph.NodeID
	parent     []int32 // predecessor node
	parentEdge []int32 // edge used to arrive
	h          pq.Heap[ugraph.NodeID]
}

// searchers recycles searchers, with their arrays, from one TopL or
// MostReliable call to the next.
var searchers sync.Pool

// newSearcher returns a searcher over G ∪ extra with nothing banned; hand
// it back with release.
func newSearcher(g *ugraph.Graph, extra []ugraph.Edge) *searcher {
	sr, _ := searchers.Get().(*searcher)
	if sr == nil {
		sr = new(searcher)
	}
	n := g.N()
	sr.g, sr.extra = g, extra
	sr.pack(g, extra)
	sr.bannedEdge = resize(sr.bannedEdge, g.M()+len(extra))
	clear(sr.bannedEdge)
	sr.dist = resize(sr.dist, n)
	for i := range sr.dist {
		sr.dist[i] = math.Inf(1)
	}
	sr.parent = resize(sr.parent, n)
	sr.parentEdge = resize(sr.parentEdge, n)
	return sr
}

// release returns sr to the pool. The paths it found share no memory
// with it.
func (sr *searcher) release() {
	sr.g, sr.extra = nil, nil
	searchers.Put(sr)
}

// prob returns the probability of edge eid of G ∪ extra.
func (sr *searcher) prob(eid int32) float64 {
	if m := int32(sr.g.M()); eid >= m {
		return sr.extra[eid-m].P
	}
	return sr.g.Prob(eid)
}

// search runs a most-reliable-path Dijkstra from s to t over −log p
// weights, skipping the banned edges and nodes.
func (sr *searcher) search(s, t ugraph.NodeID) (Path, bool) {
	dist := sr.dist
	dist[s] = 0
	sr.touched = append(sr.touched[:0], s)
	h := &sr.h
	h.Reset()
	h.Push(0, s)
	for h.Len() > 0 {
		d, u := h.Pop()
		if d > dist[u] {
			continue
		}
		if u == t {
			break
		}
		for _, a := range sr.row(u) {
			nd := d + a.w
			if nd < dist[a.to] {
				if sr.bannedEdge[a.eid] {
					continue
				}
				if math.IsInf(dist[a.to], 1) {
					sr.touched = append(sr.touched, a.to)
				}
				dist[a.to] = nd
				sr.parent[a.to] = int32(u)
				sr.parentEdge[a.to] = a.eid
				h.Push(nd, a.to)
			}
		}
	}
	found := !math.IsInf(dist[t], 1)
	for _, v := range sr.touched {
		dist[v] = math.Inf(1)
	}
	if !found {
		return Path{}, false
	}
	return reconstruct(sr.prob, s, t, sr.parent, sr.parentEdge), true
}

func reconstruct(prob func(int32) float64, s, t ugraph.NodeID, parent, parentEdge []int32) Path {
	var nodes []ugraph.NodeID
	var edges []int32
	for v := t; ; {
		nodes = append(nodes, v)
		if v == s {
			break
		}
		edges = append(edges, parentEdge[v])
		v = ugraph.NodeID(parent[v])
	}
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	p := 1.0
	for _, eid := range edges {
		p *= prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: p}
}

// TopL returns up to l most reliable simple paths from s to t in g, in
// decreasing probability order, the path set P of §5.1.2. It is TopLWith
// with no extra edges.
func TopL(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	return TopLWith(ctx, g, nil, s, t, l)
}

// TopLWith returns up to l most reliable simple s-t paths in G ∪ extra in
// decreasing probability order, without materialising that graph: extra[i]
// is edge g.M()+i, and the paths, edge IDs and probabilities are those TopL
// finds on g.WithEdges(extra). extra must therefore hold what WithEdges
// would add: no self-loops, no edge of g, and each pair once (in either
// orientation, for undirected graphs), with probabilities in [0, 1].
//
// It uses Yen's deviation algorithm with most-reliable-path Dijkstra as
// the subroutine; the output is exact. Paths of equal probability are not
// ordered arbitrarily: they come out in the deterministic order of the
// heaps and of the arc rows, the order the test reference pins. Extraction
// polls ctx between paths: a cancelled context stops the enumeration and
// returns the (still exact, still sorted) prefix found so far.
func TopLWith(ctx context.Context, g *ugraph.Graph, extra []ugraph.Edge, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g, extra)
	defer sr.release()
	first, ok := sr.search(s, t)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var candidates pq.Heap[Path]
	for len(result) < l {
		if ctx != nil {
			// Each deviation round is a scheduling point, like a
			// sampler's block check: requests served beside a long search
			// get the processor between rounds, not at a preemption tick.
			runtime.Gosched()
			if ctx.Err() != nil {
				break
			}
		}
		prev := result[len(result)-1]
		for i := 0; i+1 < len(prev.Nodes); i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]
			setBans(sr, result, rootNodes, true)
			spurPath, ok := sr.search(spur, t)
			setBans(sr, result, rootNodes, false)
			if !ok {
				continue
			}
			total := joinPaths(sr.prob, rootNodes, rootEdges, spurPath)
			key := pathKey(total)
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates.Push(-math.Log(maxProb(total.Prob)), total)
		}
		if candidates.Len() == 0 {
			break
		}
		_, best := candidates.Pop()
		result = append(result, best)
	}
	return result
}

// setBans bans (or, with ban false, clears) what Yen's spur search from
// rootNodes' last node must avoid: the root's other nodes, and the next
// edge of every accepted path that shares the root.
func setBans(sr *searcher, result []Path, rootNodes []ugraph.NodeID, ban bool) {
	i := len(rootNodes) - 1
	for _, p := range result {
		if pathHasPrefix(p, rootNodes) {
			sr.bannedEdge[p.Edges[i]] = ban
		}
	}
	d := math.Inf(1)
	if ban {
		d = math.Inf(-1)
	}
	for _, v := range rootNodes[:i] {
		sr.dist[v] = d
	}
}

func maxProb(p float64) float64 {
	if p <= 0 {
		return math.SmallestNonzeroFloat64
	}
	return p
}

func pathHasPrefix(p Path, prefix []ugraph.NodeID) bool {
	if len(p.Nodes) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p.Nodes[i] != v {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	buf := make([]byte, 0, len(p.Nodes)*4)
	for _, v := range p.Nodes {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

func joinPaths(prob func(int32) float64, rootNodes []ugraph.NodeID, rootEdges []int32, spur Path) Path {
	nodes := make([]ugraph.NodeID, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	edges := make([]int32, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	p := 1.0
	for _, eid := range edges {
		p *= prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: p}
}
