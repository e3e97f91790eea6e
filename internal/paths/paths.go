// Package paths implements the path machinery of §4-5 of the paper: most
// reliable paths via Dijkstra over −log p weights, top-l most reliable
// simple path enumeration (used in place of Eppstein's algorithm; exact,
// loopless, Yen-style deviation search) over a graph, or over G+ = G ∪ E+
// with elimination's E+ left implicit as its pair set (a listed E+ is
// searched on g.WithEdges(E+)), and the layered-graph polynomial
// algorithm for the restricted "improve the most reliable path" problem
// (Algorithm 3, Theorem 3).
package paths

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/candidates"
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

// rows is the packed weighted adjacency of a graph: row u holds u's arcs
// in the graph's order, so a search over the rows relaxes arcs in the same
// order as one over the graph.
type rows struct {
	off  []int32 // row u is arcs[off[u]:off[u+1]]
	arcs []arc

	// w is packing scratch: the weight of each edge of g, computed once
	// per edge rather than once per arc.
	w []float64
}

// pack rebuilds r as the rows of g, reusing r's arrays where they are
// large enough.
func (r *rows) pack(g *ugraph.Graph) {
	c := g.Freeze()
	n := g.N()
	r.w = resize(r.w, g.M())
	for eid := range r.w {
		r.w[eid] = weight(c.Prob(int32(eid)))
	}
	r.off = resize(r.off, n+1)
	r.off[0] = 0
	for u := 0; u < n; u++ {
		r.off[u+1] = r.off[u] + int32(len(c.Out(ugraph.NodeID(u))))
	}
	r.arcs = resize(r.arcs, int(r.off[n]))
	i := 0
	for u := 0; u < n; u++ {
		for _, a := range c.Out(ugraph.NodeID(u)) {
			r.arcs[i] = arc{to: a.To, eid: a.EID, w: r.w[a.EID]}
			i++
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
// of G, with or without an implicit E+ — the Yen-style top-l
// enumeration re-runs the search once per deviation. Everything a search
// needs is built once per searcher, in arrays that a pooled searcher keeps
// from its last use.
//
// A single test nd < dist[v] decides each relaxation, where nd = d + w is
// bit for bit the d − log p of a search over log-probabilities. Weights are
// non-negative, so a node settled at distance d is never offered a shorter
// one and needs no done flag; a p = 0 arc has w = +Inf and never relaxes;
// a banned node holds dist = −Inf while it is banned, so nothing relaxes
// into it. Banned edges are checked only when a relaxation would succeed.
type searcher struct {
	g *ugraph.Graph
	rows
	pairArcs

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

// newSearcher returns a searcher over G, or over G ∪ set when set is
// non-nil, with nothing banned; hand it back with release.
func newSearcher(g *ugraph.Graph, set *candidates.Pairs) *searcher {
	sr, _ := searchers.Get().(*searcher)
	if sr == nil {
		sr = new(searcher)
	}
	n := g.N()
	sr.g = g
	sr.pack(g)
	sr.pairArcs.load(g, set)
	m := g.M()
	if set != nil {
		m += set.Len()
	}
	sr.bannedEdge = resize(sr.bannedEdge, m)
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
	sr.g, sr.set = nil, nil
	searchers.Put(sr)
}

// prob returns the probability of edge eid of G (or G ∪ set).
func (sr *searcher) prob(eid int32) float64 {
	if eid >= int32(sr.g.M()) {
		return sr.set.Zeta
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
	if sr.set != nil {
		sr.pairArcs.reset()
	}
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
				sr.reach(u, a.to, a.eid, nd)
			}
		}
		if sr.set != nil {
			sr.relaxPairs(u, d)
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

// reach records that v is reached from u over edge eid at distance nd,
// and queues it.
func (sr *searcher) reach(u, v ugraph.NodeID, eid int32, nd float64) {
	if math.IsInf(sr.dist[v], 1) {
		sr.touched = append(sr.touched, v)
	}
	sr.dist[v] = nd
	sr.parent[v] = int32(u)
	sr.parentEdge[v] = eid
	sr.h.Push(nd, v)
}

// pairArcs is the arc side of an implicit E+, a candidates.Pairs: the arcs
// FromS[i] → ToT[j] of its admitted pairs, and for undirected graphs their
// reverses, all of weight w = −log ζ, with edge ID origM + Rank(i, j).
//
// A search relaxes them without trying every one. Dijkstra settles nodes
// in non-decreasing distance d and every candidate arc weighs the same w,
// so once a candidate arc into v has been tried at d, dist[v] <= d + w
// stays true, and no candidate arc from a node settled later can relax v:
// its d' + w is no smaller. The same holds once v itself has settled. So
// each search keeps, over FromS and over ToT, the heads not yet tried
// (pendFrom, pendTo), tries only pending heads of admitted pairs, and drops
// a head once tried. A head stays pending only when its arc was banned
// (the ban lasts one search; another arc into it may succeed) or not
// admitted. Every arc skipped is one whose relaxation would fail, so
// the search pushes the nodes, distances and parents a search over
// g.WithEdges(set.List()) pushes, in the same order, and ties leave the
// heap alike.
type pairArcs struct {
	set            *candidates.Pairs
	w              float64
	origM          int32
	fromIdx, toIdx []int32 // node → its index in FromS / ToT, or −1

	// cols is set's bits by column, for undirected graphs: the admitted i
	// of ToT[j] are the bits of cols[j*colStride : (j+1)*colStride].
	cols      []uint64
	colStride int

	pendFrom, pendTo []uint64
}

// load makes p the arc side of set on g; a nil set leaves p empty.
func (p *pairArcs) load(g *ugraph.Graph, set *candidates.Pairs) {
	p.set = set
	if set == nil {
		return
	}
	p.w, p.origM = weight(set.Zeta), int32(g.M())
	p.fromIdx = indexOf(p.fromIdx, g.N(), set.FromS)
	p.toIdx = indexOf(p.toIdx, g.N(), set.ToT)
	p.pendFrom = resize(p.pendFrom, (len(set.FromS)+63)/64)
	p.pendTo = resize(p.pendTo, (len(set.ToT)+63)/64)
	p.cols = p.cols[:0]
	if g.Directed() {
		return
	}
	p.colStride = len(p.pendFrom)
	p.cols = resize(p.cols, len(set.ToT)*p.colStride)
	clear(p.cols)
	for i := range set.FromS {
		for w, word := range set.Row(i) {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				p.cols[j*p.colStride+i/64] |= 1 << (i % 64)
			}
		}
	}
}

// indexOf returns idx resized to n, holding each node's index in nodes and
// −1 for nodes not in it.
func indexOf(idx []int32, n int, nodes []ugraph.NodeID) []int32 {
	idx = resize(idx, n)
	for v := range idx {
		idx[v] = -1
	}
	for i, v := range nodes {
		idx[v] = int32(i)
	}
	return idx
}

// reset makes every node pending, for a new search.
func (p *pairArcs) reset() {
	fill(p.pendFrom, len(p.set.FromS))
	fill(p.pendTo, len(p.set.ToT))
}

// fill sets bits [0, k) of words, which has (k+63)/64 of them.
func fill(words []uint64, k int) {
	for w := range words {
		words[w] = math.MaxUint64
		if rest := k - 64*w; rest < 64 {
			words[w] = 1<<rest - 1
		}
	}
}

// drop ends v's pending state: no candidate arc can relax it any more.
func (p *pairArcs) drop(v ugraph.NodeID) {
	if i := p.fromIdx[v]; i >= 0 {
		p.pendFrom[i/64] &^= 1 << (i % 64)
	}
	if j := p.toIdx[v]; j >= 0 {
		p.pendTo[j/64] &^= 1 << (j % 64)
	}
}

// relaxPairs relaxes the candidate arcs of u, just settled at d, in the
// order u's row of g.WithEdges(set.List()) holds them: reverse arcs of the pairs (i', j) with
// FromS[i'] before u, u's own pairs in ToT order, then the remaining
// reverse arcs (for u = ToT[j], u = FromS[i]; (i, j) itself is the
// self-pair, never admitted).
func (sr *searcher) relaxPairs(u ugraph.NodeID, d float64) {
	p := &sr.pairArcs
	i, j := int(p.fromIdx[u]), int(p.toIdx[u])
	if i < 0 && j < 0 {
		return
	}
	p.drop(u)
	nd := d + p.w
	undirected := j >= 0 && !sr.g.Directed()
	if i < 0 {
		if undirected {
			sr.relaxCol(u, j, 0, len(p.set.FromS), nd)
		}
		return
	}
	if undirected {
		sr.relaxCol(u, j, 0, i, nd)
	}
	sr.relaxRow(u, i, nd)
	if undirected {
		sr.relaxCol(u, j, i+1, len(p.set.FromS), nd)
	}
}

// relaxRow tries the arcs u = FromS[i] → ToT[j'] of the admitted pairs
// (i, j') whose heads are pending, in increasing j'.
func (sr *searcher) relaxRow(u ugraph.NodeID, i int, nd float64) {
	p := &sr.pairArcs
	for w, word := range p.set.Row(i) {
		// Trying a head drops only its own bits, so the word read here
		// stays current for the rest of the loop.
		for word &= p.pendTo[w]; word != 0; word &= word - 1 {
			j := w*64 + bits.TrailingZeros64(word)
			sr.tryPair(u, p.set.ToT[j], i, j, nd)
		}
	}
}

// relaxCol tries the reverse arcs u = ToT[j] → FromS[i'] of the admitted
// pairs (i', j), lo <= i' < hi, whose heads are pending, in increasing i'.
func (sr *searcher) relaxCol(u ugraph.NodeID, j, lo, hi int, nd float64) {
	p := &sr.pairArcs
	col := p.cols[j*p.colStride : (j+1)*p.colStride]
	for w := lo / 64; w*64 < hi; w++ {
		word := col[w] & p.pendFrom[w]
		if w == lo/64 {
			word &^= 1<<(lo%64) - 1
		}
		if hi < 64*(w+1) {
			word &= 1<<(hi%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			sr.tryPair(u, p.set.FromS[i], i, j, nd)
		}
	}
}

// tryPair relaxes the candidate arc u → v of pair (i, j) at distance nd,
// and drops v unless the arc is banned.
func (sr *searcher) tryPair(u, v ugraph.NodeID, i, j int, nd float64) {
	p := &sr.pairArcs
	if nd < sr.dist[v] {
		eid := p.origM + int32(p.set.Rank(i, j))
		if sr.bannedEdge[eid] {
			return
		}
		sr.reach(u, v, eid, nd)
	}
	p.drop(v)
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

// TopL returns up to l most reliable simple s-t paths in g in decreasing
// probability order, the path set P of §5.1.2. To search G+ = G ∪ E+ with
// E+ listed, pass g.WithEdges(E+).
//
// It uses Yen's deviation algorithm with most-reliable-path Dijkstra as
// the subroutine; the output is exact. Paths of equal probability are not
// ordered arbitrarily: they come out in the deterministic order of the
// heaps and of the arc rows, the order the test reference pins. Extraction
// polls ctx between paths: a cancelled context stops the enumeration and
// returns the (still exact, still sorted) prefix found so far.
func TopL(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g, nil)
	defer sr.release()
	return sr.topL(ctx, s, t, l)
}

// TopLPairs is TopL over G ∪ E+ with an elimination's candidate set left
// implicit: it returns what TopL returns on g.WithEdges(set.List()),
// candidate k being edge g.M()+k, bit for bit, without listing E+ or
// building that graph. Its searches relax candidate arcs as pairArcs
// describes, skipping those whose relaxation cannot succeed. set must have
// been built on g.
func TopLPairs(ctx context.Context, g *ugraph.Graph, set *candidates.Pairs, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g, set)
	defer sr.release()
	return sr.topL(ctx, s, t, l)
}

// topL runs Yen's deviation search on sr.
func (sr *searcher) topL(ctx context.Context, s, t ugraph.NodeID, l int) []Path {
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
