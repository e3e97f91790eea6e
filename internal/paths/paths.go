// Package paths implements the path machinery of §4-5 of the paper: most
// reliable paths via Dijkstra over −log p weights, top-l most reliable
// simple path enumeration (used in place of Eppstein's algorithm; exact and
// loopless, by sidetrack deviation from a reverse most-reliable tree to t)
// over a graph, or over G+ = G ∪ E+ with elimination's E+ left implicit as
// its pair set (a listed E+ is searched on g.WithEdges(E+)), and the
// layered-graph polynomial algorithm for the restricted "improve the most
// reliable path" problem (Algorithm 3, Theorem 3).
//
// The top-l paths come out in one order: by probability bin descending,
// then in the order the enumeration meets them. A path's probability is
// the product of its edge probabilities, taken in path order; its bin is
// that product with the significand cut to 20 bits, so paths whose
// probabilities agree that far tie. The enumeration meets paths by −log
// sum, which agrees with the product far beyond 20 bits, so within a bin
// paths still come in probability order but for last-bit differences.
// Among paths of equal weight it meets first the one that branches off a
// path already met nearest s; of those, the one branching off the path
// met first; then the one over the lower edge ID. So the order, and which
// of several equally reliable paths fill the last places, depends only on
// the graph (its edge IDs included) and the pair, never on l or on a
// heap's layout; tied paths that fill a pool spread over different first
// hops instead of sharing one, as node-sequence order would have them do;
// and the enumeration can stop after the l-th path instead of ranking
// every path tied with it.
package paths

import (
	"math"
	"math/bits"
	"slices"
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
	if _, ok := sr.search(s, t); !ok {
		return Path{}, false
	}
	return sr.path(s, t), true
}

// arc is one entry of a packed adjacency row: the head, the edge ID, and the
// edge's additive weight w = −log p, +Inf when p = 0.
type arc struct {
	to  ugraph.NodeID
	eid int32
	w   float64
}

// rows is a packed weighted adjacency of a graph: row u holds u's arcs in
// the graph's order, so a search over the rows relaxes arcs in the same
// order as one over the graph.
type rows struct {
	off  []int32 // row u is arcs[off[u]:off[u+1]]
	arcs []arc
}

// weights returns w resized to g's edges, holding each edge's weight.
func weights(w []float64, g *ugraph.Graph) []float64 {
	w = resize(w, g.M())
	for eid := range w {
		w[eid] = weight(g.Prob(int32(eid)))
	}
	return w
}

// pack rebuilds r as the rows that arcsOf gives for each node of c (its
// out-arcs, (*ugraph.CSR).Out, or its in-arcs, (*ugraph.CSR).In), arc eid
// weighing w[eid], reusing r's arrays where they are large enough.
func (r *rows) pack(c *ugraph.CSR, n int, w []float64, arcsOf func(*ugraph.CSR, ugraph.NodeID) []ugraph.Arc) {
	r.off = resize(r.off, n+1)
	r.off[0] = 0
	for u := 0; u < n; u++ {
		r.off[u+1] = r.off[u] + int32(len(arcsOf(c, ugraph.NodeID(u))))
	}
	r.arcs = resize(r.arcs, int(r.off[n]))
	i := 0
	for u := 0; u < n; u++ {
		for _, a := range arcsOf(c, ugraph.NodeID(u)) {
			r.arcs[i] = arc{to: a.To, eid: a.EID, w: w[a.EID]}
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

// fillInf sets every element of s to +Inf and returns it.
func fillInf(s []float64) []float64 {
	for i := range s {
		s[i] = math.Inf(1)
	}
	return s
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

// searcher runs most-reliable-path searches over the packed rows of G,
// with or without an implicit E+: MostReliable runs one, and the top-l
// enumeration (topl.go) grows one reverse tree and runs a forward search
// for each deviation the tree cannot complete. Everything a search needs
// is built once per searcher, in arrays that a pooled searcher keeps from
// its last use.
//
// A single test nd < dist[v] decides each relaxation, where nd = d + w is
// bit for bit the d − log p of a search over log-probabilities. Weights are
// non-negative, so a node settled at distance d is never offered a shorter
// one and needs no done flag; a p = 0 arc has w = +Inf and never relaxes;
// a banned node holds dist = −Inf while it is banned, so nothing relaxes
// into it.
type searcher struct {
	g   *ugraph.Graph
	w   []float64 // w[eid] is edge eid's weight, for the edges of G
	out rows
	pairArcs

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

	enumeration
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
	sr.w = weights(sr.w, g)
	sr.out.pack(g.Freeze(), n, sr.w, (*ugraph.CSR).Out)
	sr.pairArcs.load(g, set)
	sr.dist = fillInf(resize(sr.dist, n))
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
	if eid >= sr.origM {
		return sr.set.Zeta
	}
	return sr.g.Prob(eid)
}

// weightOf returns the weight of edge eid of G (or G ∪ set).
func (sr *searcher) weightOf(eid int32) float64 {
	if eid >= sr.origM {
		return sr.pairArcs.w
	}
	return sr.w[eid]
}

// search runs a most-reliable-path Dijkstra from s to t over −log p
// weights, never entering a banned node, and returns t's distance; the
// path reads back from t through parent and parentEdge.
func (sr *searcher) search(s, t ugraph.NodeID) (float64, bool) {
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
		for _, a := range sr.out.row(u) {
			if nd := d + a.w; nd < dist[a.to] {
				sr.reach(u, a.to, a.eid, nd)
			}
		}
		if sr.set != nil {
			sr.relaxPairs(u, d)
		}
	}
	d := dist[t]
	for _, v := range sr.touched {
		dist[v] = math.Inf(1)
	}
	return d, !math.IsInf(d, 1)
}

// path returns the s-t path the last search found.
func (sr *searcher) path(s, t ugraph.NodeID) Path {
	var nodes []ugraph.NodeID
	var edges []int32
	p := 1.0
	for v := t; v != s; v = ugraph.NodeID(sr.parent[v]) {
		nodes = append(nodes, v)
		edges = append(edges, sr.parentEdge[v])
	}
	nodes = append(nodes, s)
	slices.Reverse(nodes)
	slices.Reverse(edges)
	for _, eid := range edges {
		p *= sr.prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: p}
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
// origM is G's edge count, set with or without a set.
//
// A search relaxes them without trying every one. Dijkstra settles nodes
// in non-decreasing distance d and every candidate arc weighs the same w,
// so once a candidate arc into v has been tried at d, dist[v] <= d + w
// stays true, and no candidate arc from a node settled later can relax v:
// its d' + w is no smaller. The same holds once v itself has settled. So
// each search keeps, over FromS and over ToT, the heads not yet tried
// (pendFrom, pendTo), tries only pending heads of admitted pairs, and drops
// a head once tried. Every arc skipped is one whose relaxation would fail,
// so the search pushes the nodes, distances and parents a search over
// g.WithEdges(set.List()) pushes, in the same order. The reverse tree
// (topl.go) prunes the same way over the arcs it walks backwards.
type pairArcs struct {
	set            *candidates.Pairs
	w              float64
	origM          int32
	fromIdx, toIdx []int32 // node → its index in FromS / ToT, or −1

	pendFrom, pendTo []uint64
}

// load makes p the arc side of set on g; a nil set leaves p empty.
func (p *pairArcs) load(g *ugraph.Graph, set *candidates.Pairs) {
	p.set, p.origM = set, int32(g.M())
	if set == nil {
		return
	}
	p.w = weight(set.Zeta)
	p.fromIdx = indexOf(p.fromIdx, g.N(), set.FromS)
	p.toIdx = indexOf(p.toIdx, g.N(), set.ToT)
	p.pendFrom = resize(p.pendFrom, (len(set.FromS)+63)/64)
	p.pendTo = resize(p.pendTo, (len(set.ToT)+63)/64)
}

// admitted reports whether the pair (i, j) is admitted.
func (p *pairArcs) admitted(i, j int) bool {
	return p.set.Row(i)[j/64]&(1<<(j%64)) != 0
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

// relaxPairsIn relaxes the candidate arcs into v, just settled at d by the
// reverse tree, from their tails: on an undirected graph the arcs out of
// v, on a directed one the arcs FromS[i] → v = ToT[j] of the pairs (i, j).
func (sr *searcher) relaxPairsIn(v ugraph.NodeID, d float64) {
	if !sr.g.Directed() {
		sr.relaxPairs(v, d)
		return
	}
	p := &sr.pairArcs
	j := int(p.toIdx[v])
	if j < 0 && p.fromIdx[v] < 0 {
		return
	}
	p.drop(v)
	if j >= 0 {
		sr.relaxCol(v, j, 0, len(p.set.FromS), d+p.w)
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
// It tests pair bits only for pending heads, which a search drops fast.
func (sr *searcher) relaxCol(u ugraph.NodeID, j, lo, hi int, nd float64) {
	p := &sr.pairArcs
	for w := lo / 64; w*64 < hi; w++ {
		word := p.pendFrom[w]
		if w == lo/64 {
			word &^= 1<<(lo%64) - 1
		}
		if hi < 64*(w+1) {
			word &= 1<<(hi%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			if i := w*64 + bits.TrailingZeros64(word); p.admitted(i, j) {
				sr.tryPair(u, p.set.FromS[i], i, j, nd)
			}
		}
	}
}

// tryPair relaxes the candidate arc u → v of pair (i, j) at distance nd,
// and drops v.
func (sr *searcher) tryPair(u, v ugraph.NodeID, i, j int, nd float64) {
	p := &sr.pairArcs
	if nd < sr.dist[v] {
		sr.reach(u, v, p.origM+int32(p.set.Rank(i, j)), nd)
	}
	p.drop(v)
}
