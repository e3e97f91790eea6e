package core

import (
	"math/bits"

	"repro/internal/paths"
	"repro/internal/ugraph"
)

// exactMaxEdges sizes pathGraph's arrays. exactEdgeCap is the distinct-edge
// count above which pathGraph.load gives up and the objectives sample the
// induced subgraph instead; tests lower it to 0 to pin that fallback.
const exactMaxEdges = 20

var exactEdgeCap = exactMaxEdges

// exactMaxCalls bounds the recursive factoring calls of one reliability
// computation; past it pathGraph.reliability reports ok=false. Each call
// reduces series–parallel structure before it branches, so the 20-edge
// path unions BE scores on lastfm×0.08 after 300 write batches take about
// 9 calls, against about 3,800 without the reductions.
const exactMaxCalls = 1 << 16

// pathGraph is the subgraph induced by a path selection, held for exact
// s-t reliability by the factoring theorem
//
//	R(G) = p_e·R(G·e) + (1−p_e)·R(G−e)
//
// (Satyanarayana & Chang, Networks 1983). Before each branch it applies
// the reliability-preserving reductions of Satyanarayana & Wood (SIAM J.
// Comput. 1985) and Page & Perry ("A practical implementation of the
// factoring theorem for network reliability", IEEE Trans. Reliability
// 1988): it drops edges no s-t path uses, merges parallel edges into
// 1 − (1−p₁)(1−p₂) and series edges through a non-terminal node into p₁·p₂.
// A union of s-t paths is mostly series–parallel, so little is left to
// branch on. The selections Problems 3 and 4 score are tiny, at most
// exactMaxEdges edges, so an exact answer costs less than one sampled
// estimate and has no variance. Nodes and edges are remapped to small
// local indices; a pathGraph reused across calls never allocates.
type pathGraph struct {
	directed bool
	m, n     int
	nodes    [2 * exactMaxEdges]ugraph.NodeID // local node → node of G+
	eids     [exactMaxEdges]int32             // local edge → edge ID in G+
	from, to [exactMaxEdges]uint8             // local endpoints, in path direction
	p        [exactMaxEdges]float64
	s, t     uint8 // local query endpoints during reliability
	calls    int
}

// load collects the distinct edges of selected, with their probabilities
// in gPlus. It reports false when they number more than exactEdgeCap.
func (pg *pathGraph) load(gPlus augmented, selected []paths.Path) bool {
	pg.directed = gPlus.Directed()
	pg.m, pg.n = 0, 0
	for _, p := range selected {
		for i, eid := range p.Edges {
			if pg.local(eid) >= 0 {
				continue
			}
			if pg.m >= exactEdgeCap {
				return false
			}
			pg.eids[pg.m] = eid
			pg.from[pg.m] = pg.addNode(p.Nodes[i])
			pg.to[pg.m] = pg.addNode(p.Nodes[i+1])
			pg.p[pg.m] = gPlus.Prob(eid)
			pg.m++
		}
	}
	return true
}

// local returns the local index of G+ edge eid, or -1.
func (pg *pathGraph) local(eid int32) int {
	for i, id := range pg.eids[:pg.m] {
		if id == eid {
			return i
		}
	}
	return -1
}

// addNode returns v's local index, assigning the next one on first sight.
func (pg *pathGraph) addNode(v ugraph.NodeID) uint8 {
	if i := pg.node(v); i >= 0 {
		return uint8(i)
	}
	pg.nodes[pg.n] = v
	pg.n++
	return uint8(pg.n - 1)
}

// node returns v's local index, or -1 when v is not on the selection.
func (pg *pathGraph) node(v ugraph.NodeID) int {
	for i, u := range pg.nodes[:pg.n] {
		if u == v {
			return i
		}
	}
	return -1
}

// reliability returns the exact s-t reliability of the loaded subgraph:
// 0 when s or t is not on it, 1 when s == t is. ok is false when the
// factoring needed more than exactMaxCalls calls.
func (pg *pathGraph) reliability(s, t ugraph.NodeID) (r float64, ok bool) {
	src, dst := pg.node(s), pg.node(t)
	switch {
	case src < 0 || dst < 0:
		return 0, true
	case src == dst:
		return 1, true
	}
	h := factorGraph{m: pg.m}
	copy(h.u[:], pg.from[:pg.m])
	copy(h.v[:], pg.to[:pg.m])
	copy(h.p[:], pg.p[:pg.m])
	pg.s, pg.t, pg.calls = uint8(src), uint8(dst), 0
	r = pg.factor(h)
	return r, pg.calls <= exactMaxCalls
}

// factorGraph is one factoring call's graph: m edges u→v (either way when
// undirected) over pathGraph's local nodes, in load order. Contracting an
// edge relabels its head as s, and an edge of probability 0 is deleted, so
// a call's graph is a value copied onto the stack.
type factorGraph struct {
	m    int
	u, v [exactMaxEdges]uint8
	p    [exactMaxEdges]float64
}

// factor returns the s-t reliability of h. It reduces h, then branches on
// an s–t edge if one is left, and otherwise on the first edge at s:
// contracted into s with weight p, deleted with weight 1−p. An edge with
// p ≥ 1 is contracted without branching.
func (pg *pathGraph) factor(h factorGraph) float64 {
	pg.calls++
	if pg.calls > exactMaxCalls {
		return 0
	}
	for {
		if !pg.reduce(&h) {
			return 0
		}
		if h.m == 1 {
			return h.p[0] // the reduced graph is a single s-t edge
		}
		e := pg.branchEdge(&h)
		p, head := h.p[e], h.u[e]
		if head == pg.s {
			head = h.v[e]
		}
		if head == pg.t {
			if p >= 1 {
				return 1
			}
			h.p[e] = 0
			return p + (1-p)*pg.factor(h)
		}
		if p >= 1 {
			h.contract(head, pg.s)
			continue
		}
		up := h
		up.contract(head, pg.s)
		h.p[e] = 0
		return p*pg.factor(up) + (1-p)*pg.factor(h)
	}
}

// branchEdge returns the s–t edge of the reduced h if it has one, and its
// first edge at s otherwise.
func (pg *pathGraph) branchEdge(h *factorGraph) int {
	first := -1
	for e := 0; e < h.m; e++ {
		u, v := h.u[e], h.v[e]
		if v == pg.s {
			u, v = v, u // an undirected edge; reduce drops directed ones into s
		}
		if u != pg.s {
			continue
		}
		if v == pg.t {
			return e
		}
		if first < 0 {
			first = e
		}
	}
	return first
}

// contract merges node head into s.
func (h *factorGraph) contract(head, s uint8) {
	for e := 0; e < h.m; e++ {
		if h.u[e] == head {
			h.u[e] = s
		}
		if h.v[e] == head {
			h.v[e] = s
		}
	}
}

// reduce applies, until none applies, the reductions that keep h's s-t
// reliability. It drops self-loops (edges inside the contracted s), edges
// of probability 0 and edges off every s-t path: into s or out of t when
// directed, at a node s does not reach without passing t or that does not
// reach t without passing s (so, when directed, at a non-terminal node of
// in- or out-degree 0), and when undirected at a non-terminal node of
// degree 1. It merges parallel edges (same orientation when directed) and
// the two edges at a non-terminal node of degree 2 (in- and out-degree 1
// when directed). It reports false when t is unreachable from s.
func (pg *pathGraph) reduce(h *factorGraph) bool {
	s, t, directed := pg.s, pg.t, pg.directed
	for {
		// succ and pred hold each node's neighbours over the live edges;
		// a neighbour met twice means parallel edges.
		var succ, pred [2 * exactMaxEdges]uint64
		parallel := false
		for e := 0; e < h.m; e++ {
			if u, v := h.u[e], h.v[e]; h.p[e] > 0 {
				parallel = parallel || succ[u]>>v&1 != 0
				succ[u] |= 1 << v
				pred[v] |= 1 << u
				if !directed {
					succ[v] |= 1 << u
					pred[u] |= 1 << v
				}
			}
		}
		fwd := reach(&succ, s, t)
		if fwd>>t&1 == 0 {
			return false
		}
		bwd := reach(&pred, t, s)
		both := fwd & bwd
		var deg, in [2 * exactMaxEdges]uint8
		w, changed := 0, false
		for e := 0; e < h.m; e++ {
			u, v := h.u[e], h.v[e]
			if u == v || h.p[e] <= 0 {
				continue
			}
			if directed && (fwd>>u&1 == 0 || bwd>>v&1 == 0 || v == s || u == t) ||
				!directed && (both>>u&1 == 0 || both>>v&1 == 0) {
				changed = true
				continue
			}
			h.u[w], h.v[w], h.p[w] = u, v, h.p[e]
			deg[u]++
			deg[v]++
			in[v]++
			w++
		}
		h.m = w
		if !directed && h.stripLeaves(&deg, s, t) {
			changed = true
		}
		if parallel && h.mergeParallel(directed) {
			changed = true
			deg, in = h.degrees()
		}
		for x := uint8(0); int(x) < pg.n; x++ {
			if x != s && x != t && deg[x] == 2 && (!directed || in[x] == 1) && h.mergeSeries(x, directed) {
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// reach returns the bit set of nodes reachable from src, where next[x] is
// the set of x's successors, without leaving stop.
func reach(next *[2 * exactMaxEdges]uint64, src, stop uint8) uint64 {
	set := uint64(1) << src
	for todo := set; todo != 0; {
		x := bits.TrailingZeros64(todo)
		todo &^= 1 << x
		if x != int(stop) {
			add := next[x] &^ set
			set |= add
			todo |= add
		}
	}
	return set
}

// stripLeaves drops, until none is left, the edge at each non-terminal
// node of degree 1 by setting its probability to 0; deg counts the live
// edges at each node and is kept current. It reports whether it dropped
// any.
func (h *factorGraph) stripLeaves(deg *[2 * exactMaxEdges]uint8, s, t uint8) bool {
	stripped := false
	for again := true; again; {
		again = false
		for e := 0; e < h.m; e++ {
			u, v := h.u[e], h.v[e]
			if h.p[e] > 0 && (deg[u] == 1 && u != s && u != t || deg[v] == 1 && v != s && v != t) {
				h.p[e] = 0
				deg[u]--
				deg[v]--
				again, stripped = true, true
			}
		}
	}
	return stripped
}

// degrees counts the live edges at each node, and those into it.
func (h *factorGraph) degrees() (deg, in [2 * exactMaxEdges]uint8) {
	for e := 0; e < h.m; e++ {
		if h.p[e] > 0 {
			deg[h.u[e]]++
			deg[h.v[e]]++
			in[h.v[e]]++
		}
	}
	return deg, in
}

// mergeParallel folds every edge into the first earlier edge with the
// same endpoints (and orientation when directed), which takes probability
// 1 − (1−p₁)(1−p₂); the folded edge gets probability 0, so the next pass
// drops it. It reports whether it merged any.
func (h *factorGraph) mergeParallel(directed bool) bool {
	merged := false
	for i := 0; i < h.m; i++ {
		if h.p[i] <= 0 {
			continue
		}
		for j := i + 1; j < h.m; j++ {
			if h.p[j] <= 0 {
				continue
			}
			if h.u[i] == h.u[j] && h.v[i] == h.v[j] || !directed && h.u[i] == h.v[j] && h.v[i] == h.u[j] {
				h.p[i] = 1 - (1-h.p[i])*(1-h.p[j])
				h.p[j], merged = 0, true
			}
		}
	}
	return merged
}

// mergeSeries replaces the two live edges a–x and x–b at node x (a→x and
// x→b when directed) by one edge a–b of probability p₁·p₂ in the first
// one's slot; the second gets probability 0. It reports false, changing
// nothing, when x no longer has exactly those two edges or one is a
// self-loop.
func (h *factorGraph) mergeSeries(x uint8, directed bool) bool {
	var at [2]int
	n := 0
	for e := 0; e < h.m; e++ {
		if h.p[e] > 0 && (h.u[e] == x || h.v[e] == x) {
			if n == 2 || h.u[e] == h.v[e] {
				return false
			}
			at[n] = e
			n++
		}
	}
	e1, e2 := at[0], at[1]
	if directed && h.v[e1] != x {
		e1, e2 = e2, e1
	}
	if n != 2 || directed && (h.v[e1] != x || h.u[e2] != x) {
		return false
	}
	other := func(e int) uint8 {
		if h.u[e] == x {
			return h.v[e]
		}
		return h.u[e]
	}
	h.u[e1], h.v[e1] = other(e1), other(e2)
	h.p[e1] *= h.p[e2]
	h.p[e2] = 0
	return true
}
