package core

import (
	"repro/internal/paths"
	"repro/internal/ugraph"
)

// exactMaxEdges sizes pathGraph's arrays. exactEdgeCap is the distinct-edge
// count above which pathGraph.load gives up and the objectives sample the
// induced subgraph instead; tests lower it to 0 to pin that fallback.
const exactMaxEdges = 20

var exactEdgeCap = exactMaxEdges

// exactMaxCalls bounds the factoring calls of one reliability computation;
// past it pathGraph.reliability reports ok=false.
const exactMaxCalls = 1 << 16

// pathGraph is the subgraph induced by a path selection, held for exact
// s-t reliability by the factoring theorem
//
//	R(G) = p_e·R(G·e) + (1−p_e)·R(G−e)
//
// (Satyanarayana & Chang, Networks 1983). The selections Problems 3 and 4
// score are tiny, a handful of edges, so an exact answer costs less than
// one sampled estimate and has no variance. Nodes are remapped to bits of
// a uint64 mask and edges to bits of a second one; a pathGraph reused
// across calls never allocates.
type pathGraph struct {
	directed bool
	m, n     int
	nodes    [2 * exactMaxEdges]ugraph.NodeID // local bit index → node of G+
	eids     [exactMaxEdges]int32             // local edge → edge ID in G+
	from, to [exactMaxEdges]uint64            // endpoint bits, in path direction
	p        [exactMaxEdges]float64
	target   uint64
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

// addNode returns v's mask bit, assigning the next one on first sight.
func (pg *pathGraph) addNode(v ugraph.NodeID) uint64 {
	if b := pg.bit(v); b != 0 {
		return b
	}
	pg.nodes[pg.n] = v
	pg.n++
	return 1 << (pg.n - 1)
}

// bit returns v's mask bit, or 0 when v is not on the selection.
func (pg *pathGraph) bit(v ugraph.NodeID) uint64 {
	for i, u := range pg.nodes[:pg.n] {
		if u == v {
			return 1 << i
		}
	}
	return 0
}

// reliability returns the exact s-t reliability of the loaded subgraph:
// 0 when s or t is not on it, 1 when s == t is. ok is false when the
// factoring needed more than exactMaxCalls calls.
func (pg *pathGraph) reliability(s, t ugraph.NodeID) (r float64, ok bool) {
	src, dst := pg.bit(s), pg.bit(t)
	if src == 0 || dst == 0 {
		return 0, true
	}
	pg.target, pg.calls = dst, 0
	r = pg.factor(src, 0)
	return r, pg.calls <= exactMaxCalls
}

// factor returns the probability that t is reached from the node set
// reach, given that the edges in down failed and every edge with both
// ends in reach is settled. It branches on the first live edge leaving
// reach: up adds its head to reach, down adds it to down.
func (pg *pathGraph) factor(reach, down uint64) float64 {
	pg.calls++
	if pg.calls > exactMaxCalls {
		return 0
	}
	for {
		if reach&pg.target != 0 {
			return 1
		}
		if !pg.reaches(reach, down) {
			return 0
		}
		// reaches found a live path out of reach, so some live edge leaves
		// it.
		e, head := 0, uint64(0)
		for ; e < pg.m; e++ {
			if down>>e&1 == 0 {
				if head = pg.head(e, reach); head != 0 {
					break
				}
			}
		}
		switch p := pg.p[e]; {
		case p >= 1:
			reach |= head
		case p <= 0:
			down |= 1 << e
		default:
			return p*pg.factor(reach|head, down) + (1-p)*pg.factor(reach, down|1<<e)
		}
	}
}

// reaches reports whether t is reachable from reach over the edges not in
// down.
func (pg *pathGraph) reaches(reach, down uint64) bool {
	for {
		grown := reach
		for e := 0; e < pg.m; e++ {
			if down>>e&1 == 0 {
				reach |= pg.head(e, reach)
			}
		}
		if reach&pg.target != 0 {
			return true
		}
		if reach == grown {
			return false
		}
	}
}

// head returns the bit of the node edge e adds to reach when it is up, or
// 0 when e does not leave reach.
func (pg *pathGraph) head(e int, reach uint64) uint64 {
	if pg.from[e]&reach != 0 {
		return pg.to[e] &^ reach
	}
	if !pg.directed && pg.to[e]&reach != 0 {
		return pg.from[e] &^ reach
	}
	return 0
}
