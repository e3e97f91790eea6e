package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// The factoring below is pathGraph as it was before it reduced
// series–parallel structure: the same load, and a recursion that branches
// on every live edge leaving the reached set. It is kept, unchanged but for
// its type name, as the oracle the reducing pathGraph is checked against.

// oraclePathGraph is the subgraph induced by a path selection, held for exact
// s-t reliability by the factoring theorem
//
//	R(G) = p_e·R(G·e) + (1−p_e)·R(G−e)
//
// (Satyanarayana & Chang, Networks 1983). The selections Problems 3 and 4
// score are tiny, a handful of edges, so an exact answer costs less than
// one sampled estimate and has no variance. Nodes are remapped to bits of
// a uint64 mask and edges to bits of a second one; a oraclePathGraph reused
// across calls never allocates.
type oraclePathGraph struct {
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
func (pg *oraclePathGraph) load(gPlus augmented, selected []paths.Path) bool {
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
func (pg *oraclePathGraph) local(eid int32) int {
	for i, id := range pg.eids[:pg.m] {
		if id == eid {
			return i
		}
	}
	return -1
}

// addNode returns v's mask bit, assigning the next one on first sight.
func (pg *oraclePathGraph) addNode(v ugraph.NodeID) uint64 {
	if b := pg.bit(v); b != 0 {
		return b
	}
	pg.nodes[pg.n] = v
	pg.n++
	return 1 << (pg.n - 1)
}

// bit returns v's mask bit, or 0 when v is not on the selection.
func (pg *oraclePathGraph) bit(v ugraph.NodeID) uint64 {
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
func (pg *oraclePathGraph) reliability(s, t ugraph.NodeID) (r float64, ok bool) {
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
func (pg *oraclePathGraph) factor(reach, down uint64) float64 {
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
func (pg *oraclePathGraph) reaches(reach, down uint64) bool {
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
func (pg *oraclePathGraph) head(e int, reach uint64) uint64 {
	if pg.from[e]&reach != 0 {
		return pg.to[e] &^ reach
	}
	if !pg.directed && pg.to[e]&reach != 0 {
		return pg.from[e] &^ reach
	}
	return 0
}

// oracleSelection factors selected with the oracle; ok is false when the
// selection does not fit or the oracle ran past its call budget.
func oracleSelection(g *ugraph.Graph, selected []paths.Path, s, t ugraph.NodeID) (float64, bool) {
	var og oraclePathGraph
	if !og.load(gPlus(g, candidates.Result{}), selected) {
		return 0, false
	}
	return og.reliability(s, t)
}

// checkAgainstOracle loads selected into a pathGraph and the oracle, both
// as given and oriented (directed), and with edges forced to p = 0 and
// p = 1, and requires every reliability the oracle computes within 1e-12.
// It returns the selection's distinct edge count.
func checkAgainstOracle(t *testing.T, a augmented, selected []paths.Path, queries [][2]ugraph.NodeID) int {
	t.Helper()
	var pg pathGraph
	var og oraclePathGraph
	if !pg.load(a, selected) || !og.load(a, selected) {
		return 0
	}
	for _, directed := range []bool{a.Directed(), true} {
		for variant := 0; variant < 3; variant++ {
			pg.directed, og.directed = directed, directed
			copy(og.p[:og.m], pg.p[:pg.m])
			if variant > 0 {
				// Force a spread of edges to be impossible and certain.
				for e := variant - 1; e < pg.m; e += 4 {
					og.p[e] = 0
					if e+2 < pg.m {
						og.p[e+2] = 1
					}
				}
			}
			saved := pg.p
			pg.p = og.p
			for _, q := range queries {
				want, okWant := og.reliability(q[0], q[1])
				got, ok := pg.reliability(q[0], q[1])
				if okWant && !ok {
					t.Fatalf("%d edges, directed=%v, variant %d, %d→%d: gave up where the oracle did not", pg.m, directed, variant, q[0], q[1])
				}
				if okWant && math.Abs(got-want) > 1e-12 {
					t.Fatalf("%d edges, directed=%v, variant %d, %d→%d: %v, oracle %v", pg.m, directed, variant, q[0], q[1], got, want)
				}
			}
			pg.p = saved
		}
	}
	return pg.m
}

// TestPathGraphMatchesOracleAfterWrites scores every selection BE and IP
// try after perfbench's writer (graphAfterWrites) with pathGraph and the
// oracle, each query eliminated on round 1 as a served solve is. These are
// the largest selections the served objective factors.
func TestPathGraphMatchesOracleAfterWrites(t *testing.T) {
	g, qs := graphAfterWrites(t)
	ctx := context.Background()
	opt := Options{Workers: 1}.withDefaults()
	large := 0
	for _, q := range qs {
		res, err := candidateSet(ctx, g, q.S, q.T, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		a := gPlus(g, res)
		pool := a.topL(ctx, q.S, q.T, opt.L)
		ev := &pathEvaluator{gPlus: a, s: q.S, t: q.T, smp: sampling.NewMonteCarlo(1000, 1)}
		queries := [][2]ugraph.NodeID{{q.S, q.T}}
		for _, batch := range []bool{true, false} {
			batchSelect(ctx, a, pool, opt, func(sel []paths.Path) float64 {
				if m := checkAgainstOracle(t, a, sel, queries); m >= 13 {
					large++
				}
				return ev.reliability(sel)
			}, batch)
		}
	}
	if large < 100 {
		t.Fatalf("only %d selections of 13–20 edges; the writer replay no longer grows them", large)
	}
	t.Logf("%d selections of 13–20 edges checked", large)
}

// TestPathGraphMatchesOracleDense checks pathGraph against the oracle on
// random unions of simple s-t paths through dense random graphs, up to 20
// distinct edges, queried s→t, t→s and at two random node pairs.
func TestPathGraphMatchesOracleDense(t *testing.T) {
	r := rng.New(23)
	big := 0
	for i := 0; i < 300; i++ {
		n := 5 + r.Intn(5)
		g := ugraph.New(n, i%2 == 1)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || r.Float64() < 0.2 || g.HasEdge(ugraph.NodeID(u), ugraph.NodeID(v)) {
					continue
				}
				p := 0.05 + 0.9*r.Float64()
				switch r.Intn(12) {
				case 0:
					p = 0
				case 1:
					p = 1
				}
				g.MustAddEdge(ugraph.NodeID(u), ugraph.NodeID(v), p)
			}
		}
		s, dst := ugraph.NodeID(0), ugraph.NodeID(n-1)
		var sel []paths.Path
		seen := map[int32]bool{}
		for tries := 0; tries < 40; tries++ {
			p, ok := randomSimplePath(g, s, dst, r)
			if !ok {
				break
			}
			added := 0
			for _, eid := range p.Edges {
				if !seen[eid] {
					added++
				}
			}
			if len(seen)+added > exactMaxEdges {
				continue
			}
			for _, eid := range p.Edges {
				seen[eid] = true
			}
			sel = append(sel, p)
		}
		queries := [][2]ugraph.NodeID{{s, dst}, {dst, s}}
		for k := 0; k < 2; k++ {
			queries = append(queries, [2]ugraph.NodeID{ugraph.NodeID(r.Intn(n)), ugraph.NodeID(r.Intn(n))})
		}
		if checkAgainstOracle(t, gPlus(g, candidates.Result{}), sel, queries) >= 16 {
			big++
		}
	}
	if big < 100 {
		t.Fatalf("only %d of 300 unions hold 16–20 edges; the generator is too sparse", big)
	}
}

// randomSimplePath walks from s to t by random steps that never revisit a
// node, restarting a bounded number of times when it gets stuck.
func randomSimplePath(g *ugraph.Graph, s, t ugraph.NodeID, r interface{ Intn(int) int }) (paths.Path, bool) {
	for attempt := 0; attempt < 20; attempt++ {
		p := paths.Path{Nodes: []ugraph.NodeID{s}}
		on := map[ugraph.NodeID]bool{s: true}
		for at := s; at != t; {
			var next []ugraph.Arc
			for _, a := range g.Out(at) {
				if !on[a.To] {
					next = append(next, a)
				}
			}
			if len(next) == 0 {
				break
			}
			a := next[r.Intn(len(next))]
			p.Nodes, p.Edges = append(p.Nodes, a.To), append(p.Edges, a.EID)
			on[a.To], at = true, a.To
		}
		if p.Nodes[len(p.Nodes)-1] == t {
			return p, true
		}
	}
	return paths.Path{}, false
}
