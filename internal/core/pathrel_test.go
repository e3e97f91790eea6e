package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datasets"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// bruteSelection is the oracle for pathGraph: the s-t reliability of the
// subgraph induced by selected, by enumerating all 2^m worlds of its
// distinct edges. Like pathGraph, a query node not on the selection has
// reliability 0.
func bruteSelection(g *ugraph.Graph, selected []paths.Path, s, t ugraph.NodeID) float64 {
	var eids []int32
	on := map[ugraph.NodeID]bool{}
	for _, p := range selected {
		for i, eid := range p.Edges {
			if !slices.Contains(eids, eid) {
				eids = append(eids, eid)
			}
			on[p.Nodes[i]], on[p.Nodes[i+1]] = true, true
		}
	}
	if !on[s] || !on[t] {
		return 0
	}
	total := 0.0
	for world := 0; world < 1<<len(eids); world++ {
		w := 1.0
		for i, eid := range eids {
			if world>>i&1 == 1 {
				w *= g.Prob(eid)
			} else {
				w *= 1 - g.Prob(eid)
			}
		}
		if w != 0 && worldReaches(g, eids, world, s, t) {
			total += w
		}
	}
	return total
}

// worldReaches reports whether t is reachable from s over the edges of eids
// whose bit is set in world.
func worldReaches(g *ugraph.Graph, eids []int32, world int, s, t ugraph.NodeID) bool {
	reached := map[ugraph.NodeID]bool{s: true}
	for grown := true; grown; {
		grown = false
		for i, eid := range eids {
			if world>>i&1 == 0 {
				continue
			}
			e := g.Endpoints(eid)
			if reached[e.U] && !reached[e.V] {
				reached[e.V], grown = true, true
			}
			if !g.Directed() && reached[e.V] && !reached[e.U] {
				reached[e.U], grown = true, true
			}
		}
	}
	return reached[t]
}

// decodeSelection turns bytes into a graph of at most 8 nodes and maxEdges
// edges, a selection of up to 6 walks over it and a query pair. Probability
// bytes below 16 decode to 0 and above 239 to 1, so certain and impossible
// edges are common. It reports false when the bytes run out first.
func decodeSelection(data []byte, maxEdges int) (g *ugraph.Graph, selected []paths.Path, s, t ugraph.NodeID, ok bool) {
	next := func() int {
		if len(data) == 0 {
			ok = false
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ok = true
	head := next()
	n := 2 + (head>>1)%7
	g = ugraph.New(n, head&1 == 1)
	for m := next() % (maxEdges + 1); m > 0; m-- {
		u, v, pb := next()%n, next()%n, next()
		p := float64(pb) / 255
		switch {
		case pb < 16:
			p = 0
		case pb > 239:
			p = 1
		}
		if u != v && !g.HasEdge(ugraph.NodeID(u), ugraph.NodeID(v)) {
			g.MustAddEdge(ugraph.NodeID(u), ugraph.NodeID(v), p)
		}
	}
	s, t = ugraph.NodeID(next()%n), ugraph.NodeID(next()%n)
	for w := next()%6 + 1; w > 0; w-- {
		at := ugraph.NodeID(next() % n)
		p := paths.Path{Nodes: []ugraph.NodeID{at}}
		for hops := next()%5 + 1; hops > 0; hops-- {
			out := g.Out(at)
			if len(out) == 0 {
				break
			}
			a := out[next()%len(out)]
			p.Nodes = append(p.Nodes, a.To)
			p.Edges = append(p.Edges, a.EID)
			at = a.To
		}
		if len(p.Edges) > 0 {
			selected = append(selected, p)
		}
	}
	return g, selected, s, t, ok
}

// exactSelection loads selected into a fresh pathGraph and factors it.
func exactSelection(t *testing.T, g *ugraph.Graph, selected []paths.Path, s, dst ugraph.NodeID) float64 {
	t.Helper()
	var pg pathGraph
	if !pg.load(gPlus(g, candidates.Result{}), selected) {
		t.Fatalf("selection of %d paths does not fit %d edges", len(selected), exactEdgeCap)
	}
	r, ok := pg.reliability(s, dst)
	if !ok {
		t.Fatalf("factoring %d edges ran past %d calls", pg.m, exactMaxCalls)
	}
	return r
}

// parallelPaths is a fixture with three s-t routes sharing a cross edge:
// 0→1→5, 0→2→5, 0→3→4→5 and 1→2, selected as its top paths.
func parallelPaths(directed bool) (*ugraph.Graph, []paths.Path) {
	g := ugraph.New(7, directed)
	for _, e := range []ugraph.Edge{
		{U: 0, V: 1, P: 0.6}, {U: 1, V: 5, P: 0.5}, {U: 0, V: 2, P: 0.4},
		{U: 2, V: 5, P: 0.7}, {U: 0, V: 3, P: 0.9}, {U: 3, V: 4, P: 0.3},
		{U: 4, V: 5, P: 0.8}, {U: 1, V: 2, P: 0.5},
	} {
		g.MustAddEdge(e.U, e.V, e.P)
	}
	return g, paths.TopL(context.Background(), g, 0, 5, 10)
}

func TestPathGraphMatchesBruteForce(t *testing.T) {
	r := rng.New(11)
	data := make([]byte, 128)
	between := 0
	for i := 0; i < 400; i++ {
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		g, sel, s, dst, _ := decodeSelection(data, 16)
		want := bruteSelection(g, sel, s, dst)
		if got := exactSelection(t, g, sel, s, dst); math.Abs(got-want) > 1e-12 {
			t.Fatalf("case %d (directed=%v, m=%d): exact %v, brute force %v", i, g.Directed(), g.M(), got, want)
		}
		if want > 0 && want < 1 {
			between++
		}
	}
	if between < 100 {
		t.Fatalf("only %d of 400 random cases have 0 < R < 1; the generator is too trivial", between)
	}

	for _, directed := range []bool{true, false} {
		g, sel := parallelPaths(directed)
		if len(sel) < 3 {
			t.Fatalf("directed=%v: %d parallel paths, want at least 3", directed, len(sel))
		}
		for _, q := range [][2]ugraph.NodeID{{0, 5}, {5, 0}, {1, 2}, {0, 6}, {6, 5}, {2, 2}, {6, 6}} {
			want := bruteSelection(g, sel, q[0], q[1])
			if got := exactSelection(t, g, sel, q[0], q[1]); math.Abs(got-want) > 1e-12 {
				t.Errorf("parallel directed=%v %d→%d: exact %v, brute force %v", directed, q[0], q[1], got, want)
			}
		}
		// Node 6 is on no path: a missing s or t scores 0; s = t on the
		// selection scores 1.
		if got := exactSelection(t, g, sel, 0, 6); got != 0 {
			t.Errorf("directed=%v: t off the selection scored %v", directed, got)
		}
		if got := exactSelection(t, g, sel, 2, 2); got != 1 {
			t.Errorf("directed=%v: s = t on the selection scored %v", directed, got)
		}
	}

	// Certain and impossible edges: 0→1 (1), 1→3 (0), 0→2 (0.5), 2→3 (1).
	g := ugraph.New(4, true)
	path := func(eids ...int32) paths.Path {
		p := paths.Path{Nodes: []ugraph.NodeID{g.Endpoints(eids[0]).U}}
		for _, eid := range eids {
			p.Nodes = append(p.Nodes, g.Endpoints(eid).V)
			p.Edges = append(p.Edges, eid)
		}
		return p
	}
	a, b := g.MustAddEdge(0, 1, 1), g.MustAddEdge(1, 3, 0)
	c, d := g.MustAddEdge(0, 2, 0.5), g.MustAddEdge(2, 3, 1)
	sel := []paths.Path{path(a, b), path(c, d)}
	if got := exactSelection(t, g, sel, 0, 3); got != 0.5 {
		t.Errorf("p ∈ {0,1} fixture: exact %v, want 0.5", got)
	}
	if got := exactSelection(t, g, sel[:1], 0, 3); got != 0 {
		t.Errorf("path over an impossible edge: exact %v, want 0", got)
	}
}

func TestPathGraphMatchesMC(t *testing.T) {
	const z = 100_000
	r := rng.New(5)
	data := make([]byte, 128)
	checked := 0
	for i := 0; checked < 6; i++ {
		if i == 1000 {
			t.Fatalf("only %d of 1000 random cases have 0.05 < R < 0.95", checked)
		}
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		g, sel, s, dst, _ := decodeSelection(data, 16)
		want := exactSelection(t, g, sel, s, dst)
		if want <= 0.05 || want >= 0.95 {
			continue
		}
		checked++
		sub, remap := inducedSubgraph(gPlus(g, candidates.Result{}), sel)
		got := sampling.NewMonteCarlo(z, int64(i)).Reliability(sub, remap[s], remap[dst])
		if sigma := math.Sqrt(want * (1 - want) / z); math.Abs(got-want) > 4*sigma {
			t.Errorf("case %d: mc %v vs exact %v: more than 4σ (σ=%v)", i, got, want, sigma)
		}
	}
}

func TestPathEvaluatorExactAllocationFree(t *testing.T) {
	g, sel := parallelPaths(false)
	ev := &pathEvaluator{gPlus: gPlus(g, candidates.Result{}), s: 0, t: 5}
	var r float64
	if allocs := testing.AllocsPerRun(100, func() { r = ev.reliability(sel) }); allocs != 0 {
		t.Fatalf("exact objective allocates %v times per call", allocs)
	}
	if want := bruteSelection(g, sel, 0, 5); math.Abs(r-want) > 1e-12 {
		t.Fatalf("exact objective %v, brute force %v", r, want)
	}
	mev := &multiEvaluator{gPlus: gPlus(g, candidates.Result{}), sources: []ugraph.NodeID{0, 1}, targets: []ugraph.NodeID{5, 4}}
	if allocs := testing.AllocsPerRun(100, func() { r = mev.avgReliability(sel) }); allocs != 0 {
		t.Fatalf("exact average objective allocates %v times per call", allocs)
	}
}

// noSampler fails the test on any estimate: the objectives it is handed
// must stay exact.
type noSampler struct {
	sampling.Sampler // nil: any other method panics
	t                *testing.T
}

func (n noSampler) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	n.t.Fatalf("selection sampled R(%d,%d) on a %d-edge subgraph", s, t, g.M())
	return 0
}

func (n noSampler) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	n.t.Fatalf("selection sampled R(%d,·) on a %d-edge subgraph", s, g.M())
	return nil
}

// TestServedSelectionNeverSamples runs BE and IP selection in the shape
// relmaxd serves (engine defaults, lastfm×0.08, pairs 3-5 hops apart, each
// eliminated on round 1 as a served solve is) with a selection sampler
// that fails on any call.
func TestServedSelectionNeverSamples(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := datasets.Queries(g, 20, 3, 5, 1)
	if len(qs) != 20 {
		t.Fatalf("%d query pairs, want 20", len(qs))
	}
	ctx := context.Background()
	opt := Options{Workers: 1}.withDefaults()
	for _, q := range qs {
		res, err := candidateSet(ctx, g, q.S, q.T, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []bool{true, false} {
			edges, n := pathSelect(ctx, g, q.S, q.T, res, noSampler{t: t}, opt, batch)
			if n == 0 || len(edges) == 0 {
				t.Fatalf("%d→%d batch=%v: %d paths, %d edges; want a real selection", q.S, q.T, batch, n, len(edges))
			}
		}
	}
}

func TestMultiAvgExactMatchesFallback(t *testing.T) {
	g, sources, targets := multiTestGraph()
	cands := []ugraph.Edge{{U: 2, V: 5, P: 0.6}, {U: 3, V: 5, P: 0.6}, {U: 0, V: 4, P: 0.6}, {U: 8, V: 9, P: 0.6}}
	a := gPlus(g, candidates.Result{Edges: cands})
	var pool []paths.Path
	for _, s := range sources {
		for _, dst := range targets {
			pool = append(pool, a.topL(context.Background(), s, dst, 4)...)
		}
	}
	const z = 100_000
	plus := g.WithEdges(cands)
	exact := &multiEvaluator{gPlus: a, sources: sources, targets: targets, smp: noSampler{t: t}}
	sampled := &multiEvaluator{gPlus: a, sources: sources, targets: targets, smp: sampling.NewMonteCarlo(z, 3)}
	for k := 1; k <= len(pool); k += 3 {
		sel := pool[:k]
		got := exact.avgReliability(sel)
		want := 0.0
		for _, s := range sources {
			for _, dst := range targets {
				want += bruteSelection(plus, sel, s, dst)
			}
		}
		want /= float64(len(sources) * len(targets))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%d paths: exact average %v, brute force %v", k, got, want)
		}
		func() {
			defer func(was int) { exactEdgeCap = was }(exactEdgeCap)
			exactEdgeCap = 0
			if est := sampled.avgReliability(sel); math.Abs(est-got) > 4*0.5/math.Sqrt(z) {
				t.Errorf("%d paths: sampled average %v vs exact %v: more than 4σ", k, est, got)
			}
		}()
	}
}

func TestAllocateBudgetExactMatchesFallback(t *testing.T) {
	g, cands := example3Graph()
	a := gPlus(g, candidates.Result{Edges: cands})
	pool := a.topL(context.Background(), ex3S, ex3T, 3)
	opt := ex3Options()
	for _, budget := range []float64{0.5, 1, 1.5} {
		exactEdges, exactSpent := allocateBudget(context.Background(), a, pool, ex3S, ex3T, budget, opt, noSampler{t: t})
		var sampledEdges []ugraph.Edge
		var sampledSpent float64
		func() {
			defer func(was int) { exactEdgeCap = was }(exactEdgeCap)
			exactEdgeCap = 0
			sampledEdges, sampledSpent = allocateBudget(context.Background(), a, pool, ex3S, ex3T, budget, opt, sampling.NewMonteCarlo(20_000, 7))
		}()
		if math.Abs(exactSpent-budget) > 1e-9 || math.Abs(sampledSpent-budget) > 1e-9 {
			t.Fatalf("budget %v: exact spent %v, sampled spent %v", budget, exactSpent, sampledSpent)
		}
		// Both greedy runs must land on allocations of (near) equal exact
		// worth; noise may only swap near-ties.
		worth := func(edges []ugraph.Edge) float64 {
			r, err := g.WithEdges(edges).ExactReliability(ex3S, ex3T)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if we, ws := worth(exactEdges), worth(sampledEdges); we < ws-0.01 {
			t.Errorf("budget %v: exact allocation %v worth %v, sampled %v worth %v", budget, exactEdges, we, sampledEdges, ws)
		}
	}
}

func TestGreedyAllocateGivesUpCleanly(t *testing.T) {
	slots := []budgetSlot{{eid: 1}, {eid: 2}}
	calls := 0
	rel := func() (float64, bool) {
		calls++
		return 0.1 * float64(calls), calls < 5
	}
	if greedyAllocate(context.Background(), slots, 1, func(int32, float64) {}, rel) {
		t.Fatal("greedyAllocate reported success after rel failed")
	}
	for _, sl := range slots {
		if sl.alloc != 0 {
			t.Fatalf("slots kept allocations after giving up: %+v", slots)
		}
	}
}

// FuzzPathReliability checks the exact path-subgraph objective against the
// plain factoring oracle on decoded graphs of at most 20 edges, and against
// brute-force enumeration when the selection holds at most 12 of them.
func FuzzPathReliability(f *testing.F) {
	f.Add([]byte{1, 5, 0, 1, 128, 1, 2, 250, 0, 2, 90, 0, 2, 2, 0, 3, 0, 0, 0})
	f.Add([]byte{12, 12, 0, 1, 60, 1, 2, 200, 2, 3, 8, 3, 4, 99, 0, 4, 255, 1, 3, 140, 0, 4, 5, 0, 4, 0, 0, 0, 0, 1, 4, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, sel, s, dst, ok := decodeSelection(data, 20)
		if !ok {
			return
		}
		got := exactSelection(t, g, sel, s, dst)
		if want, ok := oracleSelection(g, sel, s, dst); ok && math.Abs(got-want) > 1e-12 {
			t.Fatalf("directed=%v m=%d %d→%d over %d paths: exact %v, oracle %v", g.Directed(), g.M(), s, dst, len(sel), got, want)
		}
		if selectionEdges(sel) > 12 {
			return
		}
		if want := bruteSelection(g, sel, s, dst); math.Abs(got-want) > 1e-12 {
			t.Fatalf("directed=%v m=%d %d→%d over %d paths: exact %v, brute force %v", g.Directed(), g.M(), s, dst, len(sel), got, want)
		}
	})
}

// selectionEdges counts the distinct edges of selected.
func selectionEdges(selected []paths.Path) int {
	var eids []int32
	for _, p := range selected {
		for _, eid := range p.Edges {
			if !slices.Contains(eids, eid) {
				eids = append(eids, eid)
			}
		}
	}
	return len(eids)
}
