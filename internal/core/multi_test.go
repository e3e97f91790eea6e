package core

import (
	"context"

	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

func TestAggregateOf(t *testing.T) {
	m := [][]float64{{0.2, 0.8}, {0.4, 0.6}}
	if got := AggregateOf(m, AggAvg); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("avg = %v, want 0.5", got)
	}
	if got := AggregateOf(m, AggMin); got != 0.2 {
		t.Errorf("min = %v, want 0.2", got)
	}
	if got := AggregateOf(m, AggMax); got != 0.8 {
		t.Errorf("max = %v, want 0.8", got)
	}
	if got := AggregateOf(nil, AggAvg); got != 0 {
		t.Errorf("empty avg = %v", got)
	}
	if got := AggregateOf(nil, AggMin); got != 0 {
		t.Errorf("empty min = %v", got)
	}
	if got := AggregateOf(m, Aggregate("bogus")); got != 0 {
		t.Errorf("bogus aggregate = %v", got)
	}
}

func TestPairReliabilities(t *testing.T) {
	// 0→1 (0.8), 0→2 (0.4), 1→2 (0.5).
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(0, 2, 0.4)
	g.MustAddEdge(1, 2, 0.5)
	smp, err := sampling.NewParallel("mc", 40000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := PairReliabilities(g, []ugraph.NodeID{0, 1}, []ugraph.NodeID{1, 2}, smp)
	// R(0,1)=0.8; R(0,2)=1-(1-0.4)(1-0.8·0.5)=0.64; R(1,1)=1; R(1,2)=0.5.
	want := [][]float64{{0.8, 0.64}, {1, 0.5}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(m[i][j]-want[i][j]) > 0.02 {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m[i][j], want[i][j])
			}
		}
	}
}

// multiTestGraph: two source-side nodes feeding a hub, a weak bridge, and
// two target-side nodes hanging off a second hub.
func multiTestGraph() (*ugraph.Graph, []ugraph.NodeID, []ugraph.NodeID) {
	g := ugraph.New(10, false)
	g.MustAddEdge(0, 2, 0.8)
	g.MustAddEdge(1, 2, 0.8)
	g.MustAddEdge(2, 3, 0.4)
	g.MustAddEdge(3, 4, 0.3) // weak middle chain
	g.MustAddEdge(4, 5, 0.4)
	g.MustAddEdge(5, 6, 0.8)
	g.MustAddEdge(5, 7, 0.8)
	g.MustAddEdge(2, 8, 0.2)
	g.MustAddEdge(5, 9, 0.2)
	return g, []ugraph.NodeID{0, 1}, []ugraph.NodeID{6, 7}
}

func TestSolveMultiAggregates(t *testing.T) {
	g, S, T := multiTestGraph()
	for _, agg := range []Aggregate{AggAvg, AggMin, AggMax} {
		opt := Options{K: 3, Zeta: 0.6, R: 8, L: 8, Z: 1500, Seed: 33}
		sol, err := SolveMulti(context.Background(), g, S, T, agg, MethodBE, opt)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if len(sol.Edges) > opt.K {
			t.Errorf("%s: %d edges over budget %d", agg, len(sol.Edges), opt.K)
		}
		for _, e := range sol.Edges {
			if g.HasEdge(e.U, e.V) || e.U == e.V {
				t.Errorf("%s: bad edge %+v", agg, e)
			}
		}
		if sol.Gain < -0.05 {
			t.Errorf("%s: materially negative gain %v", agg, sol.Gain)
		}
		// With such a weak middle chain, 3 new ζ=0.6 edges must help.
		if agg != AggMax && sol.Gain < 0.01 {
			t.Errorf("%s: gain %v suspiciously small", agg, sol.Gain)
		}
	}
}

func TestSolveMultiBaselines(t *testing.T) {
	g, S, T := multiTestGraph()
	opt := Options{K: 2, Zeta: 0.6, R: 8, L: 6, Z: 600, Seed: 44}
	for _, m := range []Method{MethodHillClimbing, MethodEigen} {
		sol, err := SolveMulti(context.Background(), g, S, T, AggAvg, m, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(sol.Edges) > opt.K {
			t.Errorf("%s: over budget", m)
		}
	}
}

func TestSolveMultiValidation(t *testing.T) {
	g, S, T := multiTestGraph()
	opt := Options{K: 2, Z: 200, Seed: 1}
	if _, err := SolveMulti(context.Background(), g, nil, T, AggAvg, MethodBE, opt); err == nil {
		t.Error("empty source set accepted")
	}
	if _, err := SolveMulti(context.Background(), g, S, []ugraph.NodeID{99}, AggAvg, MethodBE, opt); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := SolveMulti(context.Background(), g, S, T, Aggregate("bogus"), MethodBE, opt); err == nil {
		t.Error("bogus aggregate accepted")
	}
	if _, err := SolveMulti(context.Background(), g, S, T, AggAvg, MethodDegree, opt); err == nil {
		t.Error("unsupported multi method accepted")
	}
}

// TestSolveMultiMinImprovesWorstPair: the Min solver must lift the lowest
// pair reliability, not just the average.
func TestSolveMultiMinImprovesWorstPair(t *testing.T) {
	g, S, T := multiTestGraph()
	opt := Options{K: 4, Zeta: 0.7, R: 8, L: 8, Z: 2000, Seed: 55, K1Ratio: 0.5}
	sol, err := SolveMulti(context.Background(), g, S, T, AggMin, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := sampling.NewParallel("mc", 8000, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := AggregateOf(PairReliabilities(g, S, T, eval), AggMin)
	after := AggregateOf(PairReliabilities(g.WithEdges(sol.Edges), S, T, eval), AggMin)
	if after < before+0.02 {
		t.Fatalf("min reliability %v → %v: no material improvement", before, after)
	}
}

func TestSolveMultiDeterministic(t *testing.T) {
	g, S, T := multiTestGraph()
	opt := Options{K: 3, Zeta: 0.6, R: 8, L: 6, Z: 800, Seed: 66}
	a, err := SolveMulti(context.Background(), g, S, T, AggAvg, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveMulti(context.Background(), g, S, T, AggAvg, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("non-deterministic: %v vs %v", a.Edges, b.Edges)
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("non-deterministic: %v vs %v", a.Edges, b.Edges)
		}
	}
}

// TestMultiAvgMatchesSinglePair: with |S| = |T| = 1 the Avg objective
// degenerates to Problem 1; both solvers must reach comparable gains.
func TestMultiAvgMatchesSinglePair(t *testing.T) {
	r := rng.New(7)
	g := ugraph.New(20, false)
	for g.M() < 40 {
		u := ugraph.NodeID(r.Intn(20))
		v := ugraph.NodeID(r.Intn(20))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.4*r.Float64())
	}
	opt := Options{K: 3, Zeta: 0.6, R: 10, L: 10, Z: 2000, Seed: 77, H: 3}
	single, err := Solve(context.Background(), g, 0, 19, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SolveMulti(context.Background(), g, []ugraph.NodeID{0}, []ugraph.NodeID{19}, AggAvg, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.Gain-multi.Gain) > 0.12 {
		t.Fatalf("single gain %v vs multi 1:1 gain %v diverge", single.Gain, multi.Gain)
	}
}

// TestMultiMinMaxBEKeepsExplicitCandidates: explicit Options.Candidates
// override elimination in every multi-min and multi-max BE round, as they
// do for multi-avg BE and single-pair solves.
func TestMultiMinMaxBEKeepsExplicitCandidates(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := datasets.Queries(g, 3, 3, 5, 1)
	var sources, targets []ugraph.NodeID
	for _, q := range qs {
		sources, targets = append(sources, q.S), append(targets, q.T)
	}
	only := ugraph.Edge{U: sources[0], V: targets[0], P: 0.5}
	opt := Options{Workers: 1, Z: 200, Candidates: []ugraph.Edge{only}}
	for _, agg := range []Aggregate{AggMin, AggMax} {
		sol, err := SolveMulti(context.Background(), g, sources, targets, agg, MethodBE, opt)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if len(sol.Edges) != 1 || sol.Edges[0] != only {
			t.Errorf("multi-%s BE chose %v, want only the candidate %v", agg, sol.Edges, only)
		}
	}
}
