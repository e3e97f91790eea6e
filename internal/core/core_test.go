package core

import (
	"context"

	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// example3Graph is the §5.2.2 worked instance (Figure 4(c)): nodes s, B, C,
// t; existing edges C→B (0.9) and C→t (0.3); candidate edges s→B, s→C, B→t
// each with ζ = 0.5. The top-3 most reliable paths in G+ are sBt (0.25),
// sCBt (0.225) and sCt (0.15); {sC, Bt} is the optimal pair with
// reliability 0.3075 (Example 3), which the per-edge-normalized batch
// selection finds while individual path selection settles for {sB, Bt}.
const (
	ex3S = ugraph.NodeID(0)
	ex3B = ugraph.NodeID(1)
	ex3C = ugraph.NodeID(2)
	ex3T = ugraph.NodeID(3)
)

func example3Graph() (*ugraph.Graph, []ugraph.Edge) {
	g := ugraph.New(4, true)
	g.MustAddEdge(ex3C, ex3B, 0.9)
	g.MustAddEdge(ex3C, ex3T, 0.3)
	cands := []ugraph.Edge{
		{U: ex3S, V: ex3B, P: 0.5},
		{U: ex3S, V: ex3C, P: 0.5},
		{U: ex3B, V: ex3T, P: 0.5},
	}
	return g, cands
}

func ex3Options() Options {
	return Options{K: 2, Zeta: 0.5, L: 3, Z: 6000, Sampler: "rss", Seed: 9, R: 4}
}

func edgeSet(edges []ugraph.Edge) map[[2]ugraph.NodeID]bool {
	out := map[[2]ugraph.NodeID]bool{}
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		out[[2]ugraph.NodeID{u, v}] = true
	}
	return out
}

// TestExample3BatchSelection: BE must find the optimal {sC, Bt} (gain
// 0.3075) by scoring the sCBt batch together with the covered sCt path,
// normalized per new edge.
func TestExample3BatchSelection(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	sol, err := Solve(context.Background(), g, ex3S, ex3T, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := edgeSet(sol.Edges)
	if len(got) != 2 || !got[[2]ugraph.NodeID{ex3S, ex3C}] || !got[[2]ugraph.NodeID{ex3B, ex3T}] {
		t.Fatalf("BE edges = %v, want {sC, Bt}", sol.Edges)
	}
	// Exact gain of {sC, Bt} is 0.3075 (Example 3).
	exact, err := g.WithEdges(sol.Edges).ExactReliability(ex3S, ex3T)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.3075) > 1e-12 {
		t.Fatalf("exact reliability of BE solution = %v, want 0.3075", exact)
	}
	if math.Abs(sol.Gain-0.3075) > 0.05 {
		t.Fatalf("estimated gain %v far from 0.3075", sol.Gain)
	}
}

// TestExample3IndividualSelection: IP greedily takes path sBt first and
// ends with the sub-optimal {sB, Bt} (gain 0.28 on the full graph).
func TestExample3IndividualSelection(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	sol, err := Solve(context.Background(), g, ex3S, ex3T, MethodIP, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := edgeSet(sol.Edges)
	if len(got) != 2 || !got[[2]ugraph.NodeID{ex3S, ex3B}] || !got[[2]ugraph.NodeID{ex3B, ex3T}] {
		t.Fatalf("IP edges = %v, want {sB, Bt}", sol.Edges)
	}
}

// TestExample3ExactSolver: ES over the 3 candidate combinations confirms
// {sC, Bt} is optimal among 2-subsets.
func TestExample3ExactSolver(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	opt.Z = 20000
	sol, err := Solve(context.Background(), g, ex3S, ex3T, MethodExact, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := edgeSet(sol.Edges)
	if !got[[2]ugraph.NodeID{ex3S, ex3C}] || !got[[2]ugraph.NodeID{ex3B, ex3T}] {
		t.Fatalf("exact edges = %v, want {sC, Bt}", sol.Edges)
	}
}

// TestObservation4 checks that when the direct s-t edge is available, the
// exact top-1 solution is exactly the direct edge.
func TestObservation4DirectEdge(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.6)
	g.MustAddEdge(1, 3, 0.6)
	cands := []ugraph.Edge{
		{U: 0, V: 3, P: 0.5}, // direct s-t
		{U: 0, V: 2, P: 0.5},
		{U: 2, V: 3, P: 0.5},
	}
	opt := Options{K: 1, Zeta: 0.5, L: 5, Z: 20000, Sampler: "mc", Seed: 3, Candidates: cands}
	sol, err := Solve(context.Background(), g, 0, 3, MethodExact, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Edges) != 1 || sol.Edges[0].U != 0 || sol.Edges[0].V != 3 {
		t.Fatalf("top-1 = %v, want the direct edge st (Observation 4)", sol.Edges)
	}
}

func buildTestGraph(seed int64) *ugraph.Graph {
	r := rng.New(seed)
	g := ugraph.New(40, false)
	for g.M() < 80 {
		u := ugraph.NodeID(r.Intn(40))
		v := ugraph.NodeID(r.Intn(40))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.5*r.Float64())
	}
	return g
}

func TestAllMethodsRespectInvariants(t *testing.T) {
	g := buildTestGraph(5)
	opt := Options{K: 4, Zeta: 0.5, R: 12, L: 10, Z: 400, Sampler: "rss", Seed: 7, H: 3}
	for _, m := range Methods() {
		if m == MethodExact {
			continue // needs a tiny candidate set; covered separately
		}
		sol, err := Solve(context.Background(), g, 0, 39, m, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(sol.Edges) > opt.K {
			t.Errorf("%s returned %d edges, budget %d", m, len(sol.Edges), opt.K)
		}
		seen := edgeSet(nil)
		for _, e := range sol.Edges {
			if e.U == e.V {
				t.Errorf("%s proposed a self loop %+v", m, e)
			}
			if g.HasEdge(e.U, e.V) {
				t.Errorf("%s proposed existing edge %+v", m, e)
			}
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			key := [2]ugraph.NodeID{u, v}
			if seen[key] {
				t.Errorf("%s proposed duplicate edge %+v", m, e)
			}
			seen[key] = true
			if e.P != opt.Zeta {
				t.Errorf("%s edge probability %v, want ζ", m, e.P)
			}
		}
		// Gains are estimates; they must not be materially negative.
		if sol.Gain < -0.05 {
			t.Errorf("%s gain %v is materially negative", m, sol.Gain)
		}
		if sol.After < sol.Base-0.05 {
			t.Errorf("%s After %v < Base %v", m, sol.After, sol.Base)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	g := buildTestGraph(6)
	if _, err := Solve(context.Background(), g, 0, 0, MethodBE, Options{}); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := Solve(context.Background(), g, -1, 3, MethodBE, Options{}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Solve(context.Background(), g, 0, 999, MethodBE, Options{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := Solve(context.Background(), g, 0, 1, Method("bogus"), Options{}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Solve(context.Background(), g, 0, 1, MethodBE, Options{Sampler: "bogus"}); err == nil {
		t.Error("unknown sampler accepted")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	g := buildTestGraph(8)
	opt := Options{K: 3, R: 10, L: 8, Z: 300, Seed: 11, H: 3}
	a, err := Solve(context.Background(), g, 0, 39, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), g, 0, 39, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("non-deterministic edge count: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("non-deterministic edges: %v vs %v", a.Edges, b.Edges)
		}
	}
	if a.Gain != b.Gain {
		t.Fatalf("non-deterministic gain: %v vs %v", a.Gain, b.Gain)
	}
}

func TestExactBeatsOrMatchesHeuristics(t *testing.T) {
	// Small instance where exhaustive search is feasible; the ES gain
	// must be at least the BE gain (up to sampling noise).
	g := ugraph.New(8, false)
	r := rng.New(14)
	for g.M() < 12 {
		u := ugraph.NodeID(r.Intn(8))
		v := ugraph.NodeID(r.Intn(8))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.5*r.Float64())
	}
	opt := Options{K: 2, R: 8, L: 10, Z: 4000, Seed: 4, Zeta: 0.5}
	be, err := Solve(context.Background(), g, 0, 7, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	es, err := Solve(context.Background(), g, 0, 7, MethodExact, opt)
	if err != nil {
		t.Fatal(err)
	}
	if es.Gain < be.Gain-0.06 {
		t.Fatalf("exact gain %v below BE gain %v", es.Gain, be.Gain)
	}
}

func TestExactSearchComboCap(t *testing.T) {
	g := buildTestGraph(20)
	opt := Options{K: 10, Z: 50, Seed: 1, MaxExactCombos: 100, H: 3}
	if _, err := Solve(context.Background(), g, 0, 39, MethodExact, opt); err == nil {
		t.Fatal("oversized exact search accepted")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 11, 0}, {6, 3, 20},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := binomial(200, 100); got != -1 {
		t.Errorf("binomial overflow returned %d, want -1", got)
	}
}

func TestCandidateOverrideFiltering(t *testing.T) {
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	opt := Options{K: 3, Zeta: 0.4, Z: 200, Seed: 2, Candidates: []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, // existing: dropped
		{U: 2, V: 2, P: 0.9}, // self loop: dropped
		{U: 1, V: 2},         // zero probability: gets ζ
		{U: 2, V: 3, P: 0.8}, // explicit probability preserved
	}}
	res, err := candidateSet(context.Background(), g, 0, 3, 1, opt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.FromRel != nil || res.ToRel != nil {
		t.Fatalf("explicit candidates returned elimination vectors")
	}
	cands := res.Edges
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2 survivors", cands)
	}
	if cands[0].P != 0.4 {
		t.Errorf("zero-probability candidate got %v, want ζ=0.4", cands[0].P)
	}
	if cands[1].P != 0.8 {
		t.Errorf("explicit probability lost: %v", cands[1].P)
	}
}

func TestMRPMethodUsesRestrictedSolver(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.K = 1
	opt.Candidates = cands
	sol, err := Solve(context.Background(), g, ex3S, ex3T, MethodMRP, opt)
	if err != nil {
		t.Fatal(err)
	}
	// With k=1, the only single red edge creating a path is... none:
	// s has no existing edges, so every s-t path needs ≥1 red edge from
	// s plus the rest existing: sC + C-t works with one red edge (0.15),
	// sB has no onward existing edge to t except via C-B? B-t missing.
	// sB→B, B-C (0.9), C-t (0.3): path s-B-C-t = 0.5·0.9·0.3 = 0.135 <
	// 0.15. So MRP must pick sC.
	if len(sol.Edges) != 1 || sol.Edges[0].U != ex3S || sol.Edges[0].V != ex3C {
		t.Fatalf("MRP k=1 edges = %v, want {sC}", sol.Edges)
	}
}

func TestHillClimbingFollowsGreedyTrace(t *testing.T) {
	// Existing: 1→4 (0.9), 2→4 (0.2). Candidates (ζ=0.5): 0→1, 0→2,
	// 0→4. Exact greedy: round 1 gains are 0.45 / 0.10 / 0.50 → pick
	// 0→4; round 2 marginal gains are 0.225 (0→1) vs 0.05 (0→2) → pick
	// 0→1.
	g := ugraph.New(5, true)
	g.MustAddEdge(1, 4, 0.9)
	g.MustAddEdge(2, 4, 0.2)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 0, V: 2, P: 0.5},
		{U: 0, V: 4, P: 0.5},
	}
	opt := Options{K: 2, Z: 20000, Seed: 21, Sampler: "mc", Candidates: cands}
	hc, err := Solve(context.Background(), g, 0, 4, MethodHillClimbing, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hc.Edges) != 2 {
		t.Fatalf("HC edges = %v, want 2", hc.Edges)
	}
	// Greedy order: first 0→4, then 0→1.
	if hc.Edges[0].V != 4 || hc.Edges[1].V != 1 {
		t.Fatalf("HC greedy trace = %v, want [0→4, 0→1]", hc.Edges)
	}
	// Exact reliability of the HC solution: 1-(1-0.5)(1-0.45) = 0.725.
	exact, err := g.WithEdges(hc.Edges).ExactReliability(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.725) > 1e-12 {
		t.Fatalf("exact reliability = %v, want 0.725", exact)
	}
}

func TestIndividualTopKIgnoresInteractions(t *testing.T) {
	// Same instance: individual gains rank 0→4 (0.50) and 0→1 (0.45)
	// highest, so top-k agrees with greedy here; but with k=1 it must
	// return exactly the direct edge.
	g := ugraph.New(5, true)
	g.MustAddEdge(1, 4, 0.9)
	g.MustAddEdge(2, 4, 0.2)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 0, V: 2, P: 0.5},
		{U: 0, V: 4, P: 0.5},
	}
	opt := Options{K: 1, Z: 20000, Seed: 23, Sampler: "mc", Candidates: cands}
	sol, err := Solve(context.Background(), g, 0, 4, MethodIndividualTopK, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Edges) != 1 || sol.Edges[0].V != 4 {
		t.Fatalf("top-1 = %v, want the direct edge 0→4", sol.Edges)
	}
}
