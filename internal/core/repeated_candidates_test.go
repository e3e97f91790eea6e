package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ugraph"
)

// repeatedCandidates is an explicit candidate list full of what
// g.WithEdges skips: edges of g, a pair repeated with another probability,
// and each pair again the other way round (a repeat on an undirected graph,
// a distinct edge on a directed one).
func repeatedCandidates(fx baseFixture) []ugraph.Edge {
	s, t := fx.s, fx.t
	cands := []ugraph.Edge{
		{U: s, V: t, P: 0.5}, {U: t, V: s, P: 0.7},
		{U: s, V: 1, P: 0.6}, {U: s, V: 1, P: 0.3}, {U: 1, V: s, P: 0.9},
		{U: 2, V: t, P: 0.4}, {U: t, V: 2, P: 0.8}, {U: 2, V: t, P: 0.45},
	}
	for _, e := range fx.g.Edges()[:3] {
		cands = append(cands, ugraph.Edge{U: e.V, V: e.U, P: 0.55}, e)
	}
	for v := ugraph.NodeID(3); v < 12; v++ {
		cands = append(cands, ugraph.Edge{U: v, V: t, P: 0.35}, ugraph.Edge{U: s, V: v, P: 0.65}, ugraph.Edge{U: t, V: v, P: 0.25})
	}
	return append(cands, cands[4:10]...)
}

// Edges, Base and After of the path-based solvers on repeatedCandidates,
// recorded with G+ built by WithEdges.
var wantRepeatedCandidates = map[string]string{
	"undirected/be":           "[{0 39 0.5} {0 5 0.65}] 0.2682699723488694 0.7760565415851105",
	"undirected/ip":           "[{0 39 0.5} {0 5 0.65}] 0.2682699723488694 0.7760565415851105",
	"undirected/total-budget": "[{0 5 0.525} {0 39 0.9749999999999998}] 0.31502095964591575 0.9939638856085649",
	"undirected/multi-avg":    "[{0 39 0.5} {0 1 0.6}] 0.4381498502532626 0.6648091183196359",
	"directed/be":             "[{0 29 0.5}] 0.5852208855907413 0.8219691258161422",
	"directed/ip":             "[{0 29 0.5}] 0.5852208855907413 0.8219691258161422",
	"directed/total-budget":   "[{0 7 0.3} {0 29 0.9749999999999998} {7 20 0.22499999999999998}] 0.628947415794338 0.9999999999999998",
	"directed/multi-avg":      "[{1 0 0.9} {0 6 0.65}] 0.4158902621457911 0.6675745087399345",
}

// TestRepeatedCandidatesGoldens runs BE, IP, total-budget and multi-avg BE
// on repeatedCandidates and compares every result bit for bit with
// wantRepeatedCandidates.
func TestRepeatedCandidatesGoldens(t *testing.T) {
	ctx := context.Background()
	for _, fx := range baseFixtures() {
		opt := fx.opt
		opt.Candidates = repeatedCandidates(fx)
		got := map[string]string{}
		for _, m := range []Method{MethodBE, MethodIP} {
			sol, err := Solve(ctx, fx.g, fx.s, fx.t, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			got[string(m)] = fmt.Sprint(sol.Edges, sol.Base, sol.After)
		}
		tb, err := SolveTotalBudget(ctx, fx.g, fx.s, fx.t, 1.5, opt)
		if err != nil {
			t.Fatal(err)
		}
		got["total-budget"] = fmt.Sprint(tb.Edges, tb.Base, tb.After)
		ms, err := SolveMulti(ctx, fx.g, []ugraph.NodeID{fx.s, 1}, []ugraph.NodeID{fx.t, 2}, AggAvg, MethodBE, opt)
		if err != nil {
			t.Fatal(err)
		}
		got["multi-avg"] = fmt.Sprint(ms.Edges, ms.Base, ms.After)
		for _, k := range []string{"be", "ip", "total-budget", "multi-avg"} {
			key := fx.name + "/" + k
			if got[k] != wantRepeatedCandidates[key] {
				t.Errorf("%s: %s, want %s", key, got[k], wantRepeatedCandidates[key])
			}
		}
	}
}
