package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datasets"
)

// TestListedCandidatesMatchElimination solves BE and IP on 20 lastfm×0.08
// pairs 3–5 hops apart at the engine defaults twice: once with E+ as
// elimination's implicit pair set, and once with Options.Candidates set to
// that same E+ listed, from a fresh elimination sampler (stream 7) as
// Solve builds it. The path stage searches G+ in a different form each
// time (TopLPairs on G, TopL on g.WithEdges), so identical Edges,
// PathCount and CandidateCount pin the two forms against each other
// through batchSelect. Base and After differ by design: listed candidates
// sample Base, which shifts the evaluation stream.
func TestListedCandidatesMatchElimination(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := datasets.Queries(g, 20, 3, 5, 1)
	if len(qs) != 20 {
		t.Fatalf("%d query pairs, want 20", len(qs))
	}
	ctx := context.Background()
	opt := Options{Workers: 1}
	def := opt.withDefaults()
	for i, q := range qs {
		elim, err := def.elimSampler(ctx)
		if err != nil {
			t.Fatal(err)
		}
		listed := opt
		listed.Candidates = candidates.EliminatePairs(g, q.S, q.T, elim, candidates.Options{R: def.R, H: def.H, Zeta: def.Zeta}).List()
		for _, m := range []Method{MethodBE, MethodIP} {
			implicit, err := Solve(ctx, g, q.S, q.T, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			explicit, err := Solve(ctx, g, q.S, q.T, m, listed)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(explicit.Edges, explicit.PathCount, explicit.CandidateCount)
			want := fmt.Sprint(implicit.Edges, implicit.PathCount, implicit.CandidateCount)
			if got != want {
				t.Errorf("pair %d (%d->%d) %s: listed E+ gives %s, elimination %s", i, q.S, q.T, m, got, want)
			}
			if implicit.PathCount == 0 || len(implicit.Edges) == 0 {
				t.Errorf("pair %d (%d->%d) %s: %d paths, %d edges; want a real selection", i, q.S, q.T, m, implicit.PathCount, len(implicit.Edges))
			}
		}
	}
}
