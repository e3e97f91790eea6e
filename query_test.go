package repro

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestQueryKeyCanonical: queries that resolve to the same computation must
// fingerprint identically; queries that differ in any result-affecting
// field must not.
func TestQueryKeyCanonical(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8}))
	if err != nil {
		t.Fatal(err)
	}
	key := func(q Query) string {
		t.Helper()
		cq, err := eng.Canonicalize(q)
		if err != nil {
			t.Fatal(err)
		}
		return cq.Key()
	}

	base := Query{Kind: QuerySolve, S: 0, T: 39}
	if key(base) != key(base) {
		t.Fatal("Key is not deterministic")
	}
	// Explicitly spelling out the engine defaults must not change the key.
	explicit := Query{Kind: QuerySolve, S: 0, T: 39, Method: MethodBE,
		Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8}}
	if key(base) != key(explicit) {
		t.Fatal("explicit engine defaults changed the fingerprint")
	}
	// Progress callbacks are not part of the fingerprint.
	withProgress := base
	withProgress.Progress = func(ProgressEvent) {}
	if key(base) != key(withProgress) {
		t.Fatal("progress callback changed the fingerprint")
	}
	// Every worker count gives bit-identical results, so none of them
	// moves the key: 0 (GOMAXPROCS) and 8 fingerprint like the default.
	w0 := Query{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, Workers: 0}}
	w8 := Query{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, Workers: 8}}
	if key(w0) != key(w8) || key(base) != key(w8) {
		t.Fatal("worker counts must fingerprint identically")
	}
	// Every result-affecting change must move the key.
	variants := []Query{
		{Kind: QuerySolve, S: 0, T: 40},
		{Kind: QuerySolve, S: 1, T: 39},
		{Kind: QuerySolve, S: 0, T: 39, Method: MethodIP},
		{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 3, Z: 300, Seed: 9, R: 8, L: 8}},
		{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 400, Seed: 9, R: 8, L: 8}},
		{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 10, R: 8, L: 8}},
		{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 9, L: 8}},
		{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, Sampler: "mc"}},
		{Kind: QueryEstimate, S: 0, T: 39},
		{Kind: QueryTotalBudget, S: 0, T: 39, Budget: 1},
	}
	seen := map[string]int{key(base): -1}
	for i, v := range variants {
		k := key(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[k] = i
	}
	// Kind-irrelevant fields must be stripped: an estimate ignores solver
	// parameters.
	estA := Query{Kind: QueryEstimate, S: 0, T: 17}
	estB := Query{Kind: QueryEstimate, S: 0, T: 17, Method: MethodIP, Budget: 3,
		Options: &Options{K: 7, Z: 300, Seed: 9, R: 2, L: 2}}
	if key(estA) != key(estB) {
		t.Fatal("solver fields leaked into an estimate fingerprint")
	}
	// Nil vs explicitly-empty candidate sets are different computations
	// (elimination vs no candidates) and must fingerprint differently.
	nilCands := Query{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8}}
	emptyCands := Query{Kind: QuerySolve, S: 0, T: 39, Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, Candidates: []Edge{}}}
	if key(nilCands) == key(emptyCands) {
		t.Fatal("nil and empty candidate sets fingerprint identically")
	}
}

// TestNegativeHopBoundCanonicalizes: every H <= 0 disables the hop
// constraint, so a negative bound must canonicalize to 0 and share H=0's
// fingerprint (and therefore its cache entry).
func TestNegativeHopBoundCanonicalizes(t *testing.T) {
	eng, err := NewEngine(engineTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	key := func(h int) string {
		cq, err := eng.Canonicalize(Query{Kind: QuerySolve, S: 0, T: 39,
			Options: &Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, H: h}})
		if err != nil {
			t.Fatal(err)
		}
		if cq.Options.H < 0 {
			t.Fatalf("h=%d canonicalized to H=%d", h, cq.Options.H)
		}
		return cq.Key()
	}
	if key(-3) != key(0) {
		t.Fatal("h=-3 and h=0 run identical work but fingerprint apart")
	}
	if key(0) == key(2) {
		t.Fatal("an active hop bound must move the fingerprint")
	}
}

// TestCanonicalizeCopiesCandidates: a canonicalized query must be isolated
// from later caller mutations of the Candidates slice (queued jobs hold it
// across an arbitrary delay), and explicit empty sets must stay non-nil
// (nil means "run elimination").
func TestCanonicalizeCopiesCandidates(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Edge{{U: 0, V: 39, P: 0.5}}
	cq, err := eng.Canonicalize(Query{Kind: QuerySolve, S: 0, T: 39,
		Options: &Options{K: 1, Z: 100, Candidates: cands}})
	if err != nil {
		t.Fatal(err)
	}
	cands[0] = Edge{U: 7, V: 8, P: 0.1} // caller scribbles after submit
	if cq.Options.Candidates[0] != (Edge{U: 0, V: 39, P: 0.5}) {
		t.Fatalf("caller mutation leaked into the canonical query: %+v", cq.Options.Candidates)
	}
	empty, err := eng.Canonicalize(Query{Kind: QuerySolve, S: 0, T: 39,
		Options: &Options{K: 1, Z: 100, Candidates: []Edge{}}})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Options.Candidates == nil {
		t.Fatal("explicit empty candidate set collapsed to nil")
	}
}

// TestRunDispatchMatchesTypedMethods: Engine.Run must serve all five kinds
// with results identical to the typed wrappers.
func TestRunDispatchMatchesTypedMethods(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 200, Seed: 9, R: 8, L: 8}
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	wantSol, err := eng.Solve(ctx, Request{S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, Query{Kind: QuerySolve, S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != QuerySolve || !sameSolution(wantSol, res.Solution) {
		t.Fatalf("Run solve diverged: %+v vs %+v", res.Solution, wantSol)
	}

	mqs := MultiQueries(g, 1, 3, 7)
	if len(mqs) > 0 {
		wantMulti, err := eng.SolveMulti(ctx, MultiRequest{Sources: mqs[0].Sources, Targets: mqs[0].Targets})
		if err != nil {
			t.Fatal(err)
		}
		res, err = eng.Run(ctx, Query{Kind: QueryMulti, Sources: mqs[0].Sources, Targets: mqs[0].Targets})
		if err != nil {
			t.Fatal(err)
		}
		if res.Multi.Base != wantMulti.Base || res.Multi.After != wantMulti.After ||
			len(res.Multi.Edges) != len(wantMulti.Edges) {
			t.Fatalf("Run multi diverged: %+v vs %+v", res.Multi, wantMulti)
		}
	}

	wantTB, err := eng.SolveTotalBudget(ctx, BudgetRequest{S: 0, T: 39, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run(ctx, Query{Kind: QueryTotalBudget, S: 0, T: 39, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBudget.After != wantTB.After || res.TotalBudget.Spent != wantTB.Spent {
		t.Fatalf("Run total-budget diverged: %+v vs %+v", res.TotalBudget, wantTB)
	}

	wantRel, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run(ctx, Query{Kind: QueryEstimate, S: 0, T: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != wantRel {
		t.Fatalf("Run estimate diverged: %v vs %v", res.Reliability, wantRel)
	}

	pairs := []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}, {S: 4, T: 4}}
	wantRels, err := eng.EstimateMany(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run(ctx, Query{Kind: QueryEstimateMany, Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRels {
		if res.Reliabilities[i] != wantRels[i] {
			t.Fatalf("Run estimate-many[%d] diverged: %v vs %v", i, res.Reliabilities[i], wantRels[i])
		}
	}

	if _, err := eng.Run(ctx, Query{Kind: "bogus"}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown kind error %v does not wrap ErrBadQuery", err)
	}
	if _, err := eng.Run(ctx, Query{Kind: QueryEstimate, S: 0, T: 17,
		Options: &Options{Sampler: "bogus"}}); !errors.Is(err, ErrUnknownSampler) {
		t.Fatalf("unknown sampler error %v does not wrap ErrUnknownSampler", err)
	}
}

// TestInvalidProbabilitiesAreBadQueries: a ζ or candidate probability the
// solvers cannot put on an edge (NaN or above 1), or a candidate endpoint
// outside the graph, is rejected up front with ErrBadQuery, for every
// solver kind and through both Run and Submit, and never reaches the
// result cache — each used to panic while building G+.
func TestInvalidProbabilitiesAreBadQueries(t *testing.T) {
	eng, err := NewEngine(engineTestGraph(t), WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bad := map[string]Options{
		"zeta 1.5":       {K: 2, Z: 50, Zeta: 1.5},
		"zeta NaN":       {K: 2, Z: 50, Zeta: math.NaN()},
		"zeta +Inf":      {K: 2, Z: 50, Zeta: math.Inf(1)},
		"candidate P":    {K: 2, Z: 50, Candidates: []Edge{{U: 0, V: 39, P: 2}}},
		"candidate node": {K: 2, Z: 50, Candidates: []Edge{{U: 0, V: 1 << 20, P: 0.5}}},
	}
	for name, opt := range bad {
		for _, q := range []Query{
			{Kind: QuerySolve, S: 0, T: 39},
			{Kind: QueryMulti, Sources: []NodeID{0, 1}, Targets: []NodeID{39}},
			{Kind: QueryTotalBudget, S: 0, T: 39, Budget: 1},
		} {
			opt := opt
			q.Options = &opt
			if _, err := eng.Run(context.Background(), q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("%s %s: Run error %v, want ErrBadQuery", name, q.Kind, err)
			}
			if _, err := eng.Submit(context.Background(), q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("%s %s: Submit error %v, want ErrBadQuery", name, q.Kind, err)
			}
		}
	}
	if st := eng.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("invalid queries reached the cache: %+v", st)
	}
}

// TestUnknownSamplerMethodAggregateRejectedUpFront: a solve, multi or
// total-budget query naming a sampler kind the engine does not build —
// including the retired "lazy" — or an unknown method or aggregate is
// rejected synchronously by Canonicalize, Run and Submit, before any job
// is counted, queued or cached. Each used to be accepted by Submit and
// then fail on the job goroutine.
func TestUnknownSamplerMethodAggregateRejectedUpFront(t *testing.T) {
	eng, err := NewEngine(engineTestGraph(t), WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	check := func(name string, q Query, want error) {
		t.Helper()
		if _, err := eng.Canonicalize(q); !errors.Is(err, want) {
			t.Errorf("%s: Canonicalize error %v, want %v", name, err, want)
		}
		if _, err := eng.Run(ctx, q); !errors.Is(err, want) {
			t.Errorf("%s: Run error %v, want %v", name, err, want)
		}
		if j, err := eng.Submit(ctx, q); !errors.Is(err, want) || j != nil {
			t.Errorf("%s: Submit returned a job: %v, error %v, want %v", name, j != nil, err, want)
		}
	}
	for _, kind := range []string{"bogus", "lazy"} {
		for _, q := range []Query{
			{Kind: QuerySolve, S: 0, T: 39},
			{Kind: QueryMulti, Sources: []NodeID{0, 1}, Targets: []NodeID{39}},
			{Kind: QueryTotalBudget, S: 0, T: 39, Budget: 1},
		} {
			q.Options = &Options{K: 2, Z: 50, Sampler: kind}
			check(string(q.Kind)+" sampler "+kind, q, ErrUnknownSampler)
		}
	}
	check("solve method", Query{Kind: QuerySolve, S: 0, T: 39, Method: "bogus"}, ErrUnknownMethod)
	check("multi method", Query{Kind: QueryMulti, Sources: []NodeID{0}, Targets: []NodeID{39},
		Method: MethodIP}, ErrUnknownMethod)
	check("multi aggregate", Query{Kind: QueryMulti, Sources: []NodeID{0}, Targets: []NodeID{39},
		Aggregate: "median"}, ErrBadQuery)
	st := eng.Stats()
	if st.SubmittedJobs != 0 || st.FailedJobs != 0 || st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheLen != 0 {
		t.Fatalf("rejected queries reached the job or cache layer: %+v", st)
	}
}
