package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// engineTestGraph is a deterministic mid-size test graph shared by the
// engine differential tests.
func engineTestGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := LoadDataset("lastfm", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameSolution(a, b Solution) bool {
	if a.Method != b.Method || a.Base != b.Base || a.After != b.After || a.Gain != b.Gain ||
		a.CandidateCount != b.CandidateCount || a.PathCount != b.PathCount || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// TestEngineMatchesLegacySolve is the headline differential: for the same
// Options, Engine.Solve must return a Solution bit-identical to the legacy
// free function — serial and parallel, across methods.
func TestEngineMatchesLegacySolve(t *testing.T) {
	g := engineTestGraph(t)
	for _, workers := range []int{0, 4} {
		for _, method := range []Method{MethodBE, MethodIndividualTopK, MethodMRP} {
			opt := Options{K: 2, Z: 300, Seed: 9, R: 8, L: 8, Workers: workers}
			want, err := Solve(g, 0, 39, method, opt)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(g, WithSolverDefaults(opt))
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Solve(context.Background(), Request{S: 0, T: 39, Method: method})
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(want, got) {
				t.Fatalf("workers=%d method=%s: engine diverged from legacy:\nlegacy %+v\nengine %+v",
					workers, method, want, got)
			}
			// A second engine call must reproduce the answer exactly
			// (stateless serving semantics), even though the first call
			// warmed the shared sampler pool.
			again, err := eng.Solve(context.Background(), Request{S: 0, T: 39, Method: method})
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(got, again) {
				t.Fatalf("workers=%d method=%s: engine is not stateless: %+v vs %+v", workers, method, got, again)
			}
		}
	}
}

// TestEngineMatchesLegacyMulti is the Problem 4 differential.
func TestEngineMatchesLegacyMulti(t *testing.T) {
	g := engineTestGraph(t)
	mqs := MultiQueries(g, 1, 3, 7)
	if len(mqs) == 0 {
		t.Skip("no multi query on tiny sample")
	}
	opt := Options{K: 3, Z: 200, Seed: 5, R: 8, L: 6, Workers: 2}
	want, err := SolveMulti(g, mqs[0].Sources, mqs[0].Targets, AggAvg, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SolveMulti(context.Background(), MultiRequest{
		Sources: mqs[0].Sources, Targets: mqs[0].Targets, Aggregate: AggAvg, Method: MethodBE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Base != got.Base || want.After != got.After || len(want.Edges) != len(got.Edges) {
		t.Fatalf("engine multi diverged from legacy:\nlegacy %+v\nengine %+v", want, got)
	}
}

// TestEngineEstimateMatchesSamplers: Engine.Estimate must reproduce what
// an equally configured standalone sampler returns on its first call, and
// the engine must answer every estimation kind and total-budget query
// bit-identically at Workers 0 (GOMAXPROCS) and 1.
func TestEngineEstimateMatchesSamplers(t *testing.T) {
	g := engineTestGraph(t)
	const z, seed = 400, 21
	ps, err := NewParallelSampler("rss", z, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.Reliability(g, 0, 17)
	queries := []Query{
		{Kind: QueryEstimate, S: 0, T: 17},
		{Kind: QueryEstimateMany, Pairs: []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}, {S: 4, T: 4}, {S: 7, T: 31}}},
		{Kind: QueryEstimate, S: 0, T: 17, Options: &Options{Precision: 0.02}},
		{Kind: QueryTotalBudget, S: 0, T: 17, Budget: 1, Options: &Options{K: 2, R: 8, L: 8}},
	}
	results := map[int][]Result{}
	for _, workers := range []int{1, 0} {
		eng, err := NewEngine(g, WithSamplerKind("rss"), WithSampleSize(z), WithSeed(seed), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Estimate(context.Background(), 0, 17)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: engine estimate %v != sampler first call %v", workers, got, want)
		}
		// Repeated estimates are deterministic (fresh call-state per request).
		again, err := eng.Estimate(context.Background(), 0, 17)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatalf("workers=%d: engine estimate not stateless: %v then %v", workers, got, again)
		}
		for _, q := range queries {
			res, err := eng.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			results[workers] = append(results[workers], stripTimings(res))
		}
	}
	for i, q := range queries {
		if !reflect.DeepEqual(results[0][i], results[1][i]) {
			t.Errorf("%s query %d: workers=0 %+v != workers=1 %+v", q.Kind, i, results[0][i], results[1][i])
		}
	}
}

// TestEngineEstimateManyDeterministic: batched estimation is reproducible
// and matches the standalone batch sampler.
func TestEngineEstimateManyDeterministic(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSamplerKind("mc"), WithSampleSize(300), WithSeed(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}, {S: 4, T: 4}}
	a, err := eng.EstimateMany(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.EstimateMany(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("EstimateMany not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[2] != 1 {
		t.Fatalf("s==t pair estimated %v, want 1", a[2])
	}
	ps, err := NewParallelSampler("mc", 300, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.EstimateMany(g, queries)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("engine EstimateMany[%d] = %v, sampler = %v", i, a[i], want[i])
		}
	}
}

// TestEngineDeadlineInsideEstimateMany: an expired deadline must surface
// as a wrapped context.DeadlineExceeded.
func TestEngineDeadlineInsideEstimateMany(t *testing.T) {
	g := engineTestGraph(t)
	for _, workers := range []int{0, 2} {
		eng, err := NewEngine(g, WithSampleSize(10_000_000), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		queries := []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}}
		start := time.Now()
		_, err = eng.EstimateMany(ctx, queries)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers=%d: expired deadline took %v to surface", workers, elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: error %v does not wrap context.DeadlineExceeded", workers, err)
		}
	}
}

// TestEngineCancellationMidSolve cancels shortly after the solve starts:
// the engine must return promptly with a wrapped context.Canceled and a
// well-formed partial solution.
func TestEngineCancellationMidSolve(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 4, Z: 2_000_000, Seed: 2, R: 30, L: 10}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sol, err := eng.Solve(ctx, Request{S: 0, T: 39, Method: MethodHillClimbing})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("solve finished before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to land", elapsed)
	}
	if len(sol.Edges) > 4 {
		t.Fatalf("partial solution violates budget: %v", sol.Edges)
	}
}

// TestEngineNoPath: the Engine surface maps a path-free ip/be outcome to
// ErrNoPath, while the legacy free function keeps returning an empty
// solution without error.
func TestEngineNoPath(t *testing.T) {
	g := NewGraph(4, false)
	g.MustAddEdge(0, 1, 0.9) // {0,1} and {2,3} are disconnected components
	g.MustAddEdge(2, 3, 0.9)
	opt := Options{K: 1, Z: 50, Seed: 1, Candidates: []Edge{}}
	legacy, err := Solve(g, 0, 3, MethodBE, opt)
	if err != nil {
		t.Fatalf("legacy Solve errored: %v", err)
	}
	if len(legacy.Edges) != 0 {
		t.Fatalf("legacy Solve invented edges: %v", legacy.Edges)
	}
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Solve(context.Background(), Request{S: 0, T: 3, Method: MethodBE})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("engine error %v does not wrap ErrNoPath", err)
	}
}

// TestEngineProgressEvents: a Solve must report elimination, path
// extraction and per-round selection progress in pipeline order.
func TestEngineProgressEvents(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 2, Z: 200, Seed: 9, R: 8, L: 8}))
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	_, err = eng.Solve(context.Background(), Request{
		S: 0, T: 39, Method: MethodBE,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("expected eliminate/paths/select/evaluate events, got %v", events)
	}
	if events[0].Stage != StageEliminate || events[0].Candidates == 0 {
		t.Fatalf("first event is not a populated eliminate: %+v", events[0])
	}
	seenPaths, seenSelect, seenEval := false, false, false
	for _, ev := range events[1:] {
		switch ev.Stage {
		case StagePaths:
			seenPaths = true
			if ev.Paths == 0 {
				t.Fatalf("paths event with zero paths: %+v", ev)
			}
		case StageSelect:
			seenSelect = true
			if ev.Round == 0 || ev.Total == 0 {
				t.Fatalf("select event without round bookkeeping: %+v", ev)
			}
		case StageEvaluate:
			seenEval = true
		}
	}
	if !seenPaths || !seenSelect || !seenEval {
		t.Fatalf("missing stages (paths=%v select=%v eval=%v): %v", seenPaths, seenSelect, seenEval, events)
	}
}

// TestEngineRequestOverrides: per-request Options replace solver
// parameters while inheriting the engine's sampler configuration.
func TestEngineRequestOverrides(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 1, Z: 200, Seed: 9, R: 8, L: 8, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := eng.Solve(context.Background(), Request{
		S: 0, T: 39, Method: MethodBE, Options: &Options{K: 3, R: 8, L: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Edges) > 3 {
		t.Fatalf("override budget violated: %v", sol.Edges)
	}
	want, err := Solve(g, 0, 39, MethodBE, Options{K: 3, Z: 200, Seed: 9, R: 8, L: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(want, sol) {
		t.Fatalf("override solve diverged from equivalent legacy call:\nlegacy %+v\nengine %+v", want, sol)
	}
}

// TestTypedNilInterfaceAudit is the engine-wide regression guard for the
// typed-nil hazard: every constructor that reports errors must leave the
// caller with a comparably nil result, never a non-nil interface holding a
// nil concrete pointer.
func TestTypedNilInterfaceAudit(t *testing.T) {
	var s Sampler
	s, err := NewParallelSampler("bogus", 100, 1, 2)
	if err == nil {
		t.Fatal("NewParallelSampler accepted an unknown kind")
	}
	if s != nil {
		t.Fatalf("NewParallelSampler error path produced a typed-nil interface: %#v", s)
	}
	var bs BatchSampler
	bs, err = NewParallelSampler("nope", 100, 1, 2)
	if err == nil {
		t.Fatal("NewParallelSampler accepted an unknown kind")
	}
	if bs != nil {
		t.Fatalf("BatchSampler error path produced a typed-nil interface: %#v", bs)
	}
	eng, err := NewEngine(NewGraph(2, false), WithSamplerKind("bogus"))
	if err == nil {
		t.Fatal("NewEngine accepted an unknown sampler kind")
	}
	if !errors.Is(err, ErrUnknownSampler) {
		t.Fatalf("NewEngine error %v does not wrap ErrUnknownSampler", err)
	}
	if eng != nil {
		t.Fatalf("NewEngine error path returned a non-nil engine: %#v", eng)
	}
	if _, err := NewEngine(nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("NewEngine(nil) error %v does not wrap ErrBadQuery", err)
	}
}

// TestEngineIsolatedFromCallerMutations: the engine clones the graph at
// construction, so callers mutating theirs afterwards cannot perturb
// serving results.
func TestEngineIsolatedFromCallerMutations(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(300), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Estimate(context.Background(), 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetProb(0, 1); err != nil { // caller keeps mutating their graph
		t.Fatal(err)
	}
	after, err := eng.Estimate(context.Background(), 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("caller mutation leaked into the engine: %v -> %v", before, after)
	}
}

// TestEngineSolveTotalBudgetMatchesLegacy is the §9-extension differential.
func TestEngineSolveTotalBudgetMatchesLegacy(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 150, Seed: 5, R: 6, L: 6}
	want, err := SolveTotalBudget(g, 0, 39, 1.0, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SolveTotalBudget(context.Background(), BudgetRequest{S: 0, T: 39, Budget: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if want.Base != got.Base || want.After != got.After || want.Spent != got.Spent || len(want.Edges) != len(got.Edges) {
		t.Fatalf("engine total-budget diverged from legacy:\nlegacy %+v\nengine %+v", want, got)
	}
	if _, err := eng.SolveTotalBudget(context.Background(), BudgetRequest{S: 0, T: 39, Budget: -1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("negative budget error %v does not wrap ErrBudget", err)
	}
}

// TestEngineRejectsNonFiniteBudget pins that a NaN or infinite total
// budget is refused synchronously with ErrBudget by both Run and Submit,
// before any fingerprint, cache lookup or job exists. NaN used to slip
// past the "budget <= 0" check and panic while G+ was built; +Inf
// returned an empty solution.
func TestEngineRejectsNonFiniteBudget(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 2, Z: 150, Seed: 5, R: 6, L: 6}), WithResultCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := Query{Kind: QueryTotalBudget, S: 0, T: 39, Budget: b}
		if _, err := eng.Run(ctx, q); !errors.Is(err, ErrBudget) {
			t.Errorf("Run budget %v: error %v does not wrap ErrBudget", b, err)
		}
		j, err := eng.Submit(ctx, q)
		if !errors.Is(err, ErrBudget) || j != nil {
			t.Errorf("Submit budget %v: job %v, error %v; want a synchronous ErrBudget", b, j, err)
		}
		if _, err := SolveTotalBudget(g, 0, 39, b, Options{K: 2, Z: 150, Seed: 5, R: 6, L: 6}); !errors.Is(err, ErrBudget) {
			t.Errorf("SolveTotalBudget budget %v: error %v does not wrap ErrBudget", b, err)
		}
	}
	st := eng.Stats()
	if st.FailedJobs != 0 || st.CacheLen != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("rejected budgets reached the job queue or cache: %+v", st)
	}
}

// TestEngineSnapshotAndDefaultMethod covers the remaining construction
// surface: the pinned snapshot accessor and the MethodBE default for
// requests that leave Method empty.
func TestEngineSnapshotAndDefaultMethod(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 1, Z: 100, Seed: 3, R: 5, L: 5}))
	if err != nil {
		t.Fatal(err)
	}
	c := eng.Snapshot()
	if c == nil || c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("snapshot shape mismatch: %v vs n=%d m=%d", c, g.N(), g.M())
	}
	if c != eng.Snapshot() {
		t.Fatal("Snapshot is not pinned")
	}
	sol, err := eng.Solve(context.Background(), Request{S: 0, T: 39})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodBE {
		t.Fatalf("default method not applied: got %s", sol.Method)
	}
	// Estimate validation range checks.
	if _, err := eng.Estimate(context.Background(), -1, 3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("negative node error %v does not wrap ErrBadQuery", err)
	}
	if _, err := eng.EstimateMany(context.Background(), []PairQuery{{S: 0, T: 100000}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("out-of-range pair error %v does not wrap ErrBadQuery", err)
	}
	if out, err := eng.EstimateMany(context.Background(), nil); err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestEngineConcurrentQueries exercises the concurrent-use contract under
// the race detector (the CI race job includes this package): many
// goroutines issue mixed Solve/Estimate/EstimateMany queries against one
// engine, and every identical request must return the identical answer
// regardless of interleaving.
func TestEngineConcurrentQueries(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSolverDefaults(Options{K: 2, Z: 150, Seed: 9, R: 6, L: 6, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wantSol, err := eng.Solve(ctx, Request{S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	wantRel, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			for j := 0; j < 3; j++ {
				switch (i + j) % 3 {
				case 0:
					sol, err := eng.Solve(ctx, Request{S: 0, T: 39, Method: MethodBE})
					if err == nil && !sameSolution(wantSol, sol) {
						err = fmt.Errorf("concurrent solve diverged: %+v vs %+v", wantSol, sol)
					}
					if err != nil {
						errs <- err
						return
					}
				case 1:
					rel, err := eng.Estimate(ctx, 0, 17)
					if err == nil && rel != wantRel {
						err = fmt.Errorf("concurrent estimate diverged: %v vs %v", wantRel, rel)
					}
					if err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := eng.EstimateMany(ctx, []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}}); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
