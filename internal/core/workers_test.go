package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

func workersTestGraph(t *testing.T) *ugraph.Graph {
	t.Helper()
	r := rng.New(8)
	g := gen.ErdosRenyi(40, 100, false, r)
	gen.AssignUniform(g, 0.2, 0.8, r)
	return g
}

// TestNewSamplerWorkers pins the Options.Workers contract: every value
// builds a parallel sampler, sized to GOMAXPROCS at Workers <= 0.
func TestNewSamplerWorkers(t *testing.T) {
	for _, workers := range []int{0, -1, 4} {
		smp, err := Options{Workers: workers}.withDefaults().NewSampler(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ps, ok := smp.(*sampling.ParallelSampler)
		if !ok {
			t.Fatalf("Workers=%d built %T, want *sampling.ParallelSampler", workers, smp)
		}
		pool := workers
		if pool <= 0 {
			pool = runtime.GOMAXPROCS(0)
		}
		if ps.Workers() != pool {
			t.Fatalf("Workers=%d: pool size %d, want %d", workers, ps.Workers(), pool)
		}
	}
	if _, err := (Options{Workers: 2, Sampler: "nope"}).NewSampler(context.Background(), 1); err == nil {
		t.Fatal("unknown sampler kind must error")
	}
}

// TestSolveDeterministicAcrossWorkers runs the full single-query pipeline
// (elimination, selection, held-out evaluation) at several pool sizes,
// including 0 and -1 (GOMAXPROCS): a fixed seed must give the identical
// Solution.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	g := workersTestGraph(t)
	base := Options{K: 3, Zeta: 0.5, R: 8, L: 6, Z: 120, Seed: 5}
	for _, method := range []Method{MethodBE, MethodHillClimbing, MethodIndividualTopK} {
		opt := base
		opt.Workers = 1
		ref, err := Solve(context.Background(), g, 0, 39, method, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, -1, 2, 8} {
			opt.Workers = workers
			got, err := Solve(context.Background(), g, 0, 39, method, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Base != ref.Base || got.After != ref.After {
				t.Errorf("%s workers=%d: base/after %v/%v, want %v/%v",
					method, workers, got.Base, got.After, ref.Base, ref.After)
			}
			if len(got.Edges) != len(ref.Edges) {
				t.Fatalf("%s workers=%d: %d edges, want %d", method, workers, len(got.Edges), len(ref.Edges))
			}
			for i := range got.Edges {
				if got.Edges[i] != ref.Edges[i] {
					t.Errorf("%s workers=%d: edge %d = %+v, want %+v", method, workers, i, got.Edges[i], ref.Edges[i])
				}
			}
		}
	}
}

// TestSolveMultiDeterministicAcrossWorkers does the same for the Problem 4
// solver, which exercises the batched pair-reliability matrix path.
func TestSolveMultiDeterministicAcrossWorkers(t *testing.T) {
	g := workersTestGraph(t)
	sources := []ugraph.NodeID{0, 3}
	targets := []ugraph.NodeID{30, 39}
	opt := Options{K: 3, Zeta: 0.5, R: 8, L: 6, Z: 120, Seed: 5, Workers: 1}
	ref, err := SolveMulti(context.Background(), g, sources, targets, AggAvg, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 8} {
		opt.Workers = workers
		got, err := SolveMulti(context.Background(), g, sources, targets, AggAvg, MethodBE, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Base != ref.Base || got.After != ref.After || len(got.Edges) != len(ref.Edges) {
			t.Fatalf("workers=%d diverged: base/after/edges %v/%v/%d, want %v/%v/%d",
				workers, got.Base, got.After, len(got.Edges), ref.Base, ref.After, len(ref.Edges))
		}
	}
}
