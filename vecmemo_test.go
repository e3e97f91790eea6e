package repro

import (
	"context"
	"sync"
	"testing"
	"time"
)

// memoPairs are engineTestGraph pairs that share sources and targets.
var memoPairs = []PairQuery{{S: 0, T: 17}, {S: 0, T: 23}, {S: 3, T: 23}, {S: 3, T: 17}, {S: 5, T: 17}}

// legacySolves answers memoPairs with the memo-free free Solve.
func legacySolves(t *testing.T, g *Graph, opt Options) []Solution {
	t.Helper()
	out := make([]Solution, len(memoPairs))
	for i, p := range memoPairs {
		sol, err := Solve(g, p.S, p.T, MethodBE, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sol
	}
	return out
}

// TestEngineVectorMemoConcurrent: concurrent solves on one snapshot share
// its vector memo race-free, and every answer equals a memo-free solve.
func TestEngineVectorMemoConcurrent(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 150, Seed: 7, R: 8, L: 8, Workers: 2}
	want := legacySolves(t, g, opt)
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range memoPairs {
				i := (k + w) % len(memoPairs)
				got, err := eng.Solve(context.Background(), Request{S: memoPairs[i].S, T: memoPairs[i].T, Method: MethodBE})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameSolution(got, want[i]) {
					t.Errorf("worker %d pair %v: %+v, want %+v", w, memoPairs[i], got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	st := eng.Stats()
	if st.VectorHits == 0 || st.VectorHits+st.VectorMisses != uint64(8*len(memoPairs)) {
		t.Fatalf("%d vector hits, %d misses over %d solves", st.VectorHits, st.VectorMisses, 4*len(memoPairs))
	}
}

// TestEngineVectorMemoPerEpoch: after Apply, solves sample their vectors
// afresh and answer as an engine built on the mutated graph does; a
// compaction's flat twin of the same epoch keeps the vectors already
// sampled on it.
func TestEngineVectorMemoPerEpoch(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 150, Seed: 7, R: 8, L: 8, Workers: 1}
	ctx := context.Background()
	eng, err := NewEngine(g, WithSolverDefaults(opt), deltaHoldLayers())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	solveAll := func(stage string, want []Solution, wantMisses uint64) {
		t.Helper()
		misses := eng.Stats().VectorMisses
		for i, p := range memoPairs {
			got, err := eng.Solve(ctx, Request{S: p.S, T: p.T, Method: MethodBE})
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(got, want[i]) {
				t.Fatalf("%s: pair %v: %+v, want %+v", stage, p, got, want[i])
			}
		}
		if got := eng.Stats().VectorMisses - misses; got != wantMisses {
			t.Fatalf("%s: %d vector misses, want %d", stage, got, wantMisses)
		}
	}
	// memoPairs has three distinct sources and two distinct targets.
	solveAll("initial epoch", legacySolves(t, g, opt), 5)
	muts := applyTestMutations(t, g)
	if _, err := eng.Apply(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(mutatedClone(t, g, muts), WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	want := make([]Solution, len(memoPairs))
	for i, p := range memoPairs {
		if want[i], err = oracle.Solve(ctx, Request{S: p.S, T: p.T, Method: MethodBE}); err != nil {
			t.Fatal(err)
		}
	}
	solveAll("mutated epoch", want, 5)
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	solveAll("compacted twin", want, 0)
}

// TestEngineVectorMemoCancelled: solves cut short by their context during
// elimination leave nothing behind that changes a later answer.
func TestEngineVectorMemoCancelled(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 150, Seed: 7, R: 8, L: 8, Workers: 1}
	want := legacySolves(t, g, opt)
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, p := range memoPairs {
		if _, err := eng.Solve(cancelled, Request{S: p.S, T: p.T, Method: MethodBE}); err == nil {
			t.Fatalf("pair %d solved on a cancelled context", i)
		}
		// Deadlines land anywhere in the pipeline, elimination included.
		for _, d := range []time.Duration{20 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond} {
			short, stop := context.WithTimeout(context.Background(), d)
			_, _ = eng.Solve(short, Request{S: p.S, T: p.T, Method: MethodBE})
			stop()
		}
	}
	for i, p := range memoPairs {
		got, err := eng.Solve(context.Background(), Request{S: p.S, T: p.T, Method: MethodBE})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(got, want[i]) {
			t.Fatalf("pair %v after cancelled solves: %+v, want %+v", p, got, want[i])
		}
	}
}
