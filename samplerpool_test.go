package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestEnginesShareSamplerPools is the cross-engine differential for the
// process-wide sampler pools: two engines on different graphs and
// estimator kinds (lastfm×0.08 on rss, the larger generated random2×0.08
// on mcvec) lease from the same per-kind pools, and both lease
// elimination's mcvec samplers. Interleaved concurrent BE solves and
// estimates on both engines must return answers bit-identical to the ones
// each engine gave alone, before any interleaving.
func TestEnginesShareSamplerPools(t *testing.T) {
	type engineCase struct {
		eng   *Engine
		pairs []EvalQuery
		sols  []Solution
		rels  []float64
	}
	build := func(dataset, kind string) *engineCase {
		g, err := LoadDataset(dataset, 0.08, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(g, WithSolverDefaults(Options{K: 2, Z: 200, R: 20, L: 8, Workers: 2}), WithSamplerKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		pairs := Queries(g, 3, 3, 5, 1)
		if len(pairs) != 3 {
			t.Fatalf("%s: %d query pairs, want 3", dataset, len(pairs))
		}
		return &engineCase{eng: eng, pairs: pairs}
	}
	ctx := context.Background()
	cases := []*engineCase{build("lastfm", "rss"), build("random2", "mcvec")}
	if cases[1].eng.Snapshot().N() <= cases[0].eng.Snapshot().N() {
		t.Fatal("the mcvec engine's graph is not the larger one")
	}
	for _, c := range cases {
		for _, q := range c.pairs {
			sol, err := c.eng.Solve(ctx, Request{S: q.S, T: q.T, Method: MethodBE})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := c.eng.Estimate(ctx, q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			c.sols, c.rels = append(c.sols, sol), append(c.rels, rel)
		}
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks every (engine, pair, solve|estimate) job
			// from its own offset, so the engines' calls interleave.
			const jobs = 2 * 3 * 2
			for k := 0; k < jobs; k++ {
				j := (k + 3*w) % jobs
				c, i := cases[j/6], j%6/2
				q := c.pairs[i]
				if j%2 == 0 {
					sol, err := c.eng.Solve(ctx, Request{S: q.S, T: q.T, Method: MethodBE})
					if err == nil && !sameSolution(sol, c.sols[i]) {
						err = fmt.Errorf("%s solve %d-%d diverged: %+v vs %+v", c.eng.opt.Sampler, q.S, q.T, sol, c.sols[i])
					}
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				rel, err := c.eng.Estimate(ctx, q.S, q.T)
				if err == nil && rel != c.rels[i] {
					err = fmt.Errorf("%s estimate %d-%d diverged: %v vs %v", c.eng.opt.Sampler, q.S, q.T, rel, c.rels[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
