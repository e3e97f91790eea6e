package sampling

import (
	"context"
	"runtime"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// EstimateManySerial evaluates a batch of (s, t) queries with full-budget
// serial estimates, fanned out across workers leasing their samplers from
// the shared warm pool. It is the Workers=0 counterpart of
// ParallelSampler.EstimateMany: where that path shards each query's budget,
// this one keeps every estimate an undivided serial stream — query i always
// draws from rng.SplitSeed(seed, i) — and parallelizes only across queries.
// Results are therefore bit-identical at any worker count (including the
// in-order workers=1 execution, which the differential tests pin), and
// deterministic in (seed, i) alone.
//
// Cancellation is cooperative: leased samplers poll ctx between sample
// blocks, remaining queries are skipped once it fires, and the partial
// output is garbage — callers must observe ctx.Err() and discard it, as
// with ParallelSampler's fan-outs (out-of-order scheduling means there is
// no meaningful completed prefix to salvage).
func EstimateManySerial(ctx context.Context, ss *SharedScratch, c *ugraph.CSR, queries []PairQuery, z int, seed int64, workers int) []float64 {
	if len(queries) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cc canceller
	cc.SetContext(ctx)
	out := make([]float64, len(queries))
	ss.fanOut(&cc, workers, len(queries), func(smp Sampler, i int) {
		q := queries[i]
		if q.S == q.T {
			out[i] = 1
			return
		}
		smp.Reseed(rng.SplitSeed(seed, int64(i)))
		smp.SetSampleSize(z)
		out[i] = smp.ReliabilityCSR(c, q.S, q.T)
	})
	return out
}
