// Package anytime turns the fixed-budget reliability samplers into an
// anytime estimator: samples are drawn in 64-aligned blocks, a running
// confidence interval (Wilson score or Hoeffding bound, whichever is
// tighter) is maintained over the pooled draws, and sampling stops at the
// first of — target half-width reached, sample budget exhausted, or
// context deadline. The caller gets an Estimate carrying the point value,
// the served interval, the samples actually spent and why the run stopped,
// so easy queries finish early and hard queries return honest error bars.
//
// # Determinism
//
// The controller never trades reproducibility for adaptivity. Blocks are
// 64-aligned so mcvec lane blocks never split; the context is polled only
// between blocks, so a block that starts always completes and the drawn
// stream depends only on (seed, block schedule, stop decision). The
// schedule is a fixed 16-shard round-robin — shard i draws from
// rng.SplitSeed(seed, i), rounds hand every shard one 64-block — so the
// result is bit-identical at every worker count, and equal to a
// fixed-budget controller run (Precision 0) whose MaxZ is the adaptive
// run's SamplesUsed. RSS, whose stratified recursion is not
// prefix-continuable, estimates each block independently; its determinism
// contract is the same schedule-equivalence one.
package anytime

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// BlockSize is the sampling granularity: stop conditions are evaluated
// between blocks, and every block is a whole number of mcvec lane words.
const BlockSize = 64

// DefaultMaxZ is the sample-budget cap applied when Config.MaxZ <= 0: high
// enough that precision-bounded queries on hard instances still converge,
// low enough to bound worst-case latency.
const DefaultMaxZ = 65536

// DefaultConfidence is the interval coverage used when Config.Confidence
// is unset.
const DefaultConfidence = 0.95

// shardCount is the fixed number of deterministic sample shards. Like
// sampling.DefaultShards, the shard structure — not the worker count —
// fixes the randomness.
const shardCount = 16

// Stop reasons reported in Estimate.StopReason.
const (
	// StopPrecision: the interval half-width reached Config.Precision.
	StopPrecision = "precision"
	// StopBudget: the MaxZ sample budget was exhausted first.
	StopBudget = "budget"
	// StopDeadline: the context deadline fired between blocks; the
	// estimate pools every sample drawn so far.
	StopDeadline = "deadline"
)

// Estimate is an anytime reliability estimate: the pooled point value,
// the served confidence interval, and how (and how expensively) the run
// stopped.
type Estimate struct {
	Point, Lo, Hi float64
	SamplesUsed   int
	StopReason    string
}

// HalfWidth returns the served interval's half-width.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// ProgressFunc observes the narrowing interval while the controller runs.
// It is called from the controller's goroutine between blocks.
type ProgressFunc func(e Estimate)

// Config parameterizes one anytime run.
type Config struct {
	// Sampler is the estimator kind ("mc", "rss" or "mcvec");
	// empty defaults to "rss", matching the engine default.
	Sampler string
	// Precision is the target interval half-width; <= 0 disables the
	// precision stop, running to MaxZ (the fixed-budget controller mode
	// the determinism differentials compare against).
	Precision float64
	// MaxZ caps the samples drawn; <= 0 selects DefaultMaxZ.
	MaxZ int
	// Seed fixes the sample streams.
	Seed int64
	// Workers is the number of goroutines that run the 16-shard schedule;
	// <= 0 uses GOMAXPROCS, and values above 16 are clamped. Results are
	// bit-identical at every Workers value for a fixed Seed.
	Workers int
	// Confidence is the interval coverage in (0, 1); <= 0 selects
	// DefaultConfidence.
	Confidence float64
	// Progress, when non-nil, observes the narrowing interval.
	Progress ProgressFunc
}

func (cfg Config) withDefaults() Config {
	if cfg.Sampler == "" {
		cfg.Sampler = "rss"
	}
	if cfg.MaxZ <= 0 {
		cfg.MaxZ = DefaultMaxZ
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = DefaultConfidence
	}
	return cfg
}

// interval computes the served confidence interval for x pooled successes
// over n draws: the Wilson score interval or the Hoeffding bound,
// whichever half-width is tighter, clipped to [0, 1]. Wilson adapts to
// the observed rate (tight near 0 and 1); Hoeffding is distribution-free
// and occasionally tighter near p = 1/2 at small n. For RSS the success
// mass is real-valued with variance at most Bernoulli's, so both bounds
// remain valid (conservatively).
func interval(x float64, n int, confidence float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nn := float64(n)
	p := x / nn
	z := math.Sqrt2 * math.Erfinv(confidence)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	whw := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-whw, center+whw
	hhw := math.Sqrt(math.Log(2/(1-confidence)) / (2 * nn))
	if hhw < whw {
		lo, hi = p-hhw, p+hhw
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// newStream constructs a serial block sampler of the configured kind.
// The construction-time budget is irrelevant — blocks carry their own
// sizes — so it is set to BlockSize for the pathological case of the
// sampler being used through its fixed-budget interface.
func newStream(kind string, seed int64) (sampling.BlockSampler, error) {
	smp, err := sampling.NewSerial(kind, BlockSize, seed)
	if err != nil {
		return nil, err
	}
	return smp.(sampling.BlockSampler), nil
}

// stop evaluates the stop conditions for the pooled (hits, drawn) state.
// The returned reason is empty while the run should continue.
func (cfg Config) stop(ctx context.Context, hits float64, drawn int) (Estimate, string, error) {
	lo, hi := interval(hits, drawn, cfg.Confidence)
	est := Estimate{Point: hits / float64(drawn), Lo: lo, Hi: hi, SamplesUsed: drawn}
	if err := ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			return est, StopDeadline, nil
		}
		return Estimate{}, "", err
	}
	if cfg.Precision > 0 && (hi-lo)/2 <= cfg.Precision {
		return est, StopPrecision, nil
	}
	if drawn >= cfg.MaxZ {
		return est, StopBudget, nil
	}
	return est, "", nil
}

// Run estimates R(s, t) on the snapshot under cfg. A context deadline
// that fires mid-run is an answer, not an error: the estimate pools the
// samples drawn so far with StopReason = StopDeadline. Cancellation
// (context.Canceled) propagates as the error with a zero Estimate.
//
// Run drives the fixed 16-shard schedule: every round hands each shard
// one 64-sample block (the final round distributes the remaining budget
// in 64-quanta, filling shards in order, with any sub-block tail on the
// last active shard — legal because it is that shard's final block). Stop
// conditions are evaluated between rounds, so SamplesUsed advances in
// whole rounds and the schedule for a given stop point is identical
// whichever condition fired — the prefix property the differential tests
// pin.
func Run(ctx context.Context, c *ugraph.CSR, s, t ugraph.NodeID, cfg Config) (Estimate, error) {
	cfg = cfg.withDefaults()
	if s == t {
		return Estimate{Point: 1, Lo: 1, Hi: 1, StopReason: StopPrecision}, nil
	}
	streams := make([]sampling.BlockStream, shardCount)
	for i := range streams {
		bs, err := newStream(cfg.Sampler, rng.SplitSeed(cfg.Seed, int64(i)))
		if err != nil {
			return Estimate{}, err
		}
		streams[i] = bs.BeginBlocks(c, s, t)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, shardCount)
	hits := make([]float64, shardCount)
	drawnBy := make([]int, shardCount)
	quota := make([]int, shardCount)
	totalHits, totalDrawn := 0.0, 0
	for {
		rem := cfg.MaxZ - totalDrawn
		for i := range quota {
			q := rem - i*BlockSize
			if q > BlockSize {
				q = BlockSize
			}
			if q < 0 {
				q = 0
			}
			quota[i] = q
		}
		runRound(streams, quota, hits, drawnBy, workers)
		// Merge in fixed shard order; the sums are the same exact floats
		// at any worker count because block hit counts are integer-valued
		// (mc/mcvec) or per-shard-deterministic (rss) and the
		// accumulation order is fixed.
		totalHits, totalDrawn = 0, 0
		for i := range hits {
			totalHits += hits[i]
			totalDrawn += drawnBy[i]
		}
		est, reason, err := cfg.stop(ctx, totalHits, totalDrawn)
		if err != nil {
			return Estimate{}, err
		}
		if reason != "" {
			est.StopReason = reason
			if cfg.Progress != nil {
				cfg.Progress(est)
			}
			return est, nil
		}
		if cfg.Progress != nil {
			cfg.Progress(est)
		}
	}
}

// runRound draws one round: shard i's quota[i] samples on its own stream.
// Work-stealing over the shard indices keeps results independent of the
// worker count — each shard is touched by exactly one goroutine per round
// and accumulates into its own slot.
func runRound(streams []sampling.BlockStream, quota []int, hits []float64, drawn []int, workers int) {
	if workers <= 1 {
		for i, st := range streams {
			if quota[i] > 0 {
				h, d := st.SampleBlock(quota[i])
				hits[i] += h
				drawn[i] += d
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(streams) {
					return
				}
				if quota[i] > 0 {
					h, d := streams[i].SampleBlock(quota[i])
					hits[i] += h
					drawn[i] += d
				}
			}
		}()
	}
	wg.Wait()
}
