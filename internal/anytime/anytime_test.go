package anytime

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

var allKinds = []string{"mc", "rss", "mcvec"}

// testGraph builds a moderately hard random uncertain graph: large enough
// that precision targets are not hit in one block, small enough that many
// seeds run fast.
func testGraph(r *rand.Rand) *ugraph.Graph {
	n := 10 + r.Intn(20)
	g := ugraph.New(n, r.Intn(2) == 0)
	attempts := 4 * n
	for i := 0; i < attempts; i++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		g.AddEdge(u, v, 0.1+0.8*r.Float64()) //nolint:errcheck // dups/self-loops rejected by design
	}
	return g
}

// smallGraph builds a graph small enough for ExactReliability.
func smallGraph(r *rand.Rand) *ugraph.Graph {
	n := 5 + r.Intn(3)
	g := ugraph.New(n, r.Intn(2) == 0)
	for attempts := 0; attempts < 14 && g.M() < 12; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.6*r.Float64())
	}
	return g
}

// TestAdaptiveIsControllerPrefix pins the schedule-equivalence contract
// for every kind: an adaptive run equals a fixed-budget controller run
// (Precision 0) whose MaxZ is the adaptive run's SamplesUsed — the
// contract RSS satisfies although it is not prefix-continuable at the
// sampler level.
func TestAdaptiveIsControllerPrefix(t *testing.T) {
	r := rng.New(13)
	for _, kind := range allKinds {
		for _, workers := range []int{0, 1, 4} {
			g := testGraph(r)
			c := g.Freeze()
			s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
			cfg := Config{Sampler: kind, Precision: 0.025, MaxZ: 1 << 14, Seed: 99, Workers: workers}
			est, err := Run(context.Background(), c, s, tt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fixedCfg := cfg
			fixedCfg.Precision = 0
			fixedCfg.MaxZ = est.SamplesUsed
			fixed, err := Run(context.Background(), c, s, tt, fixedCfg)
			if err != nil {
				t.Fatal(err)
			}
			if fixed.Point != est.Point || fixed.SamplesUsed != est.SamplesUsed {
				t.Errorf("%s workers=%d: adaptive (%v, %d) != fixed-budget controller (%v, %d)",
					kind, workers, est.Point, est.SamplesUsed, fixed.Point, fixed.SamplesUsed)
			}
			if fixed.StopReason != StopBudget {
				t.Errorf("%s workers=%d: fixed controller stop %q, want %q", kind, workers, fixed.StopReason, StopBudget)
			}
		}
	}
}

// TestShardedInvariantAcrossWorkers: the worker count is pure scheduling
// — every field of the Estimate must be identical at every worker count,
// including 0 and -1 (GOMAXPROCS).
func TestShardedInvariantAcrossWorkers(t *testing.T) {
	r := rng.New(29)
	for _, kind := range allKinds {
		g := testGraph(r)
		c := g.Freeze()
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		var want Estimate
		for i, workers := range []int{1, 0, -1, 2, 4, 16} {
			est, err := Run(context.Background(), c, s, tt, Config{
				Sampler: kind, Precision: 0.03, MaxZ: 1 << 14, Seed: 5, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = est
			} else if est != want {
				t.Errorf("%s: workers=%d estimate %+v != workers=1 %+v", kind, workers, est, want)
			}
		}
	}
}

// TestPrecisionStopsEarly: an easy query (short certain-ish path) must
// stop on precision well under the budget; a precision of 0 must run the
// budget out exactly.
func TestPrecisionStopsEarly(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	c := g.Freeze()
	for _, kind := range allKinds {
		est, err := Run(context.Background(), c, 0, 2, Config{Sampler: kind, Precision: 0.05, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if est.StopReason != StopPrecision {
			t.Errorf("%s: stop %q, want precision", kind, est.StopReason)
		}
		if est.SamplesUsed >= DefaultMaxZ/4 {
			t.Errorf("%s: easy query burned %d samples", kind, est.SamplesUsed)
		}
		if est.Point != 1 || est.Hi != 1 {
			t.Errorf("%s: certain path estimated %+v", kind, est)
		}
		fixed, err := Run(context.Background(), c, 0, 2, Config{Sampler: kind, MaxZ: 2048, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if fixed.StopReason != StopBudget || fixed.SamplesUsed != 2048 {
			t.Errorf("%s: precision-less run stopped (%q, %d), want (budget, 2048)", kind, fixed.StopReason, fixed.SamplesUsed)
		}
	}
}

// TestDeadlineIsAnAnswer: an expired deadline yields a partial estimate
// with StopReason deadline (never an error); cancellation is an error.
func TestDeadlineIsAnAnswer(t *testing.T) {
	r := rng.New(41)
	g := testGraph(r)
	c := g.Freeze()
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, workers := range []int{0, 4} {
		est, err := Run(ctx, c, s, tt, Config{Sampler: "mc", Precision: 0.001, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: deadline returned error %v", workers, err)
		}
		if est.StopReason != StopDeadline {
			t.Errorf("workers=%d: stop %q, want deadline", workers, est.StopReason)
		}
		if est.SamplesUsed <= 0 {
			t.Errorf("workers=%d: deadline estimate drew no samples", workers)
		}
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := Run(cctx, c, s, tt, Config{Sampler: "mc", Seed: 1}); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestSourceEqualsTarget: the certainty short-circuit.
func TestSourceEqualsTarget(t *testing.T) {
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	est, err := Run(context.Background(), g.Freeze(), 2, 2, Config{Sampler: "mc"})
	if err != nil {
		t.Fatal(err)
	}
	want := Estimate{Point: 1, Lo: 1, Hi: 1, StopReason: StopPrecision}
	if est != want {
		t.Errorf("s==t estimate %+v, want %+v", est, want)
	}
}

// TestProgressNarrows: progress events carry monotonically growing sample
// counts and end with the final estimate.
func TestProgressNarrows(t *testing.T) {
	r := rng.New(53)
	g := testGraph(r)
	c := g.Freeze()
	var events []Estimate
	est, err := Run(context.Background(), c, 0, ugraph.NodeID(g.N()-1), Config{
		Sampler: "mcvec", Precision: 0.01, MaxZ: 1 << 14, Seed: 8,
		Progress: func(e Estimate) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].SamplesUsed <= events[i-1].SamplesUsed {
			t.Errorf("event %d samples %d not increasing from %d", i, events[i].SamplesUsed, events[i-1].SamplesUsed)
		}
	}
	if last := events[len(events)-1]; last != est {
		t.Errorf("final event %+v != returned estimate %+v", last, est)
	}
}

// TestUnknownSampler: the kind is validated before any sampling.
func TestUnknownSampler(t *testing.T) {
	g := ugraph.New(2, true)
	g.MustAddEdge(0, 1, 0.5)
	for _, workers := range []int{0, 2} {
		if _, err := Run(context.Background(), g.Freeze(), 0, 1, Config{Sampler: "bogus", Workers: workers}); err == nil {
			t.Errorf("workers=%d: bogus sampler accepted", workers)
		}
	}
}

// TestIntervalCoverage is the statistical acceptance test: over many
// seeds, the served interval must contain the exact reliability at no
// less than (roughly) the stated confidence. 95% nominal coverage over
// 200 trials has a binomial 3-sigma floor around 0.90; both bounds are
// conservative (Wilson at moderate n, Hoeffding always), so observed
// coverage running BELOW 0.90 indicates a real interval bug rather than
// noise.
func TestIntervalCoverage(t *testing.T) {
	r := rng.New(71)
	for _, kind := range []string{"mc", "mcvec"} {
		trials, covered := 0, 0
		for trials < 200 {
			g := smallGraph(r)
			s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
			exact, err := g.ExactReliability(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			est, err := Run(context.Background(), g.Freeze(), s, tt, Config{
				Sampler: kind, Precision: 0.04, MaxZ: 1 << 14, Seed: int64(trials) + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			trials++
			if est.Lo <= exact && exact <= est.Hi {
				covered++
			}
		}
		if rate := float64(covered) / float64(trials); rate < 0.90 {
			t.Errorf("%s: interval covered exact value in %d/%d trials (%.3f), want >= 0.90", kind, covered, trials, rate)
		}
	}
}

// TestIntervalMath sanity-checks the interval helper directly.
func TestIntervalMath(t *testing.T) {
	lo, hi := interval(0, 0, 0.95)
	if lo != 0 || hi != 1 {
		t.Errorf("n=0 interval [%v, %v], want [0, 1]", lo, hi)
	}
	lo, hi = interval(50, 100, 0.95)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("p=0.5 interval [%v, %v] excludes 0.5", lo, hi)
	}
	if hw := (hi - lo) / 2; hw > 0.12 || hw < 0.05 {
		t.Errorf("p=0.5 n=100 half-width %v outside sane range", hw)
	}
	lo, hi = interval(100, 100, 0.95)
	if lo < 0.9 || hi != 1 {
		t.Errorf("p=1 interval [%v, %v], want tight at 1", lo, hi)
	}
	// Tighter intervals at larger n.
	lo1, hi1 := interval(512, 1024, 0.95)
	lo2, hi2 := interval(2048, 4096, 0.95)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("interval did not narrow with n: %v vs %v", hi2-lo2, hi1-lo1)
	}
	// Samples-to-precision sanity: hitting 0.02 half-width near p=0.5
	// needs ~2400 Wilson samples.
	n := 64
	for {
		lo, hi = interval(float64(n)/2, n, 0.95)
		if (hi-lo)/2 <= 0.02 {
			break
		}
		n += 64
	}
	if n < 1500 || n > 4000 {
		t.Errorf("samples to 0.02 half-width at p=0.5: %d, expected ~2400", n)
	}
}

func TestHalfWidth(t *testing.T) {
	e := Estimate{Lo: 0.4, Hi: 0.5}
	if math.Abs(e.HalfWidth()-0.05) > 1e-12 {
		t.Errorf("HalfWidth=%v, want 0.05", e.HalfWidth())
	}
}
