package sampling

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ugraph"
)

// TestContextBindingPreservesEstimates pins the central cancellation
// invariant: binding a live (but never fired) context changes nothing —
// the ctx checks consume no randomness, so estimates are bit-identical to
// an unbound sampler for every estimator kind, serial and parallel.
func TestContextBindingPreservesEstimates(t *testing.T) {
	g := benchGraph(256, false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(255)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, kind := range []string{"mc", "rss"} {
		plain, err := NewSerial(kind, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := NewSerial(kind, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		bound.SetContext(ctx)
		for call := 0; call < 3; call++ {
			want := plain.Reliability(g, s, tt)
			got := bound.Reliability(g, s, tt)
			if got != want {
				t.Fatalf("%s call %d: bound %v != unbound %v", kind, call, got, want)
			}
		}
		// Vector paths share the same contract.
		want := plain.ReliabilityFrom(g, s)
		got := bound.ReliabilityFrom(g, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s ReliabilityFrom[%d]: bound %v != unbound %v", kind, i, got[i], want[i])
			}
		}

		pPlain, err := NewParallel(kind, 400, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		pBound, err := NewParallel(kind, 400, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		pBound.SetContext(ctx)
		if want, got := pPlain.Reliability(g, s, tt), pBound.Reliability(g, s, tt); got != want {
			t.Fatalf("%s parallel: bound %v != unbound %v", kind, got, want)
		}
	}
}

// TestBackgroundContextIsDropped: binding a never-cancellable context must
// behave exactly like no binding (the normalization keeps the hot loop on
// the nil fast path).
func TestBackgroundContextIsDropped(t *testing.T) {
	mc := NewMonteCarlo(10, 1)
	mc.SetContext(context.Background())
	if mc.ctx != nil {
		t.Fatal("Background context was not normalized to nil")
	}
	mc.SetContext(context.TODO())
	if mc.ctx != nil {
		t.Fatal("TODO context was not normalized to nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mc.SetContext(ctx)
	if mc.ctx == nil {
		t.Fatal("cancellable context was dropped")
	}
	mc.SetContext(nil)
	if mc.ctx != nil {
		t.Fatal("nil did not clear the binding")
	}
}

// TestPreCancelledContextReturnsImmediately: with the context already
// fired, an estimate with an enormous budget must return without drawing a
// full budget's worth of samples.
func TestPreCancelledContextReturnsImmediately(t *testing.T) {
	g := benchGraph(512, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"mc", "rss"} {
		smp, err := NewSerial(kind, 50_000_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		smp.SetContext(ctx)
		start := time.Now()
		rel := smp.Reliability(g, 0, 511)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s: cancelled estimate took %v", kind, elapsed)
		}
		if rel < 0 || rel > 1 {
			t.Fatalf("%s: cancelled estimate out of range: %v", kind, rel)
		}
	}
}

// TestMidFlightCancellationStopsSampling cancels while a large estimate is
// running and checks the sampler comes back long before the full budget
// would complete.
func TestMidFlightCancellationStopsSampling(t *testing.T) {
	g := benchGraph(512, false)
	mc := NewMonteCarlo(50_000_000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	mc.SetContext(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	mc.Reliability(g, 0, 511)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel-during-estimate took %v", elapsed)
	}
}

// TestParallelCancellationSkipsShards: a cancelled parallel batched call
// must return promptly even with a large (query, shard) fan-out.
func TestParallelCancellationSkipsShards(t *testing.T) {
	g := benchGraph(512, false)
	ps, err := NewParallel("mc", 1_000_000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps.SetContext(ctx)
	queries := make([]PairQuery, 32)
	for i := range queries {
		queries[i] = PairQuery{S: 0, T: ugraph.NodeID(256 + i)}
	}
	start := time.Now()
	out := ps.EstimateMany(g, queries)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled EstimateMany took %v", elapsed)
	}
	if len(out) != len(queries) {
		t.Fatalf("EstimateMany returned %d results, want %d (garbage is fine, shape is not)", len(out), len(queries))
	}
}

// TestNewSerialTypedNil: the error path must yield a true nil interface —
// the typed-nil regression guard for the serial constructor.
func TestNewSerialTypedNil(t *testing.T) {
	smp, err := NewSerial("bogus", 10, 1)
	if err == nil {
		t.Fatal("NewSerial accepted an unknown kind")
	}
	if smp != nil {
		t.Fatalf("NewSerial error path returned non-nil interface: %#v", smp)
	}
}

// TestBoundSamplerYields pins the scheduling half of the block check: on
// one processor, a goroutine made runnable just before a bound estimate
// runs while the estimate is still in flight, although the estimate is far
// shorter than the runtime's 10 ms preemption tick.
func TestBoundSamplerYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := benchGraph(256, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		smp, err := NewSerial(kind, 1024, 7)
		if err != nil {
			t.Fatal(err)
		}
		smp.SetContext(ctx)
		smp.Reliability(g, 0, 255) // warm up: a first call's allocations may reschedule
		if !ranDuring(func() { smp.Reliability(g, 0, 255) }) {
			t.Errorf("%s: a runnable goroutine waited for the whole bound estimate", kind)
		}
	}
}

// ranDuring reports whether a goroutine started just before fn ran before
// fn returned.
func ranDuring(fn func()) bool {
	var finished, early atomic.Bool
	done := make(chan struct{})
	go func() {
		early.Store(!finished.Load())
		close(done)
	}()
	fn()
	finished.Store(true)
	<-done
	return early.Load()
}
