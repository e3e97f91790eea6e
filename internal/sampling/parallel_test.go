package sampling

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

var parallelKinds = []string{"mc", "rss"}

func newParallelT(t *testing.T, kind string, z int, seed int64, workers int) *ParallelSampler {
	t.Helper()
	ps, err := NewParallel(kind, z, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestParallelDeterministicAcrossWorkers is the core contract: for a fixed
// seed, every estimate — scalar, vector and batched — is bit-identical at
// any worker count, over a sequence of calls.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(77)
	g := randomSmallGraph(r, false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	queries := []PairQuery{{S: s, T: tt}, {S: tt, T: s}, {S: s, T: s}}
	cands := []ugraph.Edge{{U: 0, V: ugraph.NodeID(g.N() - 1), P: 0.5}, {U: 1, V: 2, P: 0.7}}
	for _, kind := range parallelKinds {
		base := newParallelT(t, kind, 333, 42, 1)
		for _, workers := range []int{0, -1, 2, 4, 8} {
			base.Reseed(42) // replay the same call sequence per worker count
			ps := newParallelT(t, kind, 333, 42, workers)
			// Interleave call types so the call counter is exercised.
			for round := 0; round < 3; round++ {
				if a, b := base.Reliability(g, s, tt), ps.Reliability(g, s, tt); a != b {
					t.Fatalf("%s round %d: Reliability w1=%v w%d=%v", kind, round, a, workers, b)
				}
				if a, b := base.ReliabilityFrom(g, s), ps.ReliabilityFrom(g, s); !equalVec(a, b) {
					t.Fatalf("%s round %d: ReliabilityFrom differs at %d workers", kind, round, workers)
				}
				if a, b := base.ReliabilityTo(g, tt), ps.ReliabilityTo(g, tt); !equalVec(a, b) {
					t.Fatalf("%s round %d: ReliabilityTo differs at %d workers", kind, round, workers)
				}
				if a, b := base.EstimateMany(g, queries), ps.EstimateMany(g, queries); !equalVec(a, b) {
					t.Fatalf("%s round %d: EstimateMany differs at %d workers", kind, round, workers)
				}
				if a, b := base.EstimateEdges(g, s, tt, cands), ps.EstimateEdges(g, s, tt, cands); !equalVec(a, b) {
					t.Fatalf("%s round %d: EstimateEdges differs at %d workers", kind, round, workers)
				}
				if a, b := base.ReliabilityFromMany(g, []ugraph.NodeID{s, 1}), ps.ReliabilityFromMany(g, []ugraph.NodeID{s, 1}); !equalMat(a, b) {
					t.Fatalf("%s round %d: ReliabilityFromMany differs at %d workers", kind, round, workers)
				}
			}
		}
	}
}

func equalMat(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalVec(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesExact checks the merged estimator stays unbiased: the
// budget-weighted shard mixture must converge to the exact reliability.
func TestParallelMatchesExact(t *testing.T) {
	r := rng.New(303)
	for _, kind := range parallelKinds {
		ps := newParallelT(t, kind, 40000, 9, 4)
		for trial := 0; trial < 4; trial++ {
			g := randomSmallGraph(r, trial%2 == 0)
			s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
			exact, err := g.ExactReliability(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			got := ps.Reliability(g, s, tt)
			if math.Abs(got-exact) > 0.02 {
				t.Errorf("%s trial %d: parallel=%v exact=%v", kind, trial, got, exact)
			}
		}
	}
}

// TestParallelVectorMatchesScalar cross-checks the batched vector APIs
// against their scalar counterparts' semantics (entry for the query node
// is 1, entries lie in [0, 1]). The budget deliberately splits unevenly
// across shards: unanimous shard estimates must still merge to exactly 1.
func TestParallelVectorMatchesScalar(t *testing.T) {
	r := rng.New(404)
	g := randomSmallGraph(r, true)
	ps := newParallelT(t, "mc", 1663, 5, 4)
	sources := []ugraph.NodeID{0, 1}
	fromMany := ps.ReliabilityFromMany(g, sources)
	if len(fromMany) != len(sources) {
		t.Fatalf("ReliabilityFromMany returned %d rows, want %d", len(fromMany), len(sources))
	}
	toMany := ps.ReliabilityToMany(g, sources)
	for i, s := range sources {
		if fromMany[i][s] != 1 {
			t.Errorf("fromMany[%d][%d] = %v, want 1", i, s, fromMany[i][s])
		}
		if toMany[i][s] != 1 {
			t.Errorf("toMany[%d][%d] = %v, want 1", i, s, toMany[i][s])
		}
		for v, x := range fromMany[i] {
			if x < 0 || x > 1 {
				t.Fatalf("fromMany[%d][%d] = %v out of range", i, v, x)
			}
		}
	}
}

// TestParallelReseedRestartsSequence verifies Reseed resets the call
// counter: the same sequence of calls replays identically.
func TestParallelReseedRestartsSequence(t *testing.T) {
	r := rng.New(505)
	g := randomSmallGraph(r, false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	ps := newParallelT(t, "rss", 500, 11, 3)
	first := []float64{ps.Reliability(g, s, tt), ps.Reliability(g, s, tt)}
	ps.Reseed(11)
	second := []float64{ps.Reliability(g, s, tt), ps.Reliability(g, s, tt)}
	if !equalVec(first, second) {
		t.Fatalf("replay after Reseed differs: %v vs %v", first, second)
	}
	if first[0] == first[1] {
		t.Fatalf("successive calls returned identical estimates %v; call counter not advancing", first[0])
	}
}

// TestParallelTinyBudget exercises budgets at or below the maximum shard
// count, where the budget-proportional shard sizing collapses to one or a
// few shards.
func TestParallelTinyBudget(t *testing.T) {
	r := rng.New(606)
	g := randomSmallGraph(r, false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	for _, kind := range parallelKinds {
		for _, z := range []int{1, 3, DefaultShards - 1} {
			a := newParallelT(t, kind, z, 21, 1)
			b := newParallelT(t, kind, z, 21, 8)
			va, vb := a.Reliability(g, s, tt), b.Reliability(g, s, tt)
			if va != vb {
				t.Fatalf("%s z=%d: w1=%v w8=%v", kind, z, va, vb)
			}
			if va < 0 || va > 1 {
				t.Fatalf("%s z=%d: estimate %v out of range", kind, z, va)
			}
		}
	}
}

// TestParallelStress hammers one ParallelSampler from many goroutines; run
// under -race this is the concurrency-safety check of the new contract.
func TestParallelStress(t *testing.T) {
	r := rng.New(707)
	g := randomSmallGraph(r, false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	ps := newParallelT(t, "mc", 200, 31, 4)
	queries := []PairQuery{{S: s, T: tt}, {S: tt, T: s}}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (k + i) % 4 {
				case 0:
					if v := ps.Reliability(g, s, tt); v < 0 || v > 1 {
						t.Errorf("Reliability out of range: %v", v)
					}
				case 1:
					ps.ReliabilityFrom(g, s)
				case 2:
					ps.EstimateMany(g, queries)
				case 3:
					ps.EstimateEdges(g, s, tt, []ugraph.Edge{{U: 1, V: 3, P: 0.4}})
				}
				if i == 10 {
					ps.Reseed(int64(k)) // must be race-free against in-flight estimates
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestParallelImplementsBatch pins the interface relationships.
func TestParallelImplementsBatch(t *testing.T) {
	var smp Sampler = newParallelT(t, "mc", 100, 1, 2)
	if _, ok := smp.(BatchSampler); !ok {
		t.Fatal("ParallelSampler must implement BatchSampler")
	}
	if smp.Name() != "mc" {
		t.Fatalf("Name() = %q, want underlying estimator name", smp.Name())
	}
}

// TestNewDispatch pins the one parallel constructor: every worker count
// builds a ParallelSampler (<= 0 sized to GOMAXPROCS) over its kind's row
// of the kind table, with results bit-identical to a one-worker sampler at
// the same seed; and an unknown kind is a nil sampler plus an error
// wrapping ErrUnknownSampler.
func TestNewDispatch(t *testing.T) {
	r := rng.New(5)
	g := randomSmallGraph(r, true)
	c := g.Freeze()
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		for _, workers := range []int{0, -1, 3} {
			ps := newParallelT(t, kind, 300, 9, workers)
			if ps.Name() != kind {
				t.Fatalf("%s: workers=%d built a %s sampler", kind, workers, ps.Name())
			}
			pool := workers
			if pool <= 0 {
				pool = runtime.GOMAXPROCS(0)
			}
			if ps.Workers() != pool {
				t.Fatalf("%s: workers=%d sized the pool %d, want %d", kind, workers, ps.Workers(), pool)
			}
			if row, _ := kindOf(kind); ps.kind != row {
				t.Fatalf("%s: workers=%d does not lease from the kind's pool", kind, workers)
			}
			want := newParallelT(t, kind, 300, 9, 1)
			if a, b := ps.ReliabilityCSR(c, s, tt), want.ReliabilityCSR(c, s, tt); a != b {
				t.Fatalf("%s w%d: %v != one-worker result %v", kind, workers, a, b)
			}
		}
	}
	smp, err := NewParallel("bogus", 10, 1, 2)
	if !errors.Is(err, ErrUnknownSampler) || smp != nil {
		t.Fatalf("unknown kind: NewParallel = %#v, %v; want nil and ErrUnknownSampler", smp, err)
	}
}

// coldParallel is NewParallel over a private, empty pool of the kind: the
// reference the shared pool's history must never change.
func coldParallel(t *testing.T, kind string, z int, seed int64, workers int) *ParallelSampler {
	t.Helper()
	ps := newParallelT(t, kind, z, seed, workers)
	ps.kind = &estimatorKind{name: ps.kind.name, newSmp: ps.kind.newSmp, quantum: ps.kind.quantum}
	return ps
}

// TestWarmPoolPreservesEstimates: a scalar estimate and the From/To
// vectors on a small graph are bit-identical on a private cold pool, on
// the shared pool, and on the shared pool again after it served a larger
// graph and then a layered snapshot with a larger edge-ID bound. One
// worker leases the same pooled sampler throughout, so its scratch is
// regrown for the layered snapshot's edge IDs and then reused, larger and
// stamped, for the small graph.
func TestWarmPoolPreservesEstimates(t *testing.T) {
	small := benchGraph(64, true)
	c := small.Freeze()
	s, tt := ugraph.NodeID(0), ugraph.NodeID(63)
	bigG := benchGraph(1024, true)
	big := bigG.Freeze()
	var adds []ugraph.DeltaEdit
	for v := ugraph.NodeID(3); v < 300; v++ {
		if !bigG.HasEdge(2, v) {
			adds = append(adds, ugraph.DeltaEdit{Op: ugraph.DeltaAdd, U: 2, V: v, P: 0.4})
		}
	}
	layered, err := big.Delta(adds)
	if err != nil {
		t.Fatal(err)
	}
	if layered.EdgeIDBound() <= big.EdgeIDBound() {
		t.Fatalf("layered edge-ID bound %d not above the base's %d", layered.EdgeIDBound(), big.EdgeIDBound())
	}
	type answer struct {
		est      float64
		from, to []float64
	}
	run := func(ps *ParallelSampler) answer {
		return answer{ps.ReliabilityCSR(c, s, tt), ps.ReliabilityFromCSR(c, s), ps.ReliabilityToCSR(c, tt)}
	}
	same := func(a, b answer) bool {
		return a.est == b.est && slices.Equal(a.from, b.from) && slices.Equal(a.to, b.to)
	}
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		want := run(coldParallel(t, kind, 300, 11, 1))
		if got := run(newParallelT(t, kind, 300, 11, 1)); !same(got, want) {
			t.Fatalf("%s: shared pool %v != cold pool %v", kind, got, want)
		}
		other := newParallelT(t, kind, 300, 3, 1)
		other.ReliabilityFromCSR(big, 0)
		other.ReliabilityToCSR(layered, 5)
		other.ReliabilityCSR(layered, 2, 1000)
		if got := run(newParallelT(t, kind, 300, 11, 1)); !same(got, want) {
			t.Fatalf("%s: after larger snapshots %v != cold pool %v", kind, got, want)
		}
	}
}
