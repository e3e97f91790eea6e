package sampling

// Allocation regression tests: the tentpole contract of the CSR refactor
// is that a warmed-up sampler performs ZERO heap allocations per sample in
// its scalar inner loop — the scratch arrays, BFS queue and (for RSS) the
// boundary arena are all reused, and the snapshot comes from the graph's
// Freeze cache. testing.AllocsPerRun pins that at exactly 0 so a future
// change can't silently reintroduce per-sample garbage.

import (
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// allocGraph is a graph big enough that a regression to per-sample or
// per-node allocations would be unmissable.
func allocGraph(directed bool) *ugraph.Graph {
	r := rand.New(rand.NewSource(5))
	n := 120
	g := ugraph.New(n, directed)
	for i := 0; i < 6*n; i++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.8*r.Float64())
	}
	return g
}

// assertZeroAllocs runs fn once to warm the scratch buffers (and grow the
// RSS arena to its steady-state capacity), then demands zero allocations
// across repeated runs. fn must reseed internally so every run replays the
// same recursion shape.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm-up: scratch arrays, arena and Freeze cache are built here
	if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per estimate after warm-up, want 0", name, allocs)
	}
}

// TestReliabilityZeroAllocs covers the MC and RSS scalar loops and the
// mcvec vector loop, in both orientations (the directed
// ReliabilityTo path walks the separate in-arc array).
func TestReliabilityZeroAllocs(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := allocGraph(directed)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		mc := NewMonteCarlo(64, 3)
		rs := NewRSS(64, 3)
		// z=130 spans two full lane blocks plus a tail mask, so the vector
		// loop's block iteration and partial-lane path are both measured.
		vec := NewMCVec(130, 3)
		suffix := "/undirected"
		if directed {
			suffix = "/directed"
		}
		assertZeroAllocs(t, "mc"+suffix, func() {
			mc.Reseed(3)
			mc.Reliability(g, s, tt)
		})
		assertZeroAllocs(t, "rss"+suffix, func() {
			rs.Reseed(3)
			rs.Reliability(g, s, tt)
		})
		assertZeroAllocs(t, "mcvec"+suffix, func() {
			vec.Reseed(3)
			vec.Reliability(g, s, tt)
		})
		// The backward orientation returns a fresh counts vector (inherent
		// to the API); the vector loop behind it must add nothing.
		c := g.Freeze()
		vec.ReliabilityToCSR(c, tt) // warm-up
		if allocs := testing.AllocsPerRun(10, func() {
			vec.Reseed(3)
			vec.ReliabilityToCSR(c, tt)
		}); allocs > 1 {
			t.Errorf("mcvec/to%s: %v allocs per call, want <= 1 (the result slice)", suffix, allocs)
		}
	}
}

// TestOverlayReliabilityZeroAllocs pins the candidate-evaluation shape:
// once the overlay view exists, estimating on it allocates nothing either.
func TestOverlayReliabilityZeroAllocs(t *testing.T) {
	g := allocGraph(false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	overlay := g.Freeze().WithEdges([]ugraph.Edge{{U: s, V: tt, P: 0.3}})
	mc := NewMonteCarlo(64, 3)
	rs := NewRSS(64, 3)
	assertZeroAllocs(t, "mc/overlay", func() {
		mc.Reseed(3)
		mc.ReliabilityCSR(overlay, s, tt)
	})
	assertZeroAllocs(t, "rss/overlay", func() {
		rs.Reseed(3)
		rs.ReliabilityCSR(overlay, s, tt)
	})
	vec := NewMCVec(130, 3)
	assertZeroAllocs(t, "mcvec/overlay", func() {
		vec.Reseed(3)
		vec.ReliabilityCSR(overlay, s, tt)
	})
}

// TestFreezeCachedZeroAllocs pins that the Graph-level entry point itself
// stays allocation-free once the snapshot is cached — i.e. Freeze's fast
// path is a pointer load.
func TestFreezeCachedZeroAllocs(t *testing.T) {
	g := allocGraph(true)
	g.Freeze()
	if allocs := testing.AllocsPerRun(10, func() { g.Freeze() }); allocs != 0 {
		t.Errorf("cached Freeze allocates %v per call, want 0", allocs)
	}
}

// TestMultiSourceZeroAllocSteadyState covers the influence-layer walk
// (counts vector is caller-visible output, so the per-call slice is
// measured and subtracted by reseeding into a preallocated run).
func TestMultiSourceZeroAllocSteadyState(t *testing.T) {
	g := allocGraph(false)
	c := g.Freeze()
	sources := []ugraph.NodeID{0, 1}
	mc := NewMonteCarlo(32, 9)
	mc.MultiSourceReachCSR(c, sources) // warm-up
	// One output slice per call is inherent to the API; anything beyond
	// that (per-sample garbage) fails the bound.
	allocs := testing.AllocsPerRun(10, func() {
		mc.Reseed(9)
		mc.MultiSourceReachCSR(c, sources)
	})
	if allocs > 1 {
		t.Errorf("MultiSourceReachCSR: %v allocs per call, want <= 1 (the result slice)", allocs)
	}
}

var sinkFloat float64

// BenchmarkZeroAllocReliability is a convenience view of the same
// property under -benchmem (0 B/op, 0 allocs/op in steady state).
func BenchmarkZeroAllocReliability(b *testing.B) {
	g := allocGraph(false)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	for _, kind := range []string{"mc", "rss"} {
		b.Run(kind, func(b *testing.B) {
			var smp Sampler
			switch kind {
			case "mc":
				smp = NewMonteCarlo(64, rng.SplitSeed(1, 2))
			default:
				smp = NewRSS(64, rng.SplitSeed(1, 2))
			}
			smp.Reliability(g, s, tt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, tt)
			}
		})
	}
}
