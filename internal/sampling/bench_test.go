package sampling

// Microbenchmarks isolating the CSR refactor: the flat-snapshot engine
// against the legacy slice-of-slices engine (reference_test.go) on the
// same graphs and seeds, the snapshot build cost, and the overlay-vs-clone
// candidate evaluation shape. Run with `make bench-compare` to get a
// benchstat old-vs-new table.

import (
	"context"

	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ugraph"
)

// benchGraph is a mid-size graph with hub structure, the shape the BFS
// cache behaviour actually matters on.
func benchGraph(n int, directed bool) *ugraph.Graph {
	r := rand.New(rand.NewSource(17))
	g := ugraph.New(n, directed)
	for i := 0; i < 8*n; i++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if r.Intn(3) == 0 {
			u = ugraph.NodeID(r.Intn(n / 16)) // hub bias
		}
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.05+0.5*r.Float64())
	}
	return g
}

// BenchmarkCSRvsLegacy pits the CSR engine against the preserved legacy
// engine on identical work: the per-op delta is the flattening win alone,
// since both consume the same RNG stream and visit the same arcs.
func BenchmarkCSRvsLegacy(b *testing.B) {
	const z = 200
	for _, n := range []int{256, 2048} {
		g := benchGraph(n, false)
		s, t := ugraph.NodeID(0), ugraph.NodeID(n-1)
		b.Run(fmt.Sprintf("mc/csr/n%d", n), func(b *testing.B) {
			smp := NewMonteCarlo(z, 1)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
		b.Run(fmt.Sprintf("mc/legacy/n%d", n), func(b *testing.B) {
			smp := newRefMonteCarlo(z, 1)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
		b.Run(fmt.Sprintf("mcvec/csr/n%d", n), func(b *testing.B) {
			// Same budget as mc/csr: the per-op ratio between the two is
			// the word-parallel speedup benchgate reports.
			smp := NewMCVec(z, 1)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
		b.Run(fmt.Sprintf("rss/csr/n%d", n), func(b *testing.B) {
			smp := NewRSS(z, 1)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
		b.Run(fmt.Sprintf("rss/legacy/n%d", n), func(b *testing.B) {
			smp := newRefRSS(z, 1)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
	}
}

// BenchmarkVectorMC is the scalar-vs-vector differential the bench gate
// tracks: identical budgets, lane-aligned (z = 8 blocks) so neither side
// pays a partial block. The from/* pairs run the full-closure estimators,
// where word parallelism is undiluted (~10x); the st/* pairs keep the
// early-exit s-t query, where the scalar walker stops per world but the
// vector must run until every straggler lane resolves.
func BenchmarkVectorMC(b *testing.B) {
	const z = 8 * laneBlock
	for _, n := range []int{256, 2048} {
		g := benchGraph(n, false)
		c := g.Freeze()
		s, t := ugraph.NodeID(0), ugraph.NodeID(n-1)
		for _, kind := range []string{"mc", "mcvec"} {
			newSmp := func() Sampler {
				if kind == "mc" {
					return NewMonteCarlo(z, 1)
				}
				return NewMCVec(z, 1)
			}
			b.Run(fmt.Sprintf("st/%s/n%d", kind, n), func(b *testing.B) {
				smp := newSmp()
				smp.ReliabilityCSR(c, s, t)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkFloat = smp.ReliabilityCSR(c, s, t)
				}
			})
			b.Run(fmt.Sprintf("from/%s/n%d", kind, n), func(b *testing.B) {
				smp := newSmp()
				smp.ReliabilityFromCSR(c, s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					smp.ReliabilityFromCSR(c, s)
				}
			})
		}
	}
}

// BenchmarkFreeze measures the one-time snapshot build (paid per graph
// version, amortized across every estimate on it).
func BenchmarkFreeze(b *testing.B) {
	for _, n := range []int{256, 2048} {
		g := benchGraph(n, true)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// SetProb invalidates the cache so each iteration pays the
				// full rebuild.
				if err := g.SetProb(0, 0.5); err != nil {
					b.Fatal(err)
				}
				if g.Freeze().N() != n {
					b.Fatal("bad snapshot")
				}
			}
		})
	}
}

// BenchmarkCandidateEval compares the two ways to evaluate one candidate
// edge against a base graph: the legacy clone (copy the whole graph,
// estimate) versus the CSR overlay (share the base arrays, estimate). This
// is the inner-loop shape of hill climbing, top-k and exact search.
func BenchmarkCandidateEval(b *testing.B) {
	const z = 100
	g := benchGraph(2048, false)
	s, t := ugraph.NodeID(0), ugraph.NodeID(2047)
	cand := []ugraph.Edge{{U: s, V: t, P: 0.3}}
	b.Run("clone", func(b *testing.B) {
		smp := newRefMonteCarlo(z, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = smp.Reliability(g.WithEdges(cand), s, t)
		}
	})
	b.Run("overlay", func(b *testing.B) {
		smp := NewMonteCarlo(z, 1)
		base := g.Freeze()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = smp.ReliabilityCSR(base.WithEdges(cand), s, t)
		}
	})
}

// BenchmarkSolveCancellation measures the cost of the cooperative
// cancellation machinery on the mc/rss hot loops: "unbound" is the
// PR 2-shaped baseline (no context), "bound" runs the identical estimate
// with a live cancellable context attached, paying one poll per sample
// block. Acceptance: bound within 1% of unbound.
func BenchmarkSolveCancellation(b *testing.B) {
	const z = 4000
	g := benchGraph(2048, false)
	s, t := ugraph.NodeID(0), ugraph.NodeID(2047)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, kind := range []string{"mc", "rss"} {
		b.Run(kind+"/unbound", func(b *testing.B) {
			smp, err := NewSerial(kind, z, 1)
			if err != nil {
				b.Fatal(err)
			}
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
		b.Run(kind+"/bound", func(b *testing.B) {
			smp, err := NewSerial(kind, z, 1)
			if err != nil {
				b.Fatal(err)
			}
			smp.SetContext(ctx)
			smp.Reliability(g, s, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = smp.Reliability(g, s, t)
			}
		})
	}
}

// BenchmarkReseed times one shard's fixed RNG cost: a reseed plus 64
// Float64 draws, about what a selection shard draws. Seeding is lazy, so a
// reseed alone costs next to nothing; the draws pay for the seeded words
// they read (see shardBudgetsFor).
func BenchmarkReseed(b *testing.B) {
	b.Run("rss", func(b *testing.B) {
		smp := NewRSS(500, 1)
		sink := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			smp.Reseed(int64(i))
			for j := 0; j < 64; j++ {
				sink += smp.r.Float64()
			}
		}
		if sink < 0 {
			b.Fatal("negative draw")
		}
	})
}
