package sampling

// Differential tests: the CSR-based estimators must be BIT-IDENTICAL to
// the legacy slice-of-slices engine (reference_test.go) at the same seed —
// for directed and undirected graphs, scalar and vector estimates, base
// snapshots and WithEdges overlays, serially and at every worker count.

import (
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// randomDiffGraph builds graphs larger than randomSmallGraph (no exact
// solver needed here), mixing p=0 and p=1 edges and exercising rejected
// duplicate/self-loop inserts.
func randomDiffGraph(r *rand.Rand, directed bool) *ugraph.Graph {
	n := 6 + r.Intn(40)
	g := ugraph.New(n, directed)
	attempts := 3 * n
	for i := 0; i < attempts; i++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		var p float64
		switch r.Intn(6) {
		case 0:
			p = 0
		case 1:
			p = 1
		default:
			p = r.Float64()
		}
		g.AddEdge(u, v, p) //nolint:errcheck // rejections are part of the test
	}
	return g
}

type refSampler interface {
	Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64
	ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64
	ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64
}

func newRef(kind string, z int, seed int64) refSampler {
	switch kind {
	case "mc":
		return newRefMonteCarlo(z, seed)
	default:
		return newRefRSS(z, seed)
	}
}

func newLive(t *testing.T, kind string, z int, seed int64) Sampler {
	t.Helper()
	switch kind {
	case "mc":
		return NewMonteCarlo(z, seed)
	case "rss":
		return NewRSS(z, seed)
	case "mcvec":
		return NewMCVec(z, seed)
	}
	t.Fatalf("unknown kind %q", kind)
	return nil
}

// TestSamplersBitIdenticalToReference drives the live CSR engine and the
// legacy engine through an identical call sequence (the RNG stream carries
// across calls, so sequence position matters) and demands exact equality.
func TestSamplersBitIdenticalToReference(t *testing.T) {
	for _, kind := range []string{"mc", "rss"} {
		r := rng.New(11)
		for trial := 0; trial < 8; trial++ {
			directed := trial%2 == 0
			g := randomDiffGraph(r, directed)
			s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
			seed := int64(100 + trial)
			live := newLive(t, kind, 400, seed)
			ref := newRef(kind, 400, seed)
			for round := 0; round < 2; round++ {
				if a, b := live.Reliability(g, s, tt), ref.Reliability(g, s, tt); a != b {
					t.Fatalf("%s trial %d round %d: Reliability CSR=%v legacy=%v", kind, trial, round, a, b)
				}
				if a, b := live.ReliabilityFrom(g, s), ref.ReliabilityFrom(g, s); !equalVec(a, b) {
					t.Fatalf("%s trial %d round %d: ReliabilityFrom differs", kind, trial, round)
				}
				if a, b := live.ReliabilityTo(g, tt), ref.ReliabilityTo(g, tt); !equalVec(a, b) {
					t.Fatalf("%s trial %d round %d: ReliabilityTo differs", kind, trial, round)
				}
			}
		}
	}
}

// TestOverlayEstimatesBitIdentical checks the candidate-evaluation fast
// path: estimating on a WithEdges CSR overlay must equal (bit for bit)
// estimating on the fully cloned-and-refrozen graph, and equal the legacy
// engine on that clone where the kind has one.
func TestOverlayEstimatesBitIdentical(t *testing.T) {
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		// mcvec has no legacy reference; it is checked against the clone.
		hasRef := kind != "mcvec"
		r := rng.New(22)
		for trial := 0; trial < 6; trial++ {
			directed := trial%2 == 1
			g := randomDiffGraph(r, directed)
			n := g.N()
			var extra []ugraph.Edge
			for len(extra) < 3 {
				u := ugraph.NodeID(r.Intn(n))
				v := ugraph.NodeID(r.Intn(n))
				if u != v {
					extra = append(extra, ugraph.Edge{U: u, V: v, P: 0.1 + 0.8*r.Float64()})
				}
			}
			s, tt := ugraph.NodeID(0), ugraph.NodeID(n-1)
			seed := int64(7 * (trial + 1))
			overlay := g.Freeze().WithEdges(extra)
			clone := g.WithEdges(extra)

			cs := newLive(t, kind, 300, seed).(Sampler)
			onOverlay := cs.ReliabilityCSR(overlay, s, tt)
			onClone := newLive(t, kind, 300, seed).Reliability(clone, s, tt)
			if onOverlay != onClone {
				t.Fatalf("%s trial %d: overlay=%v clone=%v", kind, trial, onOverlay, onClone)
			}
			if hasRef {
				if legacy := newRef(kind, 300, seed).Reliability(clone, s, tt); onOverlay != legacy {
					t.Fatalf("%s trial %d: overlay=%v legacy=%v", kind, trial, onOverlay, legacy)
				}
			}

			cs.Reseed(seed)
			fromOverlay := cs.ReliabilityFromCSR(overlay, s)
			if !equalVec(fromOverlay, newLive(t, kind, 300, seed).ReliabilityFrom(clone, s)) {
				t.Fatalf("%s trial %d: overlay ReliabilityFrom differs from clone", kind, trial)
			}
			if hasRef && !equalVec(fromOverlay, newRef(kind, 300, seed).ReliabilityFrom(clone, s)) {
				t.Fatalf("%s trial %d: overlay ReliabilityFrom differs from legacy clone", kind, trial)
			}
			cs.Reseed(seed)
			toOverlay := cs.ReliabilityToCSR(overlay, tt)
			if !equalVec(toOverlay, newLive(t, kind, 300, seed).ReliabilityTo(clone, tt)) {
				t.Fatalf("%s trial %d: overlay ReliabilityTo differs from clone", kind, trial)
			}
			if hasRef && !equalVec(toOverlay, newRef(kind, 300, seed).ReliabilityTo(clone, tt)) {
				t.Fatalf("%s trial %d: overlay ReliabilityTo differs from legacy clone", kind, trial)
			}
		}
	}
}

// TestMultiSourceBitIdentical covers the influence-layer walks (multi-
// source reach and expected pair hops): on a WithEdges overlay they must
// estimate bit-identically to the cloned-and-refrozen graph, since the
// view's added arcs end each row exactly as appended edges do. A
// single-source reach must also equal the MC From vector, whose walk
// draws the same coins in the same order.
func TestMultiSourceBitIdentical(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 6; trial++ {
		g := randomDiffGraph(r, trial%2 == 0)
		n := g.N()
		extra := []ugraph.Edge{{U: 0, V: ugraph.NodeID(n - 1), P: 0.4}, {U: ugraph.NodeID(n / 2), V: 1, P: 0.7}}
		overlay := g.Freeze().WithEdges(extra)
		flat := g.WithEdges(extra).Freeze()
		sources := []ugraph.NodeID{0, ugraph.NodeID(n / 2)}
		targets := []ugraph.NodeID{ugraph.NodeID(n - 1)}
		seed := int64(40 + trial)

		a := NewMonteCarlo(200, seed).MultiSourceReachCSR(overlay, sources)
		b := NewMonteCarlo(200, seed).MultiSourceReachCSR(flat, sources)
		if !equalVec(a, b) {
			t.Fatalf("trial %d: MultiSourceReachCSR overlay vs flat differ", trial)
		}
		single := NewMonteCarlo(200, seed).MultiSourceReachCSR(flat, sources[:1])
		if from := NewMonteCarlo(200, seed).ReliabilityFromCSR(flat, sources[0]); !equalVec(single, from) {
			t.Fatalf("trial %d: single-source reach differs from ReliabilityFromCSR", trial)
		}

		h1 := NewMonteCarlo(100, seed).ExpectedPairHopsCSR(overlay, sources, targets, float64(n))
		h2 := NewMonteCarlo(100, seed).ExpectedPairHopsCSR(flat, sources, targets, float64(n))
		if h1 != h2 {
			t.Fatalf("trial %d: ExpectedPairHopsCSR overlay=%v flat=%v", trial, h1, h2)
		}
	}
}

// TestParallelCSREntryPoints checks ParallelSampler's Sampler facade:
// snapshot-level calls must be bit-identical to the Graph-level calls at
// the same call index, at every worker count.
func TestParallelCSREntryPoints(t *testing.T) {
	r := rng.New(44)
	g := randomDiffGraph(r, true)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
	for _, workers := range []int{1, 2, 4, 8} {
		viaGraph := newParallelT(t, "mc", 500, 9, workers)
		viaCSR := newParallelT(t, "mc", 500, 9, workers)
		c := g.Freeze()
		if a, b := viaGraph.Reliability(g, s, tt), viaCSR.ReliabilityCSR(c, s, tt); a != b {
			t.Fatalf("w%d: Reliability Graph=%v CSR=%v", workers, a, b)
		}
		if a, b := viaGraph.ReliabilityFrom(g, s), viaCSR.ReliabilityFromCSR(c, s); !equalVec(a, b) {
			t.Fatalf("w%d: ReliabilityFrom Graph vs CSR differ", workers)
		}
		if a, b := viaGraph.ReliabilityTo(g, tt), viaCSR.ReliabilityToCSR(c, tt); !equalVec(a, b) {
			t.Fatalf("w%d: ReliabilityTo Graph vs CSR differ", workers)
		}
	}
}

// TestScratchReuseAcrossGrowingGraphs is the regression test for the
// stale-epoch-mark bug: estimating on a graph, then on a view with more
// edges (the EstimateEdges overlay shape), reallocates the edge-state
// array and restarts the epoch counter — the node-mark array must be
// cleared too, or reused low epochs collide with stale marks and the BFS
// silently skips unvisited nodes. A reused sampler must therefore return
// exactly what a fresh sampler returns at the same seed.
func TestScratchReuseAcrossGrowingGraphs(t *testing.T) {
	// smallM: more nodes than bigM but fewer edges, so moving from it to
	// bigM reallocates ONLY the edge-state array — the shape that used to
	// restart the epoch counter while nodeEp kept its stale marks. The
	// warm-up estimate uses a tiny budget: a node's stale mark is the last
	// walk that visited it, so low-numbered marks (which reused low epochs
	// collide with) survive only when the warm-up ran few walks.
	smallM := ugraph.New(50, false)
	for v := ugraph.NodeID(1); v < 50; v++ {
		smallM.MustAddEdge(0, v, 0.5)
	}
	// Low per-edge probability keeps R(0, 29) mid-range: a near-certain
	// query would return exactly 1.0 from corrupted and clean runs alike,
	// and the test would have no discriminating power.
	bigM := ugraph.New(30, false)
	for u := ugraph.NodeID(0); u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			bigM.MustAddEdge(u, v, 0.05)
		}
	}
	if bigM.M() <= smallM.M() || bigM.N() >= smallM.N() {
		t.Fatal("test graphs lost their edge/node-growth shape")
	}
	for _, kind := range []string{"mc", "rss"} {
		reused := newLive(t, kind, 1, 1)
		reused.Reliability(smallM, 0, 49) // one walk: marks stay low
		reused.SetSampleSize(600)
		reused.Reseed(9)
		got := reused.Reliability(bigM, 0, 29)
		want := newLive(t, kind, 600, 9).Reliability(bigM, 0, 29)
		if want <= 0.02 || want >= 0.98 {
			t.Fatalf("%s: R=%v too extreme — the test has no discriminating power", kind, want)
		}
		if got != want {
			t.Errorf("%s: reused sampler %v != fresh sampler %v after edge-only growth", kind, got, want)
		}
		// The overlay shape of the same bug: a one-walk base estimate at
		// M, then a full overlay estimate at M+1 on the same sampler.
		cs := newLive(t, kind, 1, 2).(Sampler)
		base := bigM.Freeze()
		cs.ReliabilityCSR(base, 0, 29)
		view := base.WithEdges([]ugraph.Edge{{U: 0, V: 29, P: 0.4}})
		cs.SetSampleSize(600)
		cs.Reseed(13)
		got = cs.ReliabilityCSR(view, 0, 29)
		fresh := newLive(t, kind, 600, 13).(Sampler)
		if want = fresh.ReliabilityCSR(view, 0, 29); got != want {
			t.Errorf("%s: reused sampler %v != fresh sampler %v on overlay view", kind, got, want)
		}
	}
}
