package sampling

import (
	"context"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// serialBatchGraph builds a deterministic sparse random graph for the
// serial-batch differential tests.
func serialBatchGraph(n, m int, directed bool, seed int64) *ugraph.Graph {
	r := rng.New(seed)
	g := ugraph.New(n, directed)
	for attempts := 0; attempts < 20*m && g.M() < m; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.6*r.Float64())
	}
	return g
}

// TestEstimateManySerialBitIdentity pins the scheduling-independence
// contract: the sharded execution must be bit-identical to the in-order
// workers=1 path (and to a hand-rolled reference that reseeds a fresh
// serial sampler per query) at every worker count, for every kind.
func TestEstimateManySerialBitIdentity(t *testing.T) {
	g := serialBatchGraph(64, 160, false, 11)
	c := g.Freeze()
	queries := []PairQuery{
		{S: 0, T: 9}, {S: 1, T: 22}, {S: 4, T: 4}, {S: 7, T: 60},
		{S: 9, T: 0}, {S: 3, T: 33}, {S: 12, T: 48}, {S: 2, T: 2},
	}
	const z, seed = 300, 17
	for _, kind := range []string{"mc", "rss"} {
		ss, err := NewSharedScratch(kind)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: one fresh serial sampler, reseeded per query in order.
		ref := make([]float64, len(queries))
		smp, err := NewSerial(kind, z, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if q.S == q.T {
				ref[i] = 1
				continue
			}
			smp.Reseed(rng.SplitSeed(seed, int64(i)))
			ref[i] = smp.(Sampler).ReliabilityCSR(c, q.S, q.T)
		}
		for _, workers := range []int{1, 2, 4, 8, -1} {
			got := EstimateManySerial(context.Background(), ss, c, queries, z, seed, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("kind=%s workers=%d: query %d = %v, reference %v", kind, workers, i, got[i], ref[i])
				}
			}
		}
		// Warm-pool reuse must not perturb a repeated call.
		again := EstimateManySerial(context.Background(), ss, c, queries, z, seed, 4)
		for i := range ref {
			if again[i] != ref[i] {
				t.Fatalf("kind=%s: warm repeat diverged at %d: %v vs %v", kind, i, again[i], ref[i])
			}
		}
	}
}

// TestEstimateManySerialCancellation: a cancelled batch returns promptly
// (the caller is responsible for observing ctx.Err() and discarding the
// partial output).
func TestEstimateManySerialCancellation(t *testing.T) {
	g := serialBatchGraph(256, 1024, false, 3)
	c := g.Freeze()
	ss, err := NewSharedScratch("mc")
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]PairQuery, 64)
	for i := range queries {
		queries[i] = PairQuery{S: 0, T: ugraph.NodeID(1 + i%200)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_ = EstimateManySerial(ctx, ss, c, queries, 5_000_000, 1, 4)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
}

// TestEstimateManySerialEmpty covers the trivial shapes.
func TestEstimateManySerialEmpty(t *testing.T) {
	ss, err := NewSharedScratch("rss")
	if err != nil {
		t.Fatal(err)
	}
	g := serialBatchGraph(8, 12, false, 2)
	if out := EstimateManySerial(context.Background(), ss, g.Freeze(), nil, 100, 1, 4); out != nil {
		t.Fatalf("empty batch returned %v", out)
	}
}
