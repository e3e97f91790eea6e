package repro

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Delta-epoch differential suites: every query served from a layered
// (delta-committed) snapshot must be bit-identical to the same query on a
// full-clone rebuild at the same epoch, across sampler kinds, worker
// counts, overlay depths and compaction boundaries — and recovery and
// replication of layered epochs must reach byte-identical state.

// deltaHoldLayers disables threshold compaction so a test controls the
// chain depth explicitly.
func deltaHoldLayers() EngineOption { return WithCompactionPolicy(1<<20, 1e12) }

// deltaTestBatches builds three deterministic mutation stages against the
// engine test fixture, exercising adds, removals and re-probes — including
// edits that touch edges a previous delta layer added.
func deltaTestBatches(t testing.TB, g *Graph) [][]Mutation {
	t.Helper()
	edges := g.Edges()
	if len(edges) < 6 {
		t.Fatal("fixture too small")
	}
	nonEdge := func(skip map[[2]NodeID]bool) (NodeID, NodeID) {
		for u := NodeID(0); int(u) < g.N(); u++ {
			for v := u + 1; int(v) < g.N(); v++ {
				if !g.HasEdge(u, v) && !skip[[2]NodeID{u, v}] {
					skip[[2]NodeID{u, v}] = true
					return u, v
				}
			}
		}
		t.Fatal("no free node pair")
		return 0, 0
	}
	used := map[[2]NodeID]bool{}
	a1u, a1v := nonEdge(used)
	a2u, a2v := nonEdge(used)
	a3u, a3v := nonEdge(used)
	return [][]Mutation{
		{SetProb(edges[0].U, edges[0].V, 0.999), AddEdge(a1u, a1v, 0.42)},
		{RemoveEdge(edges[1].U, edges[1].V), AddEdge(a2u, a2v, 0.7), SetProb(a1u, a1v, 0.51)},
		{RemoveEdge(a2u, a2v), AddEdge(a3u, a3v, 0.33), SetProb(edges[3].U, edges[3].V, 0.01)},
	}
}

// requireSameAnswers runs one query battery on both engines and requires
// bit-identical results: estimate and estimate-many across every sampler
// kind × workers {0,1,4}, and solve/multi/total-budget (rss) at workers
// {0,4}.
func requireSameAnswers(t *testing.T, stage string, eng, oracle *Engine) {
	t.Helper()
	ctx := context.Background()
	run := func(q Query) {
		t.Helper()
		got, gerr := eng.Run(ctx, q)
		want, werr := oracle.Run(ctx, q)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s %s: error mismatch: delta %v, oracle %v", stage, q.Kind, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
			t.Fatalf("%s %s diverged from flat rebuild:\ndelta  %+v\noracle %+v", stage, q.Kind, got, want)
		}
	}
	pairs := []PairQuery{{S: 0, T: 17}, {S: 3, T: 23}, {S: 5, T: 11}}
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		for _, w := range []int{0, 1, 4} {
			opt := &Options{Sampler: kind, Z: 150, Seed: 7, Workers: w}
			run(Query{Kind: QueryEstimate, S: 0, T: 17, Options: opt})
			run(Query{Kind: QueryEstimateMany, Pairs: pairs, Options: opt})
		}
	}
	for _, w := range []int{0, 4} {
		opt := &Options{K: 2, Z: 150, Seed: 7, R: 8, L: 8, Workers: w}
		run(Query{Kind: QuerySolve, S: 0, T: 17, Method: MethodBE, Options: opt})
		run(Query{Kind: QueryMulti, Sources: []NodeID{0, 1}, Targets: []NodeID{17, 23}, Options: opt})
		run(Query{Kind: QueryTotalBudget, S: 0, T: 17, Budget: 1.5, Options: opt})
	}
	// The logical edge sets must agree exactly (canonical order), not just
	// the sampled answers.
	if eng.Epoch() != oracle.Epoch() {
		t.Fatalf("%s: epochs diverged: %d vs %d", stage, eng.Epoch(), oracle.Epoch())
	}
	if !reflect.DeepEqual(eng.Snapshot().Edges(), oracle.Snapshot().Edges()) {
		t.Fatalf("%s: edge sets diverged", stage)
	}
}

// TestDeltaEpochDifferential is the tentpole acceptance suite: the same
// mutation batches committed as delta layers (depths 1..3) and as full
// rebuilds answer every query kind bit-identically, the fold across an
// explicit compaction boundary changes nothing, and a further commit on
// the freshly-compacted base still matches.
func TestDeltaEpochDifferential(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(150), WithSeed(7), deltaHoldLayers())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(g, WithSampleSize(150), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batches := deltaTestBatches(t, g)
	for i, muts := range batches {
		de, err := eng.Apply(ctx, muts...)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := flatCommit(oracle, muts...)
		if err != nil {
			t.Fatal(err)
		}
		if de != fe {
			t.Fatalf("batch %d: delta epoch %d, flat epoch %d", i, de, fe)
		}
		if depth := eng.Snapshot().Depth(); depth != i+1 {
			t.Fatalf("batch %d: chain depth %d, want %d", i, depth, i+1)
		}
		requireSameAnswers(t, "layered", eng, oracle)
	}
	st := eng.Stats()
	if st.DeltaCommits != uint64(len(batches)) || st.ChainDepth != len(batches) {
		t.Fatalf("layered stats: %+v", st)
	}
	if ost := oracle.Stats(); ost.DeltaCommits != 0 || ost.ChainDepth != 0 {
		t.Fatalf("flat oracle committed deltas: %+v", ost)
	}

	// Fold the chain. Same epoch, flat representation, identical answers —
	// including previously cached fingerprints staying valid.
	epoch := eng.Epoch()
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != epoch {
		t.Fatalf("compaction moved the epoch: %d -> %d", epoch, eng.Epoch())
	}
	st = eng.Stats()
	if st.ChainDepth != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	requireSameAnswers(t, "compacted", eng, oracle)
	if err := eng.Compact(); err != nil { // no-op on flat
		t.Fatal(err)
	}
	if eng.Stats().Compactions != 1 {
		t.Fatal("no-op Compact counted a compaction")
	}

	// One more batch on the compacted base: a fresh depth-1 layer.
	extra := []Mutation{SetProb(g.Edges()[4].U, g.Edges()[4].V, 0.5)}
	if _, err := eng.Apply(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	if _, err := flatCommit(oracle, extra...); err != nil {
		t.Fatal(err)
	}
	if depth := eng.Snapshot().Depth(); depth != 1 {
		t.Fatalf("post-compaction commit depth %d, want 1", depth)
	}
	requireSameAnswers(t, "re-layered", eng, oracle)
}

// TestDeltaThresholdCompaction: crossing the configured chain-depth bound
// kicks the background compactor, which folds to depth 0 at an unchanged
// epoch while answers keep matching the flat oracle.
func TestDeltaThresholdCompaction(t *testing.T) {
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(150), WithSeed(7), WithCompactionPolicy(2, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	oracle := g.Clone()
	ctx := context.Background()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5; i++ {
		muts := randomMutationBatch(t, r, oracle)
		if _, err := eng.Apply(ctx, muts...); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().ChainDepth >= 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never folded the chain: %+v", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if eng.Stats().Compactions == 0 {
		t.Fatalf("no compaction counted: %+v", eng.Stats())
	}
	cold, err := NewEngine(oracle, WithSampleSize(150), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != cold.Epoch() {
		t.Fatalf("epoch %d, oracle %d", eng.Epoch(), cold.Epoch())
	}
	if estimateBits(t, eng, 0, 12) != estimateBits(t, cold, 0, 12) {
		t.Fatal("post-compaction estimate diverged from cold rebuild")
	}
	if !reflect.DeepEqual(eng.Snapshot().Edges(), cold.Snapshot().Edges()) {
		t.Fatal("post-compaction edge set diverged from cold rebuild")
	}
}

// TestRecoverLayeredEpoch is the crash-injection case: an engine crashes
// (no Close, no checkpoint) with its current epoch still layered in delta
// form, and recovery — which only ever sees the checkpoint plus the WAL —
// arrives at state bit-identical to the layered engine AND to its
// compacted form. A checkpoint cut while layered compacts first, and
// recovering from it is byte-identical again.
func TestRecoverLayeredEpoch(t *testing.T) {
	dir := t.TempDir()
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithStorage(dir), WithSeed(7), WithSampleSize(150),
		deltaHoldLayers(), WithCheckpointEvery(1<<30, 1<<60))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	oracle := g.Clone()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		muts := randomMutationBatch(t, r, oracle)
		if _, err := eng.Apply(ctx, muts...); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().ChainDepth != 3 {
		t.Fatalf("chain depth %d, want 3", eng.Stats().ChainDepth)
	}

	// Crash now: the store is abandoned mid-flight, the WAL holds the three
	// batches, the checkpoint still describes the pre-mutation graph.
	rec, err := OpenEngine(dir, WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch() != eng.Epoch() {
		t.Fatalf("recovered epoch %d, layered engine at %d", rec.Epoch(), eng.Epoch())
	}
	if !reflect.DeepEqual(rec.Snapshot().Edges(), eng.Snapshot().Edges()) {
		t.Fatal("recovered edge set differs from the layered epoch")
	}
	if estimateBits(t, rec, 0, 12) != estimateBits(t, eng, 0, 12) {
		t.Fatal("recovered estimate differs from the layered epoch")
	}
	rec.Close()

	// A checkpoint of the layered epoch folds the chain first; the file
	// describes the flat form and recovery from it is identical again.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.ChainDepth != 0 || st.Compactions == 0 {
		t.Fatalf("checkpoint did not compact: %+v", st)
	}
	eng.Close()
	rec2, err := OpenEngine(dir, WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	cold, err := NewEngine(oracle, WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Epoch() != cold.Epoch() || !reflect.DeepEqual(rec2.Snapshot().Edges(), cold.Snapshot().Edges()) {
		t.Fatal("recovery from the compacted checkpoint diverged from the oracle graph")
	}
	if estimateBits(t, rec2, 0, 12) != estimateBits(t, cold, 0, 12) {
		t.Fatal("recovered estimate diverged from the oracle graph")
	}
}

// TestApplyReplicatedDelta: replicas commit the primary's batches through
// the same delta path and stay bit-identical to the flat-commit oracle;
// batches that fail validation map to ErrReplicaGap without partial
// application.
func TestApplyReplicatedDelta(t *testing.T) {
	g := durTestGraph(t)
	delta, err := NewEngine(g, WithSeed(7), WithSampleSize(150), deltaHoldLayers())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewEngine(g, WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	oracle := g.Clone()
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 3; i++ {
		muts := randomMutationBatch(t, r, oracle)
		b := storeBatchOf(delta.Epoch()+uint64(len(muts)), muts...)
		de, err := delta.ApplyReplicated(b)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := flatCommit(flat, muts...)
		if err != nil {
			t.Fatal(err)
		}
		if de != fe || de != b.Epoch {
			t.Fatalf("replicated epochs diverged: delta %d, flat %d, batch %d", de, fe, b.Epoch)
		}
	}
	if delta.Snapshot().Depth() != 3 || delta.Stats().DeltaCommits != 3 {
		t.Fatalf("replica did not commit deltas: depth=%d stats=%+v", delta.Snapshot().Depth(), delta.Stats())
	}
	if !reflect.DeepEqual(delta.Snapshot().Edges(), flat.Snapshot().Edges()) {
		t.Fatal("replicated edge sets diverged")
	}
	if estimateBits(t, delta, 0, 12) != estimateBits(t, flat, 0, 12) {
		t.Fatal("replicated estimates diverged")
	}

	// A chaining batch whose mutation is invalid: gap, not partial state.
	var mu, mv NodeID
	for u := NodeID(0); mu == mv; u++ {
		for v := u + 1; int(v) < oracle.N(); v++ {
			if !oracle.HasEdge(u, v) {
				mu, mv = u, v
				break
			}
		}
	}
	before := delta.Epoch()
	bad := storeBatchOf(before+1, SetProb(mu, mv, 0.5))
	if _, err := delta.ApplyReplicated(bad); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("invalid replicated batch: %v", err)
	}
	if delta.Epoch() != before {
		t.Fatal("failed replicated batch advanced the epoch")
	}
	// And a non-chaining batch is rejected before any delta work.
	gap := storeBatchOf(before+5, AddEdge(mu, mv, 0.5))
	if _, err := delta.ApplyReplicated(gap); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("non-chaining batch: %v", err)
	}
}

// TestCacheWarmingOnRotation: after Apply rotates the epoch, the warmer
// re-submits the outgoing epoch's popular fingerprints; the recomputed
// entries serve post-mutation queries as cache hits, bit-identical to a
// cold engine over the mutated graph.
func TestCacheWarmingOnRotation(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(150), WithSeed(7),
		WithResultCache(16), WithCacheWarming(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	warm := []PairQuery{{S: 0, T: 17}, {S: 3, T: 23}}
	for _, p := range warm {
		if _, err := eng.Estimate(ctx, p.S, p.T); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().CacheWarmed != 0 {
		t.Fatal("warming ran before any rotation")
	}
	muts := applyTestMutations(t, g)
	if _, err := eng.Apply(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().CacheWarmed < uint64(len(warm)) {
		if time.Now().After(deadline) {
			t.Fatalf("cache warming never completed: %+v", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cold, err := NewEngine(mutatedClone(t, g, muts), WithSampleSize(150), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	hits := eng.Stats().CacheHits
	for _, p := range warm {
		got, err := eng.Estimate(ctx, p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Estimate(ctx, p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("warmed answer for (%d,%d): %v, cold oracle %v", p.S, p.T, got, want)
		}
	}
	if got := eng.Stats().CacheHits; got != hits+uint64(len(warm)) {
		t.Fatalf("warmed entries did not serve as hits: %d -> %d", hits, got)
	}
}

// TestWarmCandidatesMRU pins the warming candidate selection: MRU-first,
// epoch-filtered, bounded by n.
func TestWarmCandidatesMRU(t *testing.T) {
	c := newResultCache(8)
	c.setEpoch(5)
	for i := 0; i < 4; i++ {
		q := Query{Kind: QueryEstimate, S: NodeID(i), T: 17, epoch: 5}
		c.put("k"+string(rune('a'+i)), q, Result{Kind: QueryEstimate})
	}
	got := c.warmCandidates(5, 2)
	if len(got) != 2 || got[0].S != 3 || got[1].S != 2 {
		t.Fatalf("warm candidates not MRU-first: %+v", got)
	}
	for _, q := range got {
		if q.epoch != 0 || q.snap != nil {
			t.Fatalf("stored query kept its snapshot pin: %+v", q)
		}
	}
	if n := len(c.warmCandidates(4, 4)); n != 0 {
		t.Fatalf("stale-epoch candidates returned: %d", n)
	}
}
