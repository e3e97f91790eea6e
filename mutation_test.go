package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// applyTestMutations is a mutation batch that measurably changes the
// lastfm fixture: it rewrites the probability of the first two edges and
// deletes the third.
func applyTestMutations(t testing.TB, g *Graph) []Mutation {
	t.Helper()
	edges := g.Edges()
	if len(edges) < 3 {
		t.Fatal("fixture too small for mutation batch")
	}
	return []Mutation{
		SetProb(edges[0].U, edges[0].V, 0.999),
		SetProb(edges[1].U, edges[1].V, 0.001),
		RemoveEdge(edges[2].U, edges[2].V),
	}
}

// mutatedClone applies the same batch to a caller-side clone — the oracle
// for "Apply is equivalent to rebuilding the engine over the new graph".
func mutatedClone(t testing.TB, g *Graph, muts []Mutation) *Graph {
	t.Helper()
	m := g.Clone()
	if i, err := applyMutationsTo(m, muts); err != nil {
		t.Fatalf("oracle mutation %d: %v", i, err)
	}
	return m
}

// flatCommit is the differential oracle for the delta commit: it commits
// muts on eng by cloning the epoch's graph, replaying the batch onto the
// clone and freezing a complete flat CSR, and publishes the result as
// Apply does, minus the WAL, the counters and compaction. A commit costs O(N+M) whatever the batch size, which makes
// it BenchmarkApply's clone baseline too. On a bad mutation nothing is
// published. eng must not be durable.
func flatCommit(eng *Engine, muts ...Mutation) (uint64, error) {
	eng.applyMu.Lock()
	defer eng.applyMu.Unlock()
	g, err := eng.snap.Load().graph()
	if err != nil {
		return 0, err
	}
	g = g.Clone()
	if i, err := applyMutationsTo(g, muts); err != nil {
		return 0, fmt.Errorf("mutation %d: %v: %w", i, err, ErrBadMutation)
	}
	next := newFlatSnapshot(g)
	if eng.cache != nil {
		eng.cache.setEpoch(next.csr.Epoch())
	}
	eng.snap.Store(next)
	return next.csr.Epoch(), nil
}

// applyMutationsTo executes a mutation batch in order against g. On error
// the returned index names the offending mutation; g may be partially
// mutated, so callers mutate a clone.
func applyMutationsTo(g *Graph, muts []Mutation) (int, error) {
	for i, m := range muts {
		if err := applyMutationTo(g, m); err != nil {
			return i, err
		}
	}
	return len(muts), nil
}

// applyMutationTo executes one mutation against g.
func applyMutationTo(g *Graph, m Mutation) error {
	switch m.Op {
	case MutAddEdge:
		_, err := g.AddEdge(m.U, m.V, m.P)
		return err
	case MutSetProb:
		if eid, ok := g.EdgeID(m.U, m.V); ok {
			return g.SetProb(eid, m.P)
		}
		return fmt.Errorf("no edge (%d,%d)", m.U, m.V)
	case MutRemoveEdge:
		return g.RemoveEdge(m.U, m.V)
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
}

// TestApplyAdvancesEpochAtomically: Apply commits whole batches (epoch
// advances by the batch size), rejects invalid batches without applying a
// prefix, and reports mutation errors through ErrBadMutation.
func TestApplyAdvancesEpochAtomically(t *testing.T) {
	g := NewGraph(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	eng, err := NewEngine(g, WithSampleSize(100))
	if err != nil {
		t.Fatal(err)
	}
	e0 := eng.Epoch()
	if e0 != 2 {
		t.Fatalf("initial epoch %d, want the graph version 2", e0)
	}
	epoch, err := eng.Apply(context.Background(), AddEdge(2, 3, 0.7), SetProb(0, 1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != e0+2 || eng.Epoch() != epoch {
		t.Fatalf("epoch after batch: %d (engine %d), want %d", epoch, eng.Epoch(), e0+2)
	}
	if got := eng.Snapshot().M(); got != 3 {
		t.Fatalf("snapshot has %d edges, want 3", got)
	}

	// An invalid second mutation aborts the whole batch: the valid first
	// one must not land either.
	before := eng.Epoch()
	_, err = eng.Apply(context.Background(), AddEdge(0, 2, 0.4), AddEdge(0, 1, 0.5) /* duplicate */)
	if !errors.Is(err, ErrBadMutation) {
		t.Fatalf("error %v does not wrap ErrBadMutation", err)
	}
	if eng.Epoch() != before || eng.Snapshot().HasEdge(0, 2) {
		t.Fatalf("rejected batch partially applied (epoch %d, hasEdge=%v)", eng.Epoch(), eng.Snapshot().HasEdge(0, 2))
	}
	for _, bad := range [][]Mutation{
		{SetProb(0, 3, 0.5)},                     // no such edge
		{RemoveEdge(0, 3)},                       // no such edge
		{AddEdge(0, 0, 0.5)},                     // self-loop
		{AddEdge(0, 2, 1.5)},                     // probability out of range
		{{Op: "bogus", U: 0, V: 1}},              // unknown op
		{SetProb(0, 99, 0.5)},                    // endpoint out of range
		{AddEdge(NodeID(-1), NodeID(2), 0.5)},    // negative endpoint
		{RemoveEdge(NodeID(99), NodeID(2))},      // out of range removal
		{AddEdge(0, 2, 0.4), RemoveEdge(0, 99)},  // valid prefix, bad tail
		{SetProb(0, 1, -0.1)},                    // negative probability
		{AddEdge(1, 3, 0.3), {Op: "", U: 0}},     // empty op
		{RemoveEdge(0, 1), RemoveEdge(0, 1)},     // double removal
		{AddEdge(3, 1, 0.2), AddEdge(1, 3, 0.2)}, // duplicate within batch (undirected)
	} {
		if _, err := eng.Apply(context.Background(), bad...); !errors.Is(err, ErrBadMutation) {
			t.Fatalf("batch %+v: error %v does not wrap ErrBadMutation", bad, err)
		}
		if eng.Epoch() != before {
			t.Fatalf("batch %+v advanced the epoch", bad)
		}
	}

	// Empty batches are no-ops; a cancelled ctx aborts before committing.
	if epoch, err := eng.Apply(context.Background()); err != nil || epoch != before {
		t.Fatalf("empty batch: %d, %v", epoch, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Apply(cancelled, AddEdge(0, 2, 0.4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Apply error: %v", err)
	}
	if eng.Epoch() != before {
		t.Fatal("cancelled Apply advanced the epoch")
	}
}

// TestApplyDifferential is the PR's acceptance differential: a job
// submitted (and therefore pinned) before Engine.Apply returns results
// bit-identical to a never-mutated engine, while the same query
// re-submitted after Apply reflects the new graph — bit-identical to an
// engine built from scratch over the mutated graph — and misses the cache
// under a fresh fingerprint.
func TestApplyDifferential(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 200, Seed: 9, R: 8, L: 8}
	build := func(graph *Graph, extra ...EngineOption) *Engine {
		t.Helper()
		eng, err := NewEngine(graph, append([]EngineOption{WithSolverDefaults(opt)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// The engine under test: one worker slot so the probe job queues
	// behind a blocker and is still waiting when Apply lands.
	eng := build(g, WithResultCache(16), WithMaxConcurrent(1), WithQueueDepth(4))
	never := build(g) // never mutated: the old-epoch oracle
	muts := applyTestMutations(t, g)
	rebuilt := build(mutatedClone(t, g, muts)) // fresh over the new graph: the new-epoch oracle

	ctx := context.Background()
	query := Query{Kind: QuerySolve, S: 0, T: 39, Method: MethodBE}
	keyBefore := mustKey(t, eng, query)

	blocker, err := eng.Submit(ctx, Query{Kind: QueryEstimate, S: 0, T: 17, Options: &Options{Z: 50_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker holds the only worker slot, so the probe job
	// is deterministically still queued when Apply commits.
	for deadline := time.Now().Add(10 * time.Second); blocker.Status().State != JobRunning; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	pinned, err := eng.Submit(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := pinned.Epoch()

	newEpoch, err := eng.Apply(ctx, muts...)
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch == epochBefore {
		t.Fatal("Apply did not advance the epoch")
	}
	blocker.Cancel()
	<-blocker.Done()

	// The pinned job ran entirely after the mutation committed, yet must
	// reproduce the never-mutated engine bit for bit.
	res, err := pinned.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := never.Solve(ctx, Request{S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(want, res.Solution) {
		t.Fatalf("pinned job diverged from the never-mutated engine:\nnever %+v\npinned %+v", want, res.Solution)
	}
	if pinned.Key() != keyBefore {
		t.Fatalf("pinned job key changed: %s vs %s", pinned.Key(), keyBefore)
	}

	// The same query re-submitted now fingerprints differently (epoch is
	// part of the key), misses the cache, and reflects the new graph.
	keyAfter := mustKey(t, eng, query)
	if keyAfter == keyBefore {
		t.Fatal("fingerprint did not change across Apply")
	}
	after, err := eng.Submit(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	<-after.Done()
	if st := after.Status(); st.CacheHit {
		t.Fatalf("post-mutation query hit a stale cache entry: %+v", st)
	}
	if after.Key() != keyAfter || after.Epoch() != newEpoch {
		t.Fatalf("post-mutation job key/epoch: %s/%d, want %s/%d", after.Key(), after.Epoch(), keyAfter, newEpoch)
	}
	afterRes, err := after.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := rebuilt.Solve(ctx, Request{S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(wantAfter, afterRes.Solution) {
		t.Fatalf("post-mutation result diverged from a rebuilt engine:\nrebuilt %+v\nengine  %+v", wantAfter, afterRes.Solution)
	}
	if sameSolution(want, afterRes.Solution) && want.Base == wantAfter.Base {
		t.Fatal("mutations did not change the answer; the differential is vacuous")
	}

	st := eng.Stats()
	if st.Epoch != newEpoch || st.Applies != 1 || st.MutationsApplied != uint64(len(muts)) {
		t.Fatalf("stats after Apply: %+v", st)
	}
}

func mustKey(t *testing.T, eng *Engine, q Query) string {
	t.Helper()
	cq, err := eng.Canonicalize(q)
	if err != nil {
		t.Fatal(err)
	}
	return cq.Key()
}

// TestCacheInvalidationOnApply is the satellite coverage: a repeated query
// is a recorded hit before Apply, a recorded miss with a fresh bit-exact
// result after, and the stale entry is lazily reclaimed.
func TestCacheInvalidationOnApply(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(200), WithSeed(11), WithResultCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("cache hit not bit-identical: %v vs %v", again, first)
	}
	if st := eng.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("pre-mutation stats: hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	muts := applyTestMutations(t, g)
	if _, err := eng.Apply(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	post, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("post-mutation stats: hits=%d misses=%d, want 1/2 (miss, not a stale hit)", st.CacheHits, st.CacheMisses)
	}
	// The stale pre-mutation entry was reclaimed by the lazy sweep during
	// the counted miss.
	if st.CacheInvalidated == 0 {
		t.Fatalf("stale entry never reclaimed: %+v", st)
	}
	// The fresh result matches a cold engine over the mutated graph.
	cold, err := NewEngine(mutatedClone(t, g, muts), WithSampleSize(200), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if post != want {
		t.Fatalf("post-mutation estimate %v, cold oracle %v", post, want)
	}
	// And is itself cached under the new fingerprint.
	repeat, err := eng.Estimate(ctx, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if repeat != post {
		t.Fatalf("post-mutation hit not bit-identical: %v vs %v", repeat, post)
	}
	if st := eng.Stats(); st.CacheHits != 2 {
		t.Fatalf("post-mutation repeat not a hit: %+v", st)
	}
}

// TestConcurrentSubmittersAcrossApply runs the invalidation contract under
// the race detector: submitters hammer one fingerprint while mutations
// rotate epochs; every job must return exactly the oracle value of the
// epoch it pinned, whether it computed or hit the cache.
func TestConcurrentSubmittersAcrossApply(t *testing.T) {
	g := engineTestGraph(t)
	const z, seed = 150, 13
	eng, err := NewEngine(g, WithSampleSize(z), WithSeed(seed), WithResultCache(16), WithMaxConcurrent(4))
	if err != nil {
		t.Fatal(err)
	}
	// Three epochs: initial, after one SetProb, after another. Oracles are
	// cold engines over the equivalent graphs.
	edges := g.Edges()
	rounds := [][]Mutation{
		{SetProb(edges[0].U, edges[0].V, 0.999)},
		{SetProb(edges[1].U, edges[1].V, 0.001)},
	}
	oracle := map[uint64]float64{}
	cur := g.Clone()
	addOracle := func(graph *Graph) {
		t.Helper()
		cold, err := NewEngine(graph, WithSampleSize(z), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := cold.Estimate(context.Background(), 0, 17)
		if err != nil {
			t.Fatal(err)
		}
		oracle[cold.Epoch()] = rel
	}
	addOracle(cur)
	for _, muts := range rounds {
		cur = mutatedClone(t, cur, muts)
		addOracle(cur)
	}

	ctx := context.Background()
	const submitters = 6
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	stop := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				job, err := eng.Submit(ctx, Query{Kind: QueryEstimate, S: 0, T: 17})
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					errs <- err
					return
				}
				res, err := job.Result()
				if err != nil {
					errs <- err
					return
				}
				want, ok := oracle[job.Epoch()]
				if !ok {
					errs <- errors.New("job pinned an unknown epoch")
					return
				}
				if res.Reliability != want {
					errs <- errors.New("job result diverged from its epoch's oracle")
					return
				}
			}
		}()
	}
	for _, muts := range rounds {
		time.Sleep(20 * time.Millisecond)
		if _, err := eng.Apply(ctx, muts...); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineClose: Close rejects new submissions and mutations with
// ErrClosed and cancels non-terminal jobs; synchronous queries on pinned
// snapshots still finish.
func TestEngineClose(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(100), WithMaxConcurrent(2))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 0, T: 17,
		Options: &Options{Z: 50_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if !eng.Closed() {
		t.Fatal("Closed() false after Close")
	}
	select {
	case <-slow.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not cancel the running job")
	}
	if st := slow.Status(); st.State != JobCancelled {
		t.Fatalf("job state after Close: %v", st.State)
	}
	if _, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 0, T: 17}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed engine: %v", err)
	}
	if _, err := eng.Apply(context.Background(), SetProb(g.Edges()[0].U, g.Edges()[0].V, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on closed engine: %v", err)
	}
	if st := eng.Stats(); !st.Closed {
		t.Fatalf("stats do not report closed: %+v", st)
	}
}
