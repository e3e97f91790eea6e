package replication

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/store"
)

// replTestGraph is a 40-node graph large enough that every query kind is
// non-trivial and the solvers have real work to do.
func replTestGraph(t testing.TB) *repro.Graph {
	t.Helper()
	g := repro.NewGraph(40, false)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		g.MustAddEdge(repro.NodeID(i), repro.NodeID((i+1)%40), 0.3+0.5*r.Float64())
	}
	for k := 0; k < 50; k++ {
		u, v := repro.NodeID(r.Intn(40)), repro.NodeID(r.Intn(40))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.8*r.Float64())
	}
	return g
}

// randomBatch builds one valid mutation batch against oracle, applying it
// to oracle as it goes.
func randomBatch(t testing.TB, r *rand.Rand, oracle *repro.Graph) []repro.Mutation {
	t.Helper()
	count := 1 + r.Intn(4)
	muts := make([]repro.Mutation, 0, count)
	for len(muts) < count {
		switch r.Intn(3) {
		case 0:
			u, v := repro.NodeID(r.Intn(oracle.N())), repro.NodeID(r.Intn(oracle.N()))
			if u == v || oracle.HasEdge(u, v) {
				continue
			}
			p := 0.05 + 0.9*r.Float64()
			muts = append(muts, repro.AddEdge(u, v, p))
			oracle.MustAddEdge(u, v, p)
		case 1:
			edges := oracle.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[r.Intn(len(edges))]
			p := 0.05 + 0.9*r.Float64()
			muts = append(muts, repro.SetProb(e.U, e.V, p))
			eid, _ := oracle.EdgeID(e.U, e.V)
			if err := oracle.SetProb(eid, p); err != nil {
				t.Fatal(err)
			}
		case 2:
			edges := oracle.Edges()
			if len(edges) <= 45 {
				continue
			}
			e := edges[r.Intn(len(edges))]
			muts = append(muts, repro.RemoveEdge(e.U, e.V))
			if err := oracle.RemoveEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	return muts
}

func stripTimings(r repro.Result) repro.Result {
	r.Solution.ElimTime, r.Solution.SelectTime = 0, 0
	r.Multi.Elapsed = 0
	r.TotalBudget.Elapsed = 0
	return r
}

// replicaPair is one primary (tapped, durable in dir) plus a feed server.
type replicaPair struct {
	tap     *Tap
	primary *repro.Engine
	srv     *httptest.Server
}

func newPrimary(t *testing.T, g *repro.Graph, opts ...repro.EngineOption) *replicaPair {
	t.Helper()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tap := NewTap(fs)
	eng, err := repro.NewEngine(g, append(opts, repro.WithStore(tap))...)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/replication/feed/{name}", func(w http.ResponseWriter, r *http.Request) {
		ServeFeed(w, r, tap, 5*time.Millisecond)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(eng.Close)
	return &replicaPair{tap: tap, primary: eng, srv: srv}
}

func newTestFollower(t *testing.T, p *replicaPair, opts ...repro.EngineOption) *Follower {
	t.Helper()
	return NewFollower(FollowerConfig{
		Name:    "ds",
		Primary: p.srv.URL,
		Backoff: 10 * time.Millisecond,
		Bootstrap: func(s *store.Snapshot) (*repro.Engine, error) {
			g, err := repro.GraphFromSnapshot(s)
			if err != nil {
				return nil, err
			}
			return repro.NewEngine(g, opts...)
		},
		Logf: t.Logf,
	})
}

// waitConverged polls until the follower's applied epoch reaches want.
func waitConverged(t *testing.T, f *Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.Stats().LastAppliedEpoch == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at epoch %d, want %d (stats %+v)",
		f.Stats().LastAppliedEpoch, want, f.Stats())
}

// TestReplicationDifferential is the acceptance differential: after an
// arbitrary mutation sequence on the primary, a caught-up replica answers
// every query kind bit-identically to the primary at the same epoch — all
// four sampler kinds — and a freshly joined replica bootstraps to the same
// state.
func TestReplicationDifferential(t *testing.T) {
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			opts := []repro.EngineOption{
				repro.WithSamplerKind(kind), repro.WithSampleSize(120),
				repro.WithSeed(11), repro.WithWorkers(2), repro.WithResultCache(32),
			}
			g := replTestGraph(t)
			p := newPrimary(t, g, opts...)
			f := newTestFollower(t, p, opts...)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() { defer close(done); f.Run(ctx) }()

			// Mutate while the follower streams live.
			r := rand.New(rand.NewSource(int64(len(kind))))
			oracle := g.Clone()
			for i := 0; i < 12; i++ {
				if _, err := p.primary.Apply(ctx, randomBatch(t, r, oracle)...); err != nil {
					t.Fatal(err)
				}
			}
			waitConverged(t, f, p.primary.Epoch())
			replica := f.Engine()
			if replica.Epoch() != p.primary.Epoch() {
				t.Fatalf("replica epoch %d != primary %d", replica.Epoch(), p.primary.Epoch())
			}

			qopt := &repro.Options{K: 1, Z: 100, Seed: 3, R: 6, L: 6, Workers: 2, Sampler: kind}
			queries := []repro.Query{
				{Kind: repro.QueryEstimate, S: 0, T: 39},
				{Kind: repro.QueryEstimateMany, Pairs: []repro.PairQuery{{S: 0, T: 39}, {S: 1, T: 17}, {S: 5, T: 5}}},
				{Kind: repro.QuerySolve, S: 0, T: 39, Options: qopt},
				{Kind: repro.QueryMulti, Sources: []repro.NodeID{0, 1}, Targets: []repro.NodeID{17, 39}, Options: qopt},
				{Kind: repro.QueryTotalBudget, S: 0, T: 39, Budget: 0.6, Options: qopt},
			}
			for i, q := range queries {
				pc, err := p.primary.Canonicalize(q)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := replica.Canonicalize(q)
				if err != nil {
					t.Fatal(err)
				}
				if pc.Key() != rc.Key() {
					t.Fatalf("query %d (%s): fingerprint diverged:\n primary %s\n replica %s",
						i, q.Kind, pc.Key(), rc.Key())
				}
				want, err := p.primary.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := replica.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
					t.Errorf("query %d (%s): replica diverged:\n primary %+v\n replica %+v",
						i, q.Kind, want, got)
				}
				if math.Float64bits(got.Reliability) != math.Float64bits(want.Reliability) {
					t.Errorf("query %d (%s): reliability bits diverged", i, q.Kind)
				}
			}

			// Replica-side accounting: replicated traffic counts separately
			// from local Apply traffic.
			st := replica.Stats()
			if st.Applies != 0 || st.MutationsApplied != 0 {
				t.Errorf("replica counted local applies: %+v", st)
			}
			if st.ReplicatedApplies == 0 || st.ReplicatedMutations == 0 {
				t.Errorf("replica counted no replicated applies: %+v", st)
			}

			// A fresh joiner bootstraps to the same state.
			f2 := newTestFollower(t, p, opts...)
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			go f2.Run(ctx2)
			waitConverged(t, f2, p.primary.Epoch())
			fresh := f2.Engine()
			if fresh.Epoch() != p.primary.Epoch() {
				t.Fatalf("fresh replica epoch %d != primary %d", fresh.Epoch(), p.primary.Epoch())
			}
			want, err := p.primary.Estimate(ctx, 0, 39)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Estimate(ctx, 0, 39)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("fresh replica estimate %x != primary %x", math.Float64bits(got), math.Float64bits(want))
			}
			cancel()
			<-done
		})
	}
}

// TestFollowerResumeAndRebootstrap covers the two reconnect paths: a
// follower that disconnects and finds its epoch still in the primary's WAL
// resumes from the tail (no new bootstrap); one whose epoch was
// checkpointed away re-bootstraps from a fresh snapshot — and both end
// bit-identical to the primary.
func TestFollowerResumeAndRebootstrap(t *testing.T) {
	opts := []repro.EngineOption{repro.WithSampleSize(80), repro.WithSeed(5)}
	g := replTestGraph(t)
	// A huge checkpoint threshold keeps every batch in the WAL until the
	// test forces a checkpoint explicitly.
	p := newPrimary(t, g, append(opts, repro.WithCheckpointEvery(1<<30, 1<<62))...)
	f := newTestFollower(t, p, opts...)
	ctx := context.Background()
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); f.Run(runCtx) }()

	r := rand.New(rand.NewSource(99))
	oracle := g.Clone()
	for i := 0; i < 4; i++ {
		if _, err := p.primary.Apply(ctx, randomBatch(t, r, oracle)...); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, f, p.primary.Epoch())
	if got := f.Stats().Bootstraps; got != 1 {
		t.Fatalf("bootstraps after initial join = %d, want 1", got)
	}

	// Kill the stream, mutate while offline, reconnect: the batches are
	// still in the WAL, so the follower resumes from the tail.
	cancel()
	<-done
	for i := 0; i < 3; i++ {
		if _, err := p.primary.Apply(ctx, randomBatch(t, r, oracle)...); err != nil {
			t.Fatal(err)
		}
	}
	runCtx2, cancel2 := context.WithCancel(ctx)
	done = make(chan struct{})
	go func() { defer close(done); f.Run(runCtx2) }()
	waitConverged(t, f, p.primary.Epoch())
	if got := f.Stats().Bootstraps; got != 1 {
		t.Fatalf("bootstraps after tail resume = %d, want 1 (resume must not re-bootstrap)", got)
	}

	// Kill again; checkpoint so the WAL truncates past the follower's
	// epoch, then mutate. Reconnect must detect the gap and re-bootstrap.
	cancel2()
	<-done
	if _, err := p.primary.Apply(ctx, randomBatch(t, r, oracle)...); err != nil {
		t.Fatal(err)
	}
	if err := p.primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.primary.Apply(ctx, randomBatch(t, r, oracle)...); err != nil {
		t.Fatal(err)
	}
	runCtx3, cancel3 := context.WithCancel(ctx)
	defer cancel3()
	done = make(chan struct{})
	go func() { defer close(done); f.Run(runCtx3) }()
	waitConverged(t, f, p.primary.Epoch())
	if got := f.Stats().Bootstraps; got != 2 {
		t.Fatalf("bootstraps after gap = %d, want 2 (gap must re-bootstrap)", got)
	}
	want, err := p.primary.Estimate(ctx, 0, 39)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Engine().Estimate(ctx, 0, 39)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("post-rebootstrap estimate diverged: %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
	cancel3()
	<-done
}

// TestApplyReplicatedChainValidation: duplicates, skips and diverging
// batches are typed ErrReplicaGap rejections, never partial applications.
func TestApplyReplicatedChainValidation(t *testing.T) {
	g := replTestGraph(t)
	eng, err := repro.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := eng.Epoch()
	b := store.Batch{Epoch: base + 1, Muts: []store.Mut{{Op: store.OpAddEdge, U: 0, V: 17, P: 0.5}}}
	epoch, err := eng.ApplyReplicated(b)
	if err != nil || epoch != base+1 {
		t.Fatalf("chained batch: epoch=%d err=%v", epoch, err)
	}
	// Duplicate: chains from base, replica is at base+1.
	if _, err := eng.ApplyReplicated(b); !errors.Is(err, repro.ErrReplicaGap) {
		t.Fatalf("duplicate batch: %v, want ErrReplicaGap", err)
	}
	// Skip: chains from base+5.
	skip := store.Batch{Epoch: base + 6, Muts: []store.Mut{{Op: store.OpAddEdge, U: 0, V: 21, P: 0.5}}}
	if _, err := eng.ApplyReplicated(skip); !errors.Is(err, repro.ErrReplicaGap) {
		t.Fatalf("skipping batch: %v, want ErrReplicaGap", err)
	}
	// Chains but cannot replay (duplicate edge): divergence, also a gap —
	// and all-or-nothing, the epoch must not advance.
	bad := store.Batch{Epoch: base + 2, Muts: []store.Mut{{Op: store.OpAddEdge, U: 0, V: 17, P: 0.5}}}
	if _, err := eng.ApplyReplicated(bad); !errors.Is(err, repro.ErrReplicaGap) {
		t.Fatalf("unreplayable batch: %v, want ErrReplicaGap", err)
	}
	if eng.Epoch() != base+1 {
		t.Fatalf("failed batch advanced the epoch to %d", eng.Epoch())
	}
	// Empty batch: no chain evidence, rejected.
	if _, err := eng.ApplyReplicated(store.Batch{Epoch: base + 1}); !errors.Is(err, repro.ErrReplicaGap) {
		t.Fatalf("empty batch: %v, want ErrReplicaGap", err)
	}
}

// TestTapSubscribe pins the subscription cut semantics: tail resume when
// the requested epoch is in the recoverable chain, full bootstrap
// otherwise, and slow subscribers are dropped rather than blocking
// AppendBatch.
func TestTapSubscribe(t *testing.T) {
	tap := NewTap(store.NewMem())
	snap := &store.Snapshot{Epoch: 10, N: 4, Edges: []store.Edge{{U: 0, V: 1, P: 0.5}}}
	if err := tap.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	mkBatch := func(epoch uint64) store.Batch {
		return store.Batch{Epoch: epoch, Muts: []store.Mut{{Op: store.OpSetProb, U: 0, V: 1, P: 0.25}}}
	}
	for e := uint64(11); e <= 13; e++ {
		if err := tap.AppendBatch(mkBatch(e)); err != nil {
			t.Fatal(err)
		}
	}
	if tap.Epoch() != 13 {
		t.Fatalf("tap epoch %d, want 13", tap.Epoch())
	}

	// Resume from a WAL epoch: no snapshot, backlog is the suffix.
	sub, err := tap.Subscribe(11)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Snapshot != nil || len(sub.Backlog) != 2 || sub.Backlog[0].Epoch != 12 {
		t.Fatalf("resume sub: snapshot=%v backlog=%v", sub.Snapshot, sub.Backlog)
	}
	sub.Close()

	// Resume from the checkpoint epoch: full backlog, no snapshot.
	sub, err = tap.Subscribe(10)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Snapshot != nil || len(sub.Backlog) != 3 {
		t.Fatalf("checkpoint-epoch sub: snapshot=%v backlog=%v", sub.Snapshot, sub.Backlog)
	}
	sub.Close()

	// Unknown epoch (checkpointed away, or diverged): bootstrap.
	for _, from := range []uint64{0, 5, 99} {
		sub, err = tap.Subscribe(from)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Snapshot == nil || sub.Snapshot.Epoch != 10 || len(sub.Backlog) != 3 {
			t.Fatalf("from=%d: snapshot=%v backlog=%d, want bootstrap", from, sub.Snapshot, len(sub.Backlog))
		}
		sub.Close()
	}

	// A subscriber that never drains is dropped once its buffer fills —
	// AppendBatch must not block.
	sub, err = tap.Subscribe(13)
	if err != nil {
		t.Fatal(err)
	}
	epoch := uint64(14)
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for i := 0; i < subBuffer+2; i++ {
			if err := tap.AppendBatch(mkBatch(epoch)); err != nil {
				t.Error(err)
				return
			}
			epoch++
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("AppendBatch blocked on a slow subscriber")
	}
	if tap.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", tap.Drops())
	}
	if _, ok := <-drain(sub.C); ok {
		// Drain to the close: the channel must end.
	}
	if tap.Subscribers() != 0 {
		t.Fatalf("dropped subscriber still registered: %d", tap.Subscribers())
	}

	// Closing the tap closes the inner store and is idempotent.
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tap.Subscribe(0); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("subscribe after close: %v, want ErrClosed", err)
	}
}

// drain consumes ch until it closes, returning the closed channel for the
// caller's final receive.
func drain(ch <-chan store.Batch) <-chan store.Batch {
	for range ch {
	}
	return ch
}

// TestServeFeedBootstrapStream: an end-to-end feed over HTTP delivers
// snapshot, backlog and live batches in order, and heartbeats advance the
// advertised primary epoch.
func TestServeFeedBootstrapStream(t *testing.T) {
	g := replTestGraph(t)
	p := newPrimary(t, g, repro.WithSampleSize(50), repro.WithSeed(5))
	ctx := context.Background()
	if _, err := p.primary.Apply(ctx, repro.AddEdge(0, 20, 0.5)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v2/replication/feed/ds?from=0", p.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := NewFrameReader(resp.Body)
	frame, err := fr.Next()
	if err != nil || frame.Kind != FrameSnapshot {
		t.Fatalf("first frame: kind=%d err=%v, want snapshot", frame.Kind, err)
	}
	frame, err = fr.Next()
	if err != nil || frame.Kind != FrameBatch {
		t.Fatalf("second frame: kind=%d err=%v, want batch backlog", frame.Kind, err)
	}
	if frame.Batch.Epoch != p.primary.Epoch() {
		t.Fatalf("backlog batch epoch %d, want %d", frame.Batch.Epoch, p.primary.Epoch())
	}
	// Live batch after the initial heartbeat.
	if _, err := p.primary.Apply(ctx, repro.AddEdge(1, 21, 0.5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("live batch never arrived")
		}
		frame, err = fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if frame.Kind == FrameBatch {
			if frame.Batch.Epoch != p.primary.Epoch() {
				t.Fatalf("live batch epoch %d, want %d", frame.Batch.Epoch, p.primary.Epoch())
			}
			break
		}
		if frame.Kind != FrameHeartbeat {
			t.Fatalf("unexpected frame kind %d", frame.Kind)
		}
	}
	// A bad from parameter is a 400, not a hung stream.
	resp2, err := http.Get(fmt.Sprintf("%s/v2/replication/feed/ds?from=nope", p.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: HTTP %d, want 400", resp2.StatusCode)
	}
}
