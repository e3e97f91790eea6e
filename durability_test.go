package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// durTestGraph is a small deterministic graph for the durability tests:
// big enough that estimates are non-trivial, small enough that the crash
// harness can reopen it hundreds of times.
func durTestGraph(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph(24, false)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%24), 0.3+0.5*r.Float64())
	}
	for k := 0; k < 30; k++ {
		u, v := NodeID(r.Intn(24)), NodeID(r.Intn(24))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.8*r.Float64())
	}
	return g
}

// randomMutationBatch builds one valid batch against oracle and applies it
// to oracle as it goes (batches are order-sensitive: a batch may set the
// probability of an edge it just added).
func randomMutationBatch(t testing.TB, r *rand.Rand, oracle *Graph) []Mutation {
	t.Helper()
	count := 1 + r.Intn(4)
	muts := make([]Mutation, 0, count)
	for len(muts) < count {
		switch r.Intn(3) {
		case 0:
			u, v := NodeID(r.Intn(oracle.N())), NodeID(r.Intn(oracle.N()))
			if u == v || oracle.HasEdge(u, v) {
				continue
			}
			p := 0.05 + 0.9*r.Float64()
			muts = append(muts, AddEdge(u, v, p))
			oracle.MustAddEdge(u, v, p)
		case 1:
			edges := oracle.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[r.Intn(len(edges))]
			p := 0.05 + 0.9*r.Float64()
			muts = append(muts, SetProb(e.U, e.V, p))
			eid, _ := oracle.EdgeID(e.U, e.V)
			if err := oracle.SetProb(eid, p); err != nil {
				t.Fatal(err)
			}
		case 2:
			edges := oracle.Edges()
			if len(edges) <= 4 {
				continue
			}
			e := edges[r.Intn(len(edges))]
			muts = append(muts, RemoveEdge(e.U, e.V))
			if err := oracle.RemoveEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	return muts
}

// stripTimings zeroes the wall-clock fields of a Result — the only fields
// legitimately allowed to differ between a run and its recovered replay.
func stripTimings(r Result) Result {
	r.Solution.ElimTime, r.Solution.SelectTime = 0, 0
	r.Multi.Elapsed = 0
	r.TotalBudget.Elapsed = 0
	return r
}

func estimateBits(t testing.TB, eng *Engine, s, tt NodeID) uint64 {
	t.Helper()
	rel, err := eng.Estimate(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64bits(rel)
}

// TestDurableCreateReopen is the basic durability round trip: create with
// storage, mutate, close, reopen — the recovered engine is at the exact
// committed epoch and answers bit-identically.
func TestDurableCreateReopen(t *testing.T) {
	dir := t.TempDir()
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithStorage(dir), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Durable() || eng.Stats().Checkpoints != 1 {
		t.Fatalf("fresh durable engine: Durable=%v Checkpoints=%d", eng.Durable(), eng.Stats().Checkpoints)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	oracle := g.Clone()
	for i := 0; i < 5; i++ {
		if _, err := eng.Apply(ctx, randomMutationBatch(t, r, oracle)...); err != nil {
			t.Fatal(err)
		}
	}
	epoch, bits := eng.Epoch(), estimateBits(t, eng, 0, 12)
	eng.Close()

	re, err := OpenEngine(dir, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", re.Epoch(), epoch)
	}
	if got := estimateBits(t, re, 0, 12); got != bits {
		t.Fatalf("recovered estimate %x, want %x (not bit-identical)", got, bits)
	}
	if !re.Durable() {
		t.Fatal("recovered engine is not durable")
	}
}

// TestNewEngineStorageFreshInit: NewEngine with storage INITIALIZES the
// directory — prior state under the same path never leaks into a new
// dataset.
func TestNewEngineStorageFreshInit(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	g1 := durTestGraph(t)
	eng, err := NewEngine(g1, WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, AddEdge(0, 5, 0.5)); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	g2 := NewGraph(3, true)
	g2.MustAddEdge(0, 1, 0.25)
	eng2, err := NewEngine(g2, WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	eng2.Close()

	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	csr := re.Snapshot()
	if csr.N() != 3 || csr.M() != 1 || !csr.Directed() || re.Epoch() != g2.Version() {
		t.Fatalf("reopen after re-init: N=%d M=%d directed=%v epoch=%d, want the fresh 3-node graph",
			csr.N(), csr.M(), csr.Directed(), re.Epoch())
	}
}

// TestOpenEngineNoState: opening an empty directory is ErrNoState, not a
// silently-created empty dataset.
func TestOpenEngineNoState(t *testing.T) {
	if _, err := OpenEngine(t.TempDir()); !errors.Is(err, store.ErrNoState) {
		t.Fatalf("OpenEngine on empty dir: %v, want ErrNoState", err)
	}
}

// TestReopenBitIdentical is the headline recovery differential: a
// recovered engine answers EVERY query kind bit-identically to the engine
// that wrote the state — same canonical fingerprints, same result bytes —
// across all four sampler kinds and serial/parallel execution.
func TestReopenBitIdentical(t *testing.T) {
	base := engineTestGraph(t)
	muts := applyTestMutations(t, base)
	queries := func(workers int, kind string) []Query {
		opt := &Options{K: 1, Z: 120, Seed: 3, R: 6, L: 6, Workers: workers, Sampler: kind}
		return []Query{
			{Kind: QueryEstimate, S: 0, T: 39},
			{Kind: QueryEstimateMany, Pairs: []PairQuery{{S: 0, T: 39}, {S: 1, T: 17}, {S: 5, T: 5}}},
			{Kind: QuerySolve, S: 0, T: 39, Options: opt},
			{Kind: QueryMulti, Sources: []NodeID{0, 1}, Targets: []NodeID{17, 39}, Options: opt},
			{Kind: QueryTotalBudget, S: 0, T: 39, Budget: 0.6, Options: opt},
		}
	}
	ctx := context.Background()
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		for _, workers := range []int{0, 3} {
			t.Run(kind+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				dir := t.TempDir()
				opts := []EngineOption{
					WithSamplerKind(kind), WithWorkers(workers),
					WithSampleSize(150), WithSeed(11),
				}
				eng, err := NewEngine(base, append(opts, WithStorage(dir))...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Apply(ctx, muts...); err != nil {
					t.Fatal(err)
				}
				qs := queries(workers, kind)
				keys := make([]string, len(qs))
				results := make([]Result, len(qs))
				for i, q := range qs {
					cq, err := eng.Canonicalize(q)
					if err != nil {
						t.Fatal(err)
					}
					keys[i] = cq.Key()
					if results[i], err = eng.Run(ctx, q); err != nil {
						t.Fatalf("query %d (%s): %v", i, q.Kind, err)
					}
				}
				eng.Close()

				re, err := OpenEngine(dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if re.Epoch() == 0 {
					t.Fatal("recovered engine at epoch 0")
				}
				for i, q := range qs {
					cq, err := re.Canonicalize(q)
					if err != nil {
						t.Fatal(err)
					}
					if cq.Key() != keys[i] {
						t.Errorf("query %d (%s): fingerprint diverged after recovery:\n was %s\n now %s",
							i, q.Kind, keys[i], cq.Key())
						continue
					}
					got, err := re.Run(ctx, q)
					if err != nil {
						t.Fatalf("recovered query %d (%s): %v", i, q.Kind, err)
					}
					if !reflect.DeepEqual(stripTimings(got), stripTimings(results[i])) {
						t.Errorf("query %d (%s): result diverged after recovery:\n was %+v\n now %+v",
							i, q.Kind, results[i], got)
					}
					if math.Float64bits(got.Reliability) != math.Float64bits(results[i].Reliability) {
						t.Errorf("query %d (%s): reliability bits diverged", i, q.Kind)
					}
				}
			})
		}
	}
}

// TestRecoverRejectsUnreplayableWAL: WAL batches that decode but cannot be
// replayed onto the checkpoint — a broken epoch chain, removing a missing
// edge, re-adding an edge an earlier batch added, an endpoint outside the
// graph — fail recovery with store.ErrCorrupt naming the batch epoch and
// the mutation's index within its batch, never with a panic or an engine.
func TestRecoverRejectsUnreplayableWAL(t *testing.T) {
	g := durTestGraph(t)
	snap := storeSnapshotOf(g.Freeze())
	e := snap.Epoch
	ring := store.Mut{Op: store.OpSetProb, U: 0, V: 1, P: 0.5}
	add := func(u, v int32) store.Mut { return store.Mut{Op: store.OpAddEdge, U: u, V: v, P: 0.25} }
	var freeU, freeV int32
	for v := int32(2); ; v++ {
		if !g.HasEdge(0, v) {
			freeU, freeV = 0, v
			break
		}
	}
	first := store.Batch{Epoch: e + 1, Muts: []store.Mut{add(freeU, freeV)}}
	for _, tc := range []struct {
		name   string
		second store.Batch
		want   string
	}{
		{"epoch gap", store.Batch{Epoch: e + 3, Muts: []store.Mut{ring}},
			fmt.Sprintf("WAL batch epoch %d does not chain from %d", e+3, e+1)},
		{"remove missing", store.Batch{Epoch: e + 3, Muts: []store.Mut{ring, {Op: store.OpRemoveEdge, U: 3, V: 3}}},
			fmt.Sprintf("batch epoch %d mutation 1:", e+3)},
		{"add existing", store.Batch{Epoch: e + 3, Muts: []store.Mut{ring, add(freeV, freeU)}},
			fmt.Sprintf("batch epoch %d mutation 1:", e+3)},
		{"endpoint beyond N", store.Batch{Epoch: e + 4, Muts: []store.Mut{ring, ring, add(0, snap.N)}},
			fmt.Sprintf("batch epoch %d mutation 2:", e+4)},
		{"negative endpoint", store.Batch{Epoch: e + 2, Muts: []store.Mut{{Op: store.OpSetProb, U: -1, V: 1, P: 0.5}}},
			fmt.Sprintf("batch epoch %d mutation 0:", e+2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMem()
			if err := mem.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			for _, b := range []store.Batch{first, tc.second} {
				if err := mem.AppendBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := RecoverEngine(mem)
			if err == nil {
				eng.Close()
				t.Fatal("recovered an unreplayable WAL")
			}
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("error %v is not store.ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// faultStore wraps a Store with switchable failures at the append and
// checkpoint seams, and keeps the inner store open across Engine.Close so
// a test can recover from the same state.
type faultStore struct {
	store.Store
	appendErr, ckptErr error
}

func (f *faultStore) AppendBatch(b store.Batch) error {
	if f.appendErr != nil {
		return f.appendErr
	}
	return f.Store.AppendBatch(b)
}

func (f *faultStore) Checkpoint(s *store.Snapshot) error {
	if f.ckptErr != nil {
		return f.ckptErr
	}
	return f.Store.Checkpoint(s)
}

func (f *faultStore) Close() error { return nil }

// TestApplyFailedAppendDoesNotAdvanceEpoch pins the durability barrier: if
// the WAL append fails, Apply fails, the epoch does not advance, no
// counters move, and queries keep answering on the old epoch.
func TestApplyFailedAppendDoesNotAdvanceEpoch(t *testing.T) {
	fs := &faultStore{Store: store.NewMem()}
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithStore(fs), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	epoch, bits := eng.Epoch(), estimateBits(t, eng, 0, 12)

	fs.appendErr = errors.New("disk on fire")
	if _, err := eng.Apply(ctx, AddEdge(0, 13, 0.5)); err == nil || !errors.Is(err, fs.appendErr) {
		t.Fatalf("Apply with failing append: %v, want the injected error", err)
	}
	st := eng.Stats()
	if eng.Epoch() != epoch || st.Applies != 0 || st.MutationsApplied != 0 {
		t.Fatalf("failed append advanced state: epoch %d→%d applies=%d", epoch, eng.Epoch(), st.Applies)
	}
	if got := estimateBits(t, eng, 0, 12); got != bits {
		t.Fatal("failed append perturbed query results")
	}

	// The same batch succeeds once the fault clears — nothing was latched.
	fs.appendErr = nil
	if _, err := eng.Apply(ctx, AddEdge(0, 13, 0.5)); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != epoch+1 {
		t.Fatalf("retry epoch %d, want %d", eng.Epoch(), epoch+1)
	}
}

// TestCheckpointFailureIsDeferred: a failed auto-checkpoint does NOT fail
// the Apply (the batch is already durable in the WAL); it is counted and
// retried by the next Apply.
func TestCheckpointFailureIsDeferred(t *testing.T) {
	fs := &faultStore{Store: store.NewMem()}
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithStore(fs), WithCheckpointEvery(1, 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	fs.ckptErr = errors.New("checkpoint volume detached")
	if _, err := eng.Apply(ctx, AddEdge(0, 13, 0.5)); err != nil {
		t.Fatalf("Apply must not fail on checkpoint error: %v", err)
	}
	st := eng.Stats()
	if st.CheckpointErrors != 1 || st.Checkpoints != 1 { // 1 = the initial checkpoint
		t.Fatalf("after failed auto-checkpoint: Checkpoints=%d CheckpointErrors=%d", st.Checkpoints, st.CheckpointErrors)
	}
	// Explicit Checkpoint surfaces the error directly.
	if err := eng.Checkpoint(); err == nil || !errors.Is(err, fs.ckptErr) {
		t.Fatalf("explicit Checkpoint: %v, want the injected error", err)
	}

	fs.ckptErr = nil
	if _, err := eng.Apply(ctx, AddEdge(0, 14, 0.5)); err != nil {
		t.Fatal(err)
	}
	if st = eng.Stats(); st.Checkpoints != 2 || st.CheckpointErrors != 2 {
		t.Fatalf("retry did not checkpoint: Checkpoints=%d CheckpointErrors=%d", st.Checkpoints, st.CheckpointErrors)
	}

	// Recovery from the mem store sees the checkpointed state: WAL replay
	// is empty because the last Apply's checkpoint truncated it.
	snap, batches, err := fs.Store.Recover()
	if err != nil || len(batches) != 0 {
		t.Fatalf("recover: %d batches, err %v (want checkpoint-only)", len(batches), err)
	}
	if snap.Epoch != eng.Epoch() {
		t.Fatalf("checkpoint epoch %d, want %d", snap.Epoch, eng.Epoch())
	}
}

// TestCheckpointNoopWithoutStorage: Engine.Checkpoint on an in-memory
// engine is a documented no-op.
func TestCheckpointNoopWithoutStorage(t *testing.T) {
	eng, err := NewEngine(durTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Durable() {
		t.Fatal("in-memory engine claims durability")
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint without storage: %v, want nil", err)
	}
}

// TestDurableFaultAtEverySyscallSeam drives the engine over the real
// filesystem store with an injected fault at each syscall seam in turn,
// committing the probe batches through Apply and through ApplyReplicated
// (which share one commit). The invariant is end-to-end fsync ordering:
// whatever the seam, a commit either acknowledges a batch (then it MUST
// survive reopen) or fails it (then the epoch did not advance and reopen
// lands on the last acknowledged epoch — never on a half-written one).
func TestDurableFaultAtEverySyscallSeam(t *testing.T) {
	ctx := context.Background()
	for _, seam := range store.FSSeams {
		t.Run(seam, func(t *testing.T) {
			for _, replicated := range []bool{false, true} {
				dir := t.TempDir()
				fs, err := store.OpenFS(dir)
				if err != nil {
					t.Fatal(err)
				}
				fs.SetLogf(t.Logf)
				g := durTestGraph(t)
				eng, err := NewEngine(g, WithStore(fs), WithCheckpointEvery(2, 1<<40), WithSeed(5))
				if err != nil {
					t.Fatal(err)
				}
				commit := func(m Mutation) (uint64, error) {
					if replicated {
						return eng.ApplyReplicated(storeBatchOf(eng.Epoch()+1, m))
					}
					return eng.Apply(ctx, m)
				}
				// One clean batch, then arm the fault and commit until
				// something fails (the checkpoint-path seams only fire on
				// the policy boundary; checkpoint failures are deferred, so
				// those seams never fail a commit at all).
				if _, err := commit(AddEdge(0, 13, 0.9)); err != nil {
					t.Fatal(err)
				}
				injected := errors.New("injected " + seam)
				fs.SetFault(func(op string) error {
					if op == seam {
						return injected
					}
					return nil
				})
				acked := eng.Epoch()
				probe := []Mutation{AddEdge(0, 14, 0.8), AddEdge(0, 15, 0.7), AddEdge(0, 16, 0.6)}
				for _, m := range probe {
					ep, err := commit(m)
					if err != nil {
						if eng.Epoch() != acked {
							t.Fatalf("replicated=%v: failed commit advanced epoch: %d, acknowledged %d",
								replicated, eng.Epoch(), acked)
						}
						break
					}
					acked = ep
				}
				ckptErrs := eng.Stats().CheckpointErrors
				fs.SetFault(nil)
				eng.Close()

				re, err := OpenEngine(dir, WithSeed(5))
				if err != nil {
					t.Fatalf("replicated=%v: reopen after %s fault: %v", replicated, seam, err)
				}
				if re.Epoch() != acked {
					t.Fatalf("replicated=%v, seam %s: recovered epoch %d, want last acknowledged %d (checkpoint errors: %d)",
						replicated, seam, re.Epoch(), acked, ckptErrs)
				}
				re.Close()
			}
		})
	}
}

// TestCatalogDurability exercises the catalog storage lifecycle: durable
// Create, Close + Restore across "processes", StoredNames for boot-time
// discovery, DropStorage for deletes.
func TestCatalogDurability(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	cat := NewCatalog(WithSeed(7))
	if err := cat.SetStorage(root); err != nil {
		t.Fatal(err)
	}
	g := durTestGraph(t)
	eng, err := cat.Create("lastfm", g)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Durable() {
		t.Fatal("catalog dataset not durable after SetStorage")
	}
	if _, err := eng.Apply(ctx, AddEdge(0, 13, 0.5), AddEdge(2, 17, 0.25)); err != nil {
		t.Fatal(err)
	}
	epoch, bits := eng.Epoch(), estimateBits(t, eng, 0, 12)
	if err := cat.Close("lastfm"); err != nil {
		t.Fatal(err)
	}

	// A second catalog over the same root — a process restart.
	cat2 := NewCatalog(WithSeed(7))
	if err := cat2.SetStorage(root); err != nil {
		t.Fatal(err)
	}
	names, err := cat2.StoredNames()
	if err != nil || len(names) != 1 || names[0] != "lastfm" {
		t.Fatalf("StoredNames: %v, %v", names, err)
	}
	re, err := cat2.Restore("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != epoch || estimateBits(t, re, 0, 12) != bits {
		t.Fatalf("restored dataset diverged: epoch %d want %d", re.Epoch(), epoch)
	}
	if _, err := cat2.Restore("lastfm"); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("double Restore: %v, want ErrDatasetExists", err)
	}
	if _, err := cat2.Open("lastfm"); err != nil {
		t.Fatal(err)
	}

	// Delete: retire the engine, then drop the bytes.
	if err := cat2.Close("lastfm"); err != nil {
		t.Fatal(err)
	}
	if err := cat2.DropStorage("lastfm"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "lastfm")); !os.IsNotExist(err) {
		t.Fatalf("dataset directory survived DropStorage: %v", err)
	}
	if _, err := cat2.Restore("lastfm"); !errors.Is(err, store.ErrNoState) {
		t.Fatalf("Restore after drop: %v, want ErrNoState", err)
	}
	// The name is free for a fresh durable Create again.
	if _, err := cat2.Create("lastfm", durTestGraph(t)); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogRestoreWithoutStorage: Restore demands a storage root.
func TestCatalogRestoreWithoutStorage(t *testing.T) {
	cat := NewCatalog()
	if _, err := cat.Restore("x"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("Restore without SetStorage: %v, want ErrBadQuery", err)
	}
	if names, err := cat.StoredNames(); err != nil || names != nil {
		t.Fatalf("StoredNames without storage: %v, %v", names, err)
	}
	if err := cat.DropStorage("x"); err != nil {
		t.Fatalf("DropStorage without storage: %v, want nil", err)
	}
}
