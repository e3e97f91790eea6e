package repro

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

// replicaOpts returns one fixed engine configuration for both ends of a
// replication pair. Bit-identity only holds when primary and replica run
// the same sampler, sample size, seed and worker count — the same contract
// relmaxd enforces by flag discipline.
func replicaOpts() []EngineOption {
	return []EngineOption{
		WithSamplerKind("rss"), WithSampleSize(200), WithSeed(11), WithWorkers(2),
		WithResultCache(32),
	}
}

// storeBatchOf converts an applied mutation batch to its WAL form — the
// exact record a primary's store sees and the feed ships.
func storeBatchOf(epoch uint64, muts ...Mutation) store.Batch {
	b := store.Batch{Epoch: epoch, Muts: make([]store.Mut, len(muts))}
	for i, m := range muts {
		b.Muts[i] = storeMut(m)
	}
	return b
}

// TestApplyReplicatedMirrorsPrimary drives a primary and a replica from
// the same seed graph, ships every committed batch as its WAL record, and
// pins the correctness bar: the replica answers bit-identically to the
// primary at the same epoch, with replication accounted separately from
// local applies.
func TestApplyReplicatedMirrorsPrimary(t *testing.T) {
	ctx := context.Background()
	primary, err := NewEngine(durTestGraph(t), replicaOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := NewEngine(durTestGraph(t), replicaOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	batches := [][]Mutation{
		{SetProb(0, 1, 0.42)},
		{AddEdge(3, 17, 0.7), SetProb(3, 17, 0.65)},
		{RemoveEdge(1, 2), AddEdge(1, 2, 0.9)},
	}
	for _, muts := range batches {
		epoch, err := primary.Apply(ctx, muts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica.ApplyReplicated(storeBatchOf(epoch, muts...))
		if err != nil {
			t.Fatal(err)
		}
		if got != epoch {
			t.Fatalf("replica advanced to %d, primary at %d", got, epoch)
		}
	}

	q := Query{Kind: QueryEstimate, S: 0, T: 12}
	want, err := primary.Estimate(ctx, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.Estimate(ctx, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica estimate %+v, primary %+v (query %v)", got, want, q.Key())
	}

	ps, rs := primary.Stats(), replica.Stats()
	if ps.Applies != uint64(len(batches)) || ps.ReplicatedApplies != 0 {
		t.Fatalf("primary stats: %+v", ps)
	}
	if rs.Applies != 0 || rs.ReplicatedApplies != uint64(len(batches)) || rs.ReplicatedMutations != 5 {
		t.Fatalf("replica stats: %+v", rs)
	}
}

// TestApplyReplicatedGaps pins the typed rejection contract: duplicates,
// skips, empty batches and replay failures all map to ErrReplicaGap and
// leave the replica's epoch untouched (all-or-nothing, like Apply).
func TestApplyReplicatedGaps(t *testing.T) {
	replica, err := NewEngine(durTestGraph(t), replicaOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	base := replica.Epoch()
	if _, err := replica.ApplyReplicated(storeBatchOf(base+1, SetProb(0, 1, 0.5))); err != nil {
		t.Fatal(err)
	}
	cur := replica.Epoch()

	cases := []struct {
		name  string
		batch store.Batch
	}{
		{"duplicate", storeBatchOf(cur, SetProb(0, 1, 0.5))},
		{"skip", storeBatchOf(cur+5, SetProb(0, 1, 0.6))},
		{"empty", store.Batch{Epoch: cur + 1}},
		// Chains correctly but cannot replay: edge (0,1) already exists.
		{"replay failure", storeBatchOf(cur+1, AddEdge(0, 1, 0.5))},
	}
	for _, tc := range cases {
		_, err := replica.ApplyReplicated(tc.batch)
		if !errors.Is(err, ErrReplicaGap) {
			t.Fatalf("%s: err = %v, want ErrReplicaGap", tc.name, err)
		}
		if replica.Epoch() != cur {
			t.Fatalf("%s: epoch moved to %d", tc.name, replica.Epoch())
		}
	}

	replica.Close()
	if _, err := replica.ApplyReplicated(storeBatchOf(cur+1, SetProb(0, 1, 0.7))); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed replica: err = %v, want ErrClosed", err)
	}
}

// TestDurableReplicatedThenApplyReopens: a durable engine logs a
// replicated batch exactly like a local one, so a replicated batch
// followed by an Apply reopens at the epoch the Apply acknowledged, with
// bit-identical estimates and the oracle's edge set.
func TestDurableReplicatedThenApplyReopens(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	g := durTestGraph(t)
	eng, err := NewEngine(g, WithStorage(dir), WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	oracle := g.Clone()
	r := rand.New(rand.NewSource(23))
	muts := randomMutationBatch(t, r, oracle)
	if _, err := eng.ApplyReplicated(storeBatchOf(eng.Epoch()+uint64(len(muts)), muts...)); err != nil {
		t.Fatal(err)
	}
	acked, err := eng.Apply(ctx, randomMutationBatch(t, r, oracle)...)
	if err != nil {
		t.Fatal(err)
	}
	bits := estimateBits(t, eng, 0, 12)
	eng.Close()

	re, err := OpenEngine(dir, WithSeed(7), WithSampleSize(150))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != acked {
		t.Fatalf("reopened at epoch %d, acknowledged %d", re.Epoch(), acked)
	}
	if estimateBits(t, re, 0, 12) != bits {
		t.Fatal("reopened estimate differs from the acknowledged epoch")
	}
	if !reflect.DeepEqual(re.Snapshot().Edges(), oracle.Freeze().Edges()) {
		t.Fatal("reopened edge set differs from the oracle graph")
	}
}

// dirFiles reads every file directly under dir, keyed by name.
func dirFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestResetToSnapshotRefusesDurable: a durable engine refuses a reset with
// ErrBadMutation, leaving its epoch, its counters and every stored byte as
// they were, and keeps committing and reopening where it acknowledged.
func TestResetToSnapshotRefusesDurable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := NewEngine(durTestGraph(t), WithStorage(dir), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, SetProb(0, 1, 0.3)); err != nil {
		t.Fatal(err)
	}
	before, stored := eng.Epoch(), dirFiles(t, dir)
	source := durTestGraph(t)
	source.RestoreVersion(before + 3)
	if err := eng.ResetToSnapshot(storeSnapshotOf(source.Freeze())); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("durable reset: err = %v, want ErrBadMutation", err)
	}
	if eng.Epoch() != before {
		t.Fatalf("refused reset moved the epoch: %d -> %d", before, eng.Epoch())
	}
	if st := eng.Stats(); st.ReplicatedApplies != 0 {
		t.Fatalf("refused reset counted as a replicated apply: %+v", st)
	}
	if !reflect.DeepEqual(dirFiles(t, dir), stored) {
		t.Fatal("refused reset changed the store")
	}
	acked, err := eng.Apply(ctx, SetProb(0, 1, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	re, err := OpenEngine(dir, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != acked {
		t.Fatalf("reopened at epoch %d, acknowledged %d", re.Epoch(), acked)
	}
}

// TestResetToSnapshot pins the re-bootstrap path: the engine adopts the
// snapshot's exact state (including an epoch that moves backwards), the
// result cache is purged rather than lazily trimmed, and the rebuilt
// graph answers bit-identically to an engine constructed from the
// snapshot's source graph directly.
func TestResetToSnapshot(t *testing.T) {
	ctx := context.Background()
	replica, err := NewEngine(durTestGraph(t), replicaOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Run far ahead of the snapshot we will reset to, with a warm cache.
	for i := 0; i < 5; i++ {
		if _, err := replica.Apply(ctx, SetProb(0, 1, 0.3+0.1*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := replica.Estimate(ctx, 0, 12); err != nil {
		t.Fatal(err)
	}
	if replica.cache.len() == 0 {
		t.Fatal("estimate did not warm the cache")
	}

	source := durTestGraph(t)
	source.RestoreVersion(2) // behind the replica: a regression the lazy trim never sees
	snap := storeSnapshotOf(source.Freeze())
	if err := replica.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if replica.Epoch() != 2 {
		t.Fatalf("epoch after reset = %d, want 2", replica.Epoch())
	}
	if replica.cache.len() != 0 {
		t.Fatalf("cache holds %d entries after reset, want 0", replica.cache.len())
	}
	if rs := replica.Stats(); rs.ReplicatedApplies != 1 {
		t.Fatalf("reset not counted as a replicated apply: %+v", rs)
	}

	oracle, err := NewEngine(source, replicaOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	want, err := oracle.Estimate(ctx, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.Estimate(ctx, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-reset estimate %+v, oracle %+v", got, want)
	}

	replica.Close()
	if err := replica.ResetToSnapshot(snap); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed replica: err = %v, want ErrClosed", err)
	}
}

// TestGraphFromSnapshot pins the exported bootstrap primitive: edge-ID
// order reproduces the source graph, and a snapshot whose edges cannot be
// re-added surfaces a typed construction error instead of a partial graph.
func TestGraphFromSnapshot(t *testing.T) {
	source := durTestGraph(t)
	g, err := GraphFromSnapshot(storeSnapshotOf(source.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != source.N() || g.M() != source.M() || g.Version() != source.Version() {
		t.Fatalf("rebuilt n=%d m=%d v=%d, want n=%d m=%d v=%d",
			g.N(), g.M(), g.Version(), source.N(), source.M(), source.Version())
	}
	if !reflect.DeepEqual(g.Edges(), source.Edges()) {
		t.Fatal("rebuilt edge list diverges from source")
	}

	bad := &store.Snapshot{N: 4, Edges: []store.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 1, P: 0.6}}}
	if _, err := GraphFromSnapshot(bad); err == nil {
		t.Fatal("duplicate-edge snapshot accepted")
	}
}

// TestCatalogStoreWrapper pins the replication seam on the catalog: a
// configured wrapper interposes on every durable store the catalog opens,
// an OpenFS failure releases the name reservation, and a nil wrap removes
// the hook.
func TestCatalogStoreWrapper(t *testing.T) {
	root := t.TempDir()
	c := NewCatalog(replicaOpts()...)
	if err := c.SetStorage(root); err != nil {
		t.Fatal(err)
	}
	var wrappedNames []string
	c.SetStoreWrapper(func(name string, s store.Store) store.Store {
		wrappedNames = append(wrappedNames, name)
		return s
	})

	eng, err := c.Create("tapped", durTestGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Durable() {
		t.Fatal("wrapped dataset is not durable")
	}
	if !reflect.DeepEqual(wrappedNames, []string{"tapped"}) {
		t.Fatalf("wrapper saw %v, want [tapped]", wrappedNames)
	}

	// A plain file where the dataset directory should go makes OpenFS fail
	// before NewEngine runs; the reserved name must be released so the name
	// stays usable.
	if err := os.WriteFile(filepath.Join(root, "blocked"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("blocked", durTestGraph(t)); err == nil {
		t.Fatal("Create over a blocking file succeeded")
	}
	if err := os.Remove(filepath.Join(root, "blocked")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("blocked", durTestGraph(t)); err != nil {
		t.Fatalf("name not released after failed create: %v", err)
	}

	c.SetStoreWrapper(nil)
	if _, err := c.Create("untapped", durTestGraph(t)); err != nil {
		t.Fatal(err)
	}
	if len(wrappedNames) != 2 { // tapped + blocked retry; untapped must not appear
		t.Fatalf("wrapper saw %v after removal", wrappedNames)
	}
}

// TestCatalogCreateFromSnapshot pins replica bootstrap through the
// catalog: the dataset starts at the snapshot's exact epoch, is NOT
// durable even under a storage root (a replica is a cache of the
// primary's log, not a second source of truth), and follows the usual
// registration semantics.
func TestCatalogCreateFromSnapshot(t *testing.T) {
	c := NewCatalog(replicaOpts()...)
	if err := c.SetStorage(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	source := durTestGraph(t)
	source.RestoreVersion(9)
	snap := storeSnapshotOf(source.Freeze())

	eng, err := c.CreateFromSnapshot("mirror", snap)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 9 {
		t.Fatalf("bootstrapped at epoch %d, want 9", eng.Epoch())
	}
	if eng.Durable() {
		t.Fatal("snapshot-bootstrapped dataset claims durability")
	}
	stored, err := c.StoredNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 0 {
		t.Fatalf("replica bootstrap left stored state: %v", stored)
	}

	if _, err := c.CreateFromSnapshot("mirror", snap); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate name: err = %v, want ErrDatasetExists", err)
	}
	bad := &store.Snapshot{N: 2, Edges: []store.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 1, P: 0.5}}}
	if _, err := c.CreateFromSnapshot("broken", bad); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if _, err := c.CreateFromSnapshot("broken", snap); err != nil {
		t.Fatalf("name not released after failed bootstrap: %v", err)
	}

	c.SetMaxDatasets(2)
	if _, err := c.CreateFromSnapshot("overflow", snap); !errors.Is(err, ErrCatalogFull) {
		t.Fatalf("over limit: err = %v, want ErrCatalogFull", err)
	}
}
