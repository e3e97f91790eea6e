package repro

import (
	"fmt"

	"repro/internal/store"
)

// Durability. An engine is in-memory by default; WithStorage (or WithStore)
// attaches a per-dataset store.Store and the engine becomes durable:
//
//   - Engine.Apply appends the committed batch (epoch + encoded mutations,
//     CRC32C-framed) to the write-ahead log and fsyncs it BEFORE rotating
//     the new snapshot in. When Apply returns, the batch is on disk.
//   - A checkpoint policy (WithCheckpointEvery, or Engine.Checkpoint
//     explicitly) serializes the current epoch's edge set to a snapshot
//     file and truncates the WAL, bounding replay time.
//   - OpenEngine (or Catalog.Restore) recovers: the newest valid checkpoint
//     is loaded, the WAL since it replayed as one delta layer — the
//     commit Apply makes — and the engine arrives at the exact committed
//     epoch — answering every query bit-identically to the engine that
//     crashed. A torn or corrupt WAL tail is truncated with a logged
//     warning, never a panic.
//
// NewEngine with storage INITIALIZES the directory (any previous state is
// reset and the fresh graph checkpointed); recovery is only ever the
// explicit OpenEngine / RecoverEngine / Catalog.Restore path, so a Create
// can never silently resurrect stale state under a reused name.

// Default checkpoint policy: checkpoint after this many committed batches
// or this many WAL bytes, whichever comes first.
const (
	defaultCkptBatches = 64
	defaultCkptBytes   = 4 << 20
)

// WithStorage makes the engine durable on plain files under dir (created
// if missing). For NewEngine this is fresh initialization: existing state
// under dir is reset. Use OpenEngine to recover instead.
func WithStorage(dir string) EngineOption {
	return func(e *Engine) { e.storageDir = dir }
}

// WithStore attaches a pre-built durability backend — store.NewMem in
// tests, a custom implementation behind the same interface later (the
// replication seam the roadmap names). Takes precedence over WithStorage.
// The engine owns s from here: Engine.Close closes it. The Store interface
// lives in internal/store, so this option is usable from inside the module
// only; external callers use WithStorage.
func WithStore(s store.Store) EngineOption {
	return func(e *Engine) { e.store = s }
}

// WithCheckpointEvery sets the auto-checkpoint policy for a durable
// engine: a checkpoint is cut after batches committed Apply calls or
// bytes of WAL growth since the last checkpoint, whichever trips first.
// Values <= 0 select the defaults (64 batches, 4 MiB). Without storage
// the option is inert.
func WithCheckpointEvery(batches int, bytes int64) EngineOption {
	return func(e *Engine) { e.ckptBatches, e.ckptBytes = batches, bytes }
}

// withRecoveredStore attaches an already-recovered store: initStorage must
// keep its state rather than reset it, and the pending counters start at
// the recovered WAL backlog so the policy compacts it on schedule.
func withRecoveredStore(s store.Store, pendingBatches int, pendingBytes int64) EngineOption {
	return func(e *Engine) {
		e.store = s
		e.recoveredStore = true
		e.pendingBatches = pendingBatches
		e.pendingBytes = pendingBytes
	}
}

// initStorage finishes engine construction for the durable case: open the
// filesystem store if only a directory was given, resolve the checkpoint
// policy, and — unless the store arrived via recovery — reset it and cut
// the initial checkpoint of c so a crash before the first Apply still
// recovers to the created state.
func (e *Engine) initStorage(c *CSR) error {
	if e.store == nil && e.storageDir != "" {
		fs, err := store.OpenFS(e.storageDir)
		if err != nil {
			return fmt.Errorf("open storage %s: %w", e.storageDir, err)
		}
		e.store = fs
	}
	if e.store == nil {
		return nil
	}
	if e.ckptBatches <= 0 {
		e.ckptBatches = defaultCkptBatches
	}
	if e.ckptBytes <= 0 {
		e.ckptBytes = defaultCkptBytes
	}
	if e.recoveredStore {
		return nil
	}
	if err := e.store.Reset(); err != nil {
		return fmt.Errorf("reset storage: %w", err)
	}
	if err := e.store.Checkpoint(storeSnapshotOf(c)); err != nil {
		return fmt.Errorf("initial checkpoint: %w", err)
	}
	e.checkpoints.Add(1)
	return nil
}

// Durable reports whether the engine persists its graph (WithStorage /
// WithStore, or recovery via OpenEngine).
func (e *Engine) Durable() bool { return e.store != nil }

// Checkpoint forces a checkpoint of the current epoch: the edge set is
// serialized to a snapshot file (fsync + atomic rename) and the WAL
// truncated. On a non-durable engine it is a documented no-op returning
// nil. It serializes with Apply, so the checkpointed epoch is the engine's
// epoch at some point during the call.
func (e *Engine) Checkpoint() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("repro: Checkpoint: %w", ErrClosed)
	}
	if e.store == nil {
		return nil
	}
	if err := e.checkpointLocked(); err != nil {
		return fmt.Errorf("repro: Checkpoint: %w", err)
	}
	return nil
}

// checkpointLocked cuts a checkpoint of the current epoch and resets the
// policy counters. A layered epoch is compacted first — the checkpoint
// file always describes the flat form, so recovery of an epoch that was
// layered when it checkpointed is byte-identical to recovering the same
// epoch committed flat (and the fold was about to be paid anyway; the
// checkpoint just advances it). Callers hold applyMu. Failures count in
// CheckpointErrors and leave the counters running, so the next Apply
// retries; the WAL already holds every committed batch, so a failed
// checkpoint loses nothing.
func (e *Engine) checkpointLocked() error {
	snap, err := e.compactLocked()
	if err != nil {
		e.checkpointErrors.Add(1)
		return err
	}
	if err := e.store.Checkpoint(storeSnapshotOf(snap.csr)); err != nil {
		e.checkpointErrors.Add(1)
		return err
	}
	e.checkpoints.Add(1)
	e.pendingBatches, e.pendingBytes = 0, 0
	return nil
}

// appendToWAL persists one committed batch (already validated; epoch is
// the post-batch epoch the batch commits) before the snapshot rotates. An
// error means the batch is NOT durable and Apply must fail without
// advancing the epoch.
func (e *Engine) appendToWAL(epoch uint64, muts []Mutation) (store.Batch, error) {
	b := store.Batch{Epoch: epoch, Muts: make([]store.Mut, len(muts))}
	for i, m := range muts {
		b.Muts[i] = storeMut(m)
	}
	if err := e.store.AppendBatch(b); err != nil {
		return store.Batch{}, err
	}
	return b, nil
}

// storeMut converts one validated Mutation to its WAL form. RemoveEdge
// carries canonical zero probability bits regardless of the caller's P —
// the codec rejects anything else.
func storeMut(m Mutation) store.Mut {
	sm := store.Mut{U: m.U, V: m.V}
	switch m.Op {
	case MutAddEdge:
		sm.Op, sm.P = store.OpAddEdge, m.P
	case MutSetProb:
		sm.Op, sm.P = store.OpSetProb, m.P
	case MutRemoveEdge:
		sm.Op = store.OpRemoveEdge
	}
	return sm
}

// mutationFromStore converts one recovered WAL mutation back to the form
// Apply's machinery executes.
func mutationFromStore(m store.Mut) Mutation {
	switch m.Op {
	case store.OpSetProb:
		return SetProb(m.U, m.V, m.P)
	case store.OpRemoveEdge:
		return RemoveEdge(m.U, m.V)
	default:
		return AddEdge(m.U, m.V, m.P)
	}
}

// mutationsFromStore converts a WAL batch's mutations — recovered from
// the log or received from a primary's feed — to the form Apply commits.
func mutationsFromStore(muts []store.Mut) []Mutation {
	out := make([]Mutation, len(muts))
	for i, m := range muts {
		out[i] = mutationFromStore(m)
	}
	return out
}

// storeSnapshotOf serializes an epoch's committed state: epoch,
// orientation and every edge in the CSR's canonical order (edge-ID order on
// a flat snapshot; see CSR.Edges for a layered one). That order is what
// makes recovery bit-identical — re-adding edges in it reproduces the
// adjacency rows (and therefore the frozen CSR) byte for byte.
func storeSnapshotOf(c *CSR) *store.Snapshot {
	edges := c.Edges()
	s := &store.Snapshot{
		Epoch:    c.Epoch(),
		Directed: c.Directed(),
		N:        int32(c.N()),
		Edges:    make([]store.Edge, len(edges)),
	}
	for i, e := range edges {
		s.Edges[i] = store.Edge{U: e.U, V: e.V, P: e.P}
	}
	return s
}

// graphFromSnapshot rebuilds the graph a checkpoint describes, stamped
// with the checkpointed epoch.
func graphFromSnapshot(s *store.Snapshot) (*Graph, error) {
	g := NewGraph(int(s.N), s.Directed)
	for i, e := range s.Edges {
		if _, err := g.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, fmt.Errorf("snapshot edge %d (%d,%d): %w", i, e.U, e.V, err)
		}
	}
	g.RestoreVersion(s.Epoch)
	return g, nil
}

// OpenEngine recovers a durable engine from the state WithStorage wrote
// under dir: the newest valid checkpoint plus the WAL replayed through the
// delta commit Apply uses (see RecoverEngine), arriving at the exact
// committed epoch. A torn or corrupt WAL tail is truncated with a logged
// warning. It fails with store.ErrNoState if dir holds no state (use
// NewEngine with WithStorage to create one) and store.ErrCorrupt if no
// checkpoint decodes or the WAL cannot be replayed.
func OpenEngine(dir string, opts ...EngineOption) (*Engine, error) {
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, fmt.Errorf("repro: OpenEngine %s: %w", dir, err)
	}
	eng, err := RecoverEngine(fs, opts...)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("repro: OpenEngine %s: %w", dir, err)
	}
	return eng, nil
}

// RecoverEngine recovers a durable engine from an already-open store:
// checkpoint load, epoch checks, WAL replay. Every batch must chain onto
// the epoch before it; the chained mutations then commit as one delta
// layer over the checkpoint — the commit Apply makes, with the same
// validation — and the engine starts on that layer's canonical rebuild,
// the flat graph compaction would publish for the same epoch. A batch that
// does not chain or cannot be replayed fails with store.ErrCorrupt naming
// its epoch (and the offending mutation's index within it). The engine
// owns s on success (Engine.Close closes it); on error the caller keeps
// ownership.
func RecoverEngine(s store.Store, opts ...EngineOption) (*Engine, error) {
	snap, batches, err := s.Recover()
	if err != nil {
		return nil, err
	}
	g, err := graphFromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("checkpoint epoch %d: %w", snap.Epoch, err)
	}
	var muts []Mutation
	var walBytes int64
	epoch := g.Version()
	for _, b := range batches {
		if b.PrevEpoch() != epoch {
			return nil, fmt.Errorf("%w: WAL batch epoch %d does not chain from %d",
				store.ErrCorrupt, b.Epoch, epoch)
		}
		muts = append(muts, mutationsFromStore(b.Muts)...)
		epoch = b.Epoch
		walBytes += int64(store.EncodedBatchSize(b))
	}
	if len(muts) > 0 {
		next, i, err := deltaSnapshot(newFlatSnapshot(g), muts)
		if err != nil {
			k := 0
			for ; i >= len(batches[k].Muts); k++ {
				i -= len(batches[k].Muts)
			}
			return nil, fmt.Errorf("%w: replaying batch epoch %d mutation %d: %v",
				store.ErrCorrupt, batches[k].Epoch, i, err)
		}
		if g, err = next.graph(); err != nil {
			return nil, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
		}
	}
	return NewEngine(g, append(append([]EngineOption(nil), opts...),
		withRecoveredStore(s, len(batches), walBytes))...)
}
