package repro

import (
	"errors"
	"fmt"

	"repro/internal/store"
)

// Replication support. A read replica mirrors a primary engine by applying
// the primary's committed mutation batches — the exact store.Batch records
// the primary appended to its WAL — through the commit Apply makes: one
// more delta layer over the replica's CSR. A replica at epoch E therefore
// answers every query bit-identically to the primary's pinned-epoch-E
// snapshot: the epoch was built by the same operations in the same order,
// and the epoch is part of every query fingerprint, so caches
// self-invalidate as the replica advances. See internal/replication for
// the feed transport.

// ErrReplicaGap reports a replicated batch that does not chain onto the
// replica's current epoch (its PrevEpoch is not the engine's epoch), or a
// batch that fails to commit. The replica has missed history it can never
// recover incrementally — the caller must re-bootstrap from a primary
// snapshot (ResetToSnapshot).
var ErrReplicaGap = errors.New("replica gap: batch does not chain onto current epoch")

// ApplyReplicated commits one replicated mutation batch — a batch the
// primary already validated, applied and acknowledged — and returns the new
// epoch. It is the follower-side counterpart of Apply and shares its
// commit: the same delta layer, the same background compaction and, on a
// durable engine, the same WAL append before the epoch rotates, so a
// replicated batch survives a reopen exactly like a local one. It counts in
// ReplicatedApplies / ReplicatedMutations, distinct from local Apply
// traffic. (relmaxd replicas are memoryless and re-bootstrap over the
// feed; they never attach storage.)
//
// The batch must chain: b.PrevEpoch() must equal the engine's current
// epoch, else ErrReplicaGap — duplicates (b.Epoch <= current) and skips
// alike. A batch that chains but fails to commit also maps to ErrReplicaGap
// (the replica has diverged; incremental repair is impossible), never a
// partial application: the batch is all-or-nothing exactly like Apply. A
// failed durable append is not a gap: it leaves the epoch unchanged and
// the batch may be retried.
func (e *Engine) ApplyReplicated(b store.Batch) (uint64, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.closed.Load() {
		return 0, fmt.Errorf("repro: ApplyReplicated: %w", ErrClosed)
	}
	cur := e.snap.Load()
	if len(b.Muts) == 0 {
		return 0, fmt.Errorf("repro: ApplyReplicated: empty batch at epoch %d: %w", b.Epoch, ErrReplicaGap)
	}
	if b.PrevEpoch() != cur.csr.Epoch() {
		return 0, fmt.Errorf("repro: ApplyReplicated: batch epoch %d chains from %d, replica at %d: %w",
			b.Epoch, b.PrevEpoch(), cur.csr.Epoch(), ErrReplicaGap)
	}
	epoch, i, err := e.commitLocked(cur, mutationsFromStore(b.Muts))
	if err != nil {
		if i < 0 {
			return 0, fmt.Errorf("repro: ApplyReplicated: durable append: %w", err)
		}
		return 0, fmt.Errorf("repro: ApplyReplicated: batch epoch %d mutation %d: %v: %w",
			b.Epoch, i, err, ErrReplicaGap)
	}
	e.replicatedApplies.Add(1)
	e.replicatedMutations.Add(uint64(len(b.Muts)))
	return epoch, nil
}

// ResetToSnapshot replaces the engine's graph wholesale with the state a
// primary checkpoint describes — the replica re-bootstrap path, taken on
// first join and whenever the feed reports a gap. In-flight queries finish
// on their pinned snapshots; the result cache is purged outright (a
// re-bootstrap may move the epoch backwards, which the lazy epoch trim was
// never designed to see). Counts as one replicated apply.
//
// A durable engine refuses the reset with an error wrapping ErrBadMutation
// and nothing changed: the reset would swap the graph without touching
// the store, so the next commit would log a batch that does not chain onto
// the stored state and a reopen would land behind it.
func (e *Engine) ResetToSnapshot(s *store.Snapshot) error {
	g, err := graphFromSnapshot(s)
	if err != nil {
		return fmt.Errorf("repro: ResetToSnapshot: %w", err)
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("repro: ResetToSnapshot: %w", ErrClosed)
	}
	if e.store != nil {
		return fmt.Errorf("repro: ResetToSnapshot: durable engine: %w", ErrBadMutation)
	}
	next := newFlatSnapshot(g)
	if e.cache != nil {
		e.cache.purge()
		e.cache.setEpoch(next.csr.Epoch())
	}
	e.snap.Store(next)
	e.replicatedApplies.Add(1)
	return nil
}

// GraphFromSnapshot rebuilds the graph a store.Snapshot describes, stamped
// with the snapshotted epoch — the bootstrap primitive replicas use to
// build an engine from a shipped primary checkpoint. Re-adding the edges in
// snapshot (edge-ID) order reproduces the primary's adjacency rows, and
// therefore its frozen CSR, byte for byte.
func GraphFromSnapshot(s *store.Snapshot) (*Graph, error) {
	g, err := graphFromSnapshot(s)
	if err != nil {
		return nil, fmt.Errorf("repro: GraphFromSnapshot: %w", err)
	}
	return g, nil
}
