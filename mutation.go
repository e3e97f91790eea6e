package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/store"
	"repro/internal/ugraph"
)

// ErrBadMutation marks a mutation batch the engine rejected: adding an
// edge that already exists, touching a missing edge, out-of-range
// endpoints or probabilities outside [0, 1]. The batch is atomic — on any
// bad mutation nothing is applied and the epoch does not advance.
var ErrBadMutation = errors.New("invalid mutation")

// ErrClosed reports an operation against a closed engine (one removed
// from its Catalog, or Close()d directly). Submissions and mutations are
// rejected; queries already in flight finish on their pinned snapshots.
var ErrClosed = errors.New("engine closed")

// MutationOp names one graph mutation kind.
type MutationOp string

// The mutation kinds accepted by Engine.Apply.
const (
	// MutAddEdge inserts edge (U, V) with probability P.
	MutAddEdge MutationOp = "add-edge"
	// MutSetProb re-estimates the existence probability of edge (U, V) to P.
	MutSetProb MutationOp = "set-prob"
	// MutRemoveEdge deletes edge (U, V).
	MutRemoveEdge MutationOp = "remove-edge"
)

// Mutation is one edge-level change to an engine's graph; batches of them
// are committed atomically by Engine.Apply. Construct with AddEdge,
// SetProb and RemoveEdge.
type Mutation struct {
	// Op selects the mutation kind.
	Op MutationOp
	// U and V are the edge endpoints (orientation ignored on undirected
	// graphs).
	U, V NodeID
	// P is the edge probability for add-edge and set-prob.
	P float64
}

// AddEdge is the mutation inserting edge (u, v) with probability p.
func AddEdge(u, v NodeID, p float64) Mutation {
	return Mutation{Op: MutAddEdge, U: u, V: v, P: p}
}

// SetProb is the mutation re-estimating edge (u, v)'s probability to p.
func SetProb(u, v NodeID, p float64) Mutation {
	return Mutation{Op: MutSetProb, U: u, V: v, P: p}
}

// RemoveEdge is the mutation deleting edge (u, v).
func RemoveEdge(u, v NodeID) Mutation {
	return Mutation{Op: MutRemoveEdge, U: u, V: v}
}

// Apply atomically commits a batch of mutations and returns the new graph
// epoch. The next epoch is built aside and rotated in with one pointer
// swap, so queries and jobs that already pinned the previous snapshot keep
// running on it unperturbed and return results bit-identical to a
// never-mutated engine. Queries canonicalized after Apply returns see the
// new epoch: their fingerprints change (the epoch is part of Query.Key),
// so the result cache self-invalidates — stale-epoch entries can no longer
// be hit and are evicted lazily.
//
// The batch is all-or-nothing: the first invalid mutation (duplicate add,
// missing edge, bad probability — see ErrBadMutation) or a fired ctx
// aborts the whole batch with the epoch unchanged. Mutations are applied
// in order, so a batch may remove an edge it just added. Concurrent
// Applies serialize.
//
// Cost: the batch commits as a persistent delta epoch layered over the
// previous CSR — shared base arrays plus materialized rows for only the
// touched nodes — so a commit is O(batch · degree of the touched nodes),
// independent of graph size, for adds, re-probes AND removals. Layers
// stack; a background compactor folds the chain back into a flat CSR when
// it reaches a fixed depth or delta-arc fraction (see compact.go and
// Engine.Compact), amortizing the O(N + M) rebuild over many commits.
// Reads on a layered epoch are bit-identical to a flat rebuild at the same
// epoch (the differential suites pin this).
func (e *Engine) Apply(ctx context.Context, muts ...Mutation) (uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.closed.Load() {
		return 0, fmt.Errorf("repro: Apply: %w", ErrClosed)
	}
	cur := e.snap.Load()
	if len(muts) == 0 {
		return cur.csr.Epoch(), nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return 0, fmt.Errorf("repro: Apply interrupted at mutation %d/%d: %w", 0, len(muts), cerr)
	}
	epoch, i, err := e.commitLocked(cur, muts)
	if err != nil {
		if i < 0 {
			return 0, fmt.Errorf("repro: Apply: durable append: %w", err)
		}
		m := muts[i]
		return 0, fmt.Errorf("repro: Apply: mutation %d (%s %d-%d): %v: %w",
			i, m.Op, m.U, m.V, err, ErrBadMutation)
	}
	e.applies.Add(1)
	e.mutationsApplied.Add(uint64(len(muts)))
	return epoch, nil
}

// commitLocked commits muts over cur as one more delta layer and publishes
// it — the one commit path of Apply and ApplyReplicated — and returns the
// new epoch. A mutation the delta layer rejects fails the commit with its
// index and cause; a failed durable append fails it with index -1. Either
// way nothing is published and the epoch does not advance. Callers hold
// applyMu and have checked that muts is non-empty.
func (e *Engine) commitLocked(cur *engineSnapshot, muts []Mutation) (uint64, int, error) {
	next, i, err := deltaSnapshot(cur, muts)
	if err != nil {
		return 0, i, err
	}
	// Durability barrier: the validated batch goes to the WAL — and is
	// fsynced — before the snapshot rotates. If the append fails the epoch
	// does not advance and the caller may retry; recovery can therefore
	// never see an epoch the log does not carry, and every acknowledged
	// epoch survives a crash.
	var appended store.Batch
	if e.store != nil {
		if appended, err = e.appendToWAL(next.csr.Epoch(), muts); err != nil {
			return 0, -1, err
		}
	}
	// Rotate the cache epoch BEFORE publishing the snapshot: a query that
	// canonicalizes against the new snapshot and races its result into the
	// cache must find the cache already on the new epoch, or the lazy trim
	// would reclaim the fresh entry as stale. The reverse window — an
	// old-epoch result put after the epoch rotates — is trimmed as stale,
	// which is exactly what it is about to become.
	if e.cache != nil {
		e.cache.setEpoch(next.csr.Epoch())
	}
	e.snap.Store(next)
	e.deltaCommits.Add(1)
	if e.store != nil {
		e.pendingBatches++
		e.pendingBytes += int64(store.EncodedBatchSize(appended))
		if e.pendingBatches >= e.ckptBatches || e.pendingBytes >= e.ckptBytes {
			// Best-effort: the batch is already durable in the WAL, so a
			// failed checkpoint does not fail the commit — it shows up in
			// Stats.CheckpointErrors and the next commit retries.
			_ = e.checkpointLocked()
		}
	}
	e.maybeCompact(e.snap.Load())
	e.maybeWarmCache(cur.csr.Epoch())
	return next.csr.Epoch(), 0, nil
}

// deltaSnapshot builds the snapshot committing muts over cur as one more
// delta layer — the O(batch) commit of commitLocked and WAL replay
// (RecoverEngine). On failure it returns the offending mutation's index
// and the underlying cause; cur is untouched either way.
func deltaSnapshot(cur *engineSnapshot, muts []Mutation) (*engineSnapshot, int, error) {
	edits := make([]ugraph.DeltaEdit, len(muts))
	for i, m := range muts {
		ed, err := deltaEditOf(m)
		if err != nil {
			return nil, i, err
		}
		edits[i] = ed
	}
	dcsr, err := cur.csr.Delta(edits)
	if err != nil {
		var de *ugraph.DeltaError
		if errors.As(err, &de) {
			return nil, de.Index, de.Err
		}
		return nil, 0, err
	}
	return &engineSnapshot{csr: dcsr}, 0, nil
}

// deltaEditOf converts one Mutation to its ugraph delta form.
func deltaEditOf(m Mutation) (ugraph.DeltaEdit, error) {
	switch m.Op {
	case MutAddEdge:
		return ugraph.DeltaEdit{Op: ugraph.DeltaAdd, U: m.U, V: m.V, P: m.P}, nil
	case MutSetProb:
		return ugraph.DeltaEdit{Op: ugraph.DeltaSetProb, U: m.U, V: m.V, P: m.P}, nil
	case MutRemoveEdge:
		return ugraph.DeltaEdit{Op: ugraph.DeltaRemove, U: m.U, V: m.V}, nil
	default:
		return ugraph.DeltaEdit{}, fmt.Errorf("unknown op %q", m.Op)
	}
}

// Close retires the engine: new Submits and Applies fail with ErrClosed
// and every non-terminal job is cancelled (cooperatively — they finish as
// JobCancelled within one sample block). Synchronous queries already in
// flight complete on their pinned snapshots. Close is idempotent; a
// Catalog calls it when a dataset is removed.
func (e *Engine) Close() {
	e.applyMu.Lock()
	already := e.closed.Swap(true)
	if !already && e.store != nil {
		// The WAL is fsynced on every Apply, so closing loses nothing;
		// recovery replays whatever the last checkpoint missed.
		_ = e.store.Close()
	}
	e.applyMu.Unlock()
	if already {
		return
	}
	e.liveMu.Lock()
	jobs := make([]*Job, 0, len(e.liveJobs))
	for j := range e.liveJobs {
		jobs = append(jobs, j)
	}
	e.liveMu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// Closed reports whether the engine has been Close()d.
func (e *Engine) Closed() bool { return e.closed.Load() }
