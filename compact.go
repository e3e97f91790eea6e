package repro

import (
	"context"
	"fmt"
)

// Compaction. A delta-committing engine (the default — see Apply) stacks
// small overlay epochs over the last flat CSR. Each layer is cheap to
// commit but adds a constant to every touched-row read, and the chain's
// accumulated edits are copied into each further commit, so the chain must
// stay short. The compactor folds it: rebuild the logical epoch as a flat
// graph from the layered CSR's canonical edge order (the O(N+M) rebuild
// Apply no longer pays per batch) and republish it as a flat snapshot at
// the SAME epoch. Readers never notice: the flat CSR answers every query
// bit-identically to the layered one (pinned by the differential suites),
// the epoch does not change, so cache entries and query fingerprints stay
// valid across the fold.
//
// Compaction triggers on whichever comes first: chain depth reaching
// defaultCompactDepth layers, the delta-arc fraction of the base reaching
// defaultCompactFraction, a checkpoint (which serializes the
// materialized epoch anyway, so the fold is free), or an explicit
// Engine.Compact call. Threshold-tripped compaction runs on a background
// goroutine, single-flighted, holding applyMu only while it folds — Apply
// latency stays O(batch) except when a commit lands while the fold holds
// the lock.

// Default compaction thresholds: fold the chain when it reaches this many
// layers or when delta arcs reach this fraction of the base arc count.
const (
	defaultCompactDepth    = 16
	defaultCompactFraction = 0.25
)

// WithCacheWarming re-warms the result cache after every epoch rotation:
// the top-n most-recently-used fingerprints resident for the outgoing
// epoch are re-submitted against the new epoch through the normal job
// queue, at most one at a time, so popular queries are hot again before
// clients re-ask them. Warming is strictly best-effort and sheddable — it
// stops at the first ErrOverloaded (client traffic keeps priority), skips
// a rotation entirely if the previous rotation is still warming, and
// counts completed warms in Stats().CacheWarmed. n <= 0 (the default)
// disables it; without WithResultCache the option is inert.
func WithCacheWarming(n int) EngineOption {
	return func(e *Engine) { e.warmN = n }
}

// Compact forces the engine's delta chain to fold into a flat CSR at the
// current epoch. On an already-flat snapshot it is a no-op returning nil. It serializes with Apply; queries pinned to
// the layered snapshot finish on it unperturbed.
func (e *Engine) Compact() error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("repro: Compact: %w", ErrClosed)
	}
	if _, err := e.compactLocked(); err != nil {
		return fmt.Errorf("repro: Compact: %w", err)
	}
	return nil
}

// compactLocked folds the current snapshot's delta chain into a fresh flat
// snapshot at the same epoch and publishes it; no-op when already flat.
// The epoch is unchanged, so the cache epoch is NOT rotated — entries and
// in-flight fingerprints remain valid. A chain whose rebuild fails stays
// published as it is. Callers hold applyMu.
func (e *Engine) compactLocked() (*engineSnapshot, error) {
	cur := e.snap.Load()
	if cur.csr.Depth() == 0 {
		return cur, nil
	}
	g, err := cur.graph()
	if err != nil {
		return nil, err
	}
	flat := newFlatSnapshot(g)
	// The twin is published over the same *Graph, so cur's memoised
	// vectors stay correct for it.
	flat.vecsOnce.Do(func() { flat.vecs = cur.vectors(g, &e.vecCounts) })
	e.snap.Store(flat)
	e.compactions.Add(1)
	return flat, nil
}

// maybeCompact kicks the background compactor if next's chain crossed a
// threshold. Single-flighted: a second trip while a fold is in progress is
// dropped (the running fold will catch it — it re-loads the snapshot under
// the lock).
func (e *Engine) maybeCompact(next *engineSnapshot) {
	if next.csr.Depth() == 0 {
		return
	}
	if next.csr.Depth() < e.compactDepth && next.csr.DeltaFraction() < e.compactFrac {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.compacting.Store(false)
		// Fails only when closed, or with the chain's rebuild error, which
		// every solve on the chain already reports; neither needs handling
		// here.
		_ = e.Compact()
	}()
}

// maybeWarmCache starts the epoch-rotation cache warmer: re-submit the
// top-warmN MRU fingerprints that were resident for prevEpoch so their
// answers are recomputed on the just-published epoch. Runs on its own
// goroutine, one query at a time through the normal bounded job queue;
// ErrOverloaded or Close stops the sweep immediately.
func (e *Engine) maybeWarmCache(prevEpoch uint64) {
	if e.cache == nil || e.warmN <= 0 {
		return
	}
	if !e.warming.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.warming.Store(false)
		for _, q := range e.cache.warmCandidates(prevEpoch, e.warmN) {
			job, err := e.Submit(context.Background(), q)
			if err != nil {
				return // overloaded or closed: shed the rest of the sweep
			}
			<-job.Done()
			if _, jerr := job.Result(); jerr == nil {
				e.cacheWarmed.Add(1)
			}
		}
	}()
}
