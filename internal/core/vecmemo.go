package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// maxMemoEntries bounds one VectorMemo at 2²⁰ stored float64 entries
// (8 MiB). Past it, vectors are sampled and not stored.
const maxMemoEntries = 1 << 20

// VectorMemo memoises search-space elimination's reliability vectors on
// one graph. A vector is keyed by its call seed (see elimCallSeed), Z, its
// direction and its node: an mcvec vector is a function of its call's key,
// Z and the graph alone, bit-identical at every worker count, so a vector
// found here is the vector the solve would have sampled, and no result
// changes. The memo is safe for concurrent use; the vectors it hands out
// are shared and never modified. It saves whole vectors on one epoch only;
// what carries across epochs is below it, in the pooled mcvec samplers,
// which keep each call seed's edge masks in mask views and start the next
// epoch's view from them (see sampling.MCVec).
type VectorMemo struct {
	g      *ugraph.Graph
	counts *MemoCounts

	mu      sync.Mutex
	vecs    map[vectorKey][]float64
	entries int // float64s held in vecs
}

// MemoCounts tallies VectorMemo lookups; one may serve many memos.
type MemoCounts struct {
	Hits, Misses atomic.Uint64
}

type vectorKey struct {
	seed    int64 // the call seed
	z       int
	forward bool
	node    ugraph.NodeID
}

// NewVectorMemo returns an empty memo of elimination vectors on g, which
// must not be mutated while the memo is in use. Lookups count into counts.
func NewVectorMemo(g *ugraph.Graph, counts *MemoCounts) *VectorMemo {
	return &VectorMemo{g: g, counts: counts, vecs: make(map[vectorKey][]float64)}
}

// vector returns node's From (forward) or To vector on g under callSeed
// at smp's Z. A nil memo, or one built for another graph, samples it on
// smp; otherwise a hit touches no sampler, and a miss samples it and
// stores it, unless ctx fired, because a cancelled estimate skips lane
// words and its vector is garbage.
func (m *VectorMemo) vector(ctx context.Context, smp *sampling.ParallelSampler, g *ugraph.Graph, node ugraph.NodeID, forward bool, callSeed int64) []float64 {
	if m == nil || m.g != g {
		return smp.VectorFor(g.Freeze(), node, forward, callSeed)
	}
	k := vectorKey{seed: callSeed, z: smp.SampleSize(), forward: forward, node: node}
	m.mu.Lock()
	vec, ok := m.vecs[k]
	m.mu.Unlock()
	if ok {
		m.counts.Hits.Add(1)
		return vec
	}
	m.counts.Misses.Add(1)
	vec = smp.VectorFor(g.Freeze(), node, forward, callSeed)
	if ctx.Err() != nil {
		return vec
	}
	m.mu.Lock()
	if _, ok := m.vecs[k]; !ok && m.entries+len(vec) <= maxMemoEntries {
		m.vecs[k] = vec
		m.entries += len(vec)
	}
	m.mu.Unlock()
	return vec
}
