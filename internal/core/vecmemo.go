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

// VectorMemo memoises search-space elimination's reliability vectors,
// From(s) and To(t), on one graph. Each depends only on the graph, Seed,
// Z, its direction and its node: elimination always samples From on call
// 1 and To on call 2 of an mcvec sampler on stream 7 (see elimSampler),
// and an mcvec vector is keyed, a function of its call's key, Z and the
// graph alone, bit-identical at every worker count. A vector found here is
// therefore the vector the solve would have sampled, and no result
// changes. The memo is safe for concurrent use; the vectors it hands out
// are shared and never modified.
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
	seed    int64
	z       int
	forward bool
	node    ugraph.NodeID
}

// NewVectorMemo returns an empty memo of elimination vectors on g, which
// must not be mutated while the memo is in use. Lookups count into counts.
func NewVectorMemo(g *ugraph.Graph, counts *MemoCounts) *VectorMemo {
	return &VectorMemo{g: g, counts: counts, vecs: make(map[vectorKey][]float64)}
}

// vector returns node's From (forward) or To vector under opt's Seed and
// Z. A hit consumes the call index smp would have sampled it on; a miss
// samples it on smp and stores it, unless ctx fired, because a cancelled
// estimate skips shards and its vector is garbage.
func (m *VectorMemo) vector(ctx context.Context, smp *sampling.ParallelSampler, node ugraph.NodeID, forward bool, opt Options) []float64 {
	k := vectorKey{seed: opt.Seed, z: opt.Z, forward: forward, node: node}
	m.mu.Lock()
	vec, ok := m.vecs[k]
	m.mu.Unlock()
	if ok {
		m.counts.Hits.Add(1)
		smp.SkipCall()
		return vec
	}
	m.counts.Misses.Add(1)
	if forward {
		vec = smp.ReliabilityFrom(m.g, node)
	} else {
		vec = smp.ReliabilityTo(m.g, node)
	}
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
