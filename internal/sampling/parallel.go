package sampling

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// DefaultShards is the maximum number of deterministic work shards a
// ParallelSampler splits a sample budget into (small budgets use fewer;
// see minShardBudget). The shard structure — not the worker count — fixes
// the randomness: shard i always draws from the stream Split(callSeed, i)
// and the shard estimates are merged in shard order, so the result is
// bit-identical whether one goroutine processes all shards or eight
// goroutines race over them.
const DefaultShards = 16

// ParallelSampler runs a serial estimator's sample budget across a worker
// pool. It is safe for concurrent use: every public call freezes the graph
// once (a cached CSR snapshot), atomically claims a call index (which
// decorrelates successive calls, mirroring the advancing RNG state of a
// serial sampler), leases per-worker serial samplers from its kind's
// process-wide warm pool, and merges per-shard results in a fixed order
// (mcvec's keyed vectors split their lane words over the workers instead,
// and add up integer lane counts). For a given seed the i-th call returns
// bit-identical results at any worker count; concurrent callers are
// race-free but observe call indices in arrival order. VectorFor is the
// one entry that claims no index: its caller names the call seed.
type ParallelSampler struct {
	workers int
	seed    atomic.Int64
	z       atomic.Int64
	call    atomic.Int64
	kind    *estimatorKind
	canceller
}

// ErrUnknownSampler marks an estimator kind this package does not build.
var ErrUnknownSampler = errors.New("unknown sampler")

// estimatorKind is one row of the kind table: the serial constructor, the
// budget quantum and the kind's warm pool.
type estimatorKind struct {
	name   string
	newSmp func(z int, seed int64) Sampler
	// quantum is the estimator's budget granularity (64 for mcvec's lane
	// blocks, 1 for the scalar kinds); see shardBudgetsFor.
	quantum int
	// keyed marks a kind whose From/To vectors are keyed (mcvec's, see
	// MCVec): a vector call splits its lane words over the workers instead
	// of sharding its budget.
	keyed bool
	// pool holds idle serial samplers, shared by every ParallelSampler of
	// the kind in the process, so their scratch arrays (epoch-stamped
	// visited/edge-state buffers, RSS arenas, lane scratch) stay sized to
	// the graphs being served instead of being rebuilt per request.
	// Pooling never affects results: a leased sampler is reseeded, resized
	// and bound to its context before it estimates, and its scratch only
	// grows.
	pool sync.Pool
}

// kinds is the estimator kind table ("mc", "rss" and "mcvec").
var kinds = []*estimatorKind{
	{name: "mc", newSmp: func(z int, seed int64) Sampler { return NewMonteCarlo(z, seed) }, quantum: 1},
	{name: "rss", newSmp: func(z int, seed int64) Sampler { return NewRSS(z, seed) }, quantum: 1},
	{name: "mcvec", newSmp: func(z int, seed int64) Sampler { return NewMCVec(z, seed) }, quantum: laneBlock, keyed: true},
}

// kindOf looks an estimator kind up in the table. Its error is the one
// place the kind list is spelled out; every caller wraps it.
func kindOf(kind string) (*estimatorKind, error) {
	for _, k := range kinds {
		if k.name == kind {
			return k, nil
		}
	}
	return nil, fmt.Errorf("sampling: %w %q (want mc, rss or mcvec)", ErrUnknownSampler, kind)
}

// CheckKind returns nil if kind names a built-in estimator and an error
// wrapping ErrUnknownSampler otherwise — the validation the Engine's query
// canonicalization uses to reject unknown sampler overrides before any
// work is queued.
func CheckKind(kind string) error {
	_, err := kindOf(kind)
	return err
}

// NewSerial constructs a serial sampler of the named kind ("mc", "rss" or
// "mcvec") — the single-goroutine counterpart of NewParallel. On
// error the returned interface is nil (never a typed-nil concrete pointer),
// so `smp == nil` is a valid failure check.
func NewSerial(kind string, z int, seed int64) (Sampler, error) {
	k, err := kindOf(kind)
	if err != nil {
		return nil, err
	}
	return k.newSmp(z, seed), nil
}

// NewParallel builds the sampler every solve and estimate runs on: a
// ParallelSampler of the named kind ("mc", "rss" or "mcvec") with total
// budget z and that many workers (<= 0 selects runtime.GOMAXPROCS(0)),
// leasing its serial samplers from the kind's process-wide warm pool.
// Neither the worker count nor the pool's history ever changes a result.
func NewParallel(kind string, z int, seed int64, workers int) (*ParallelSampler, error) {
	k, err := kindOf(kind)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ps := &ParallelSampler{workers: workers, kind: k}
	ps.seed.Store(seed)
	ps.z.Store(int64(z))
	return ps, nil
}

// Name implements Sampler.
func (ps *ParallelSampler) Name() string { return ps.kind.name }

// Workers returns the configured worker-pool size.
func (ps *ParallelSampler) Workers() int { return ps.workers }

// SampleSize implements Sampler.
func (ps *ParallelSampler) SampleSize() int { return int(ps.z.Load()) }

// SetSampleSize implements Sampler; unlike the serial samplers it is safe
// to call concurrently with estimates (in-flight calls keep the budget
// they loaded at entry).
func (ps *ParallelSampler) SetSampleSize(z int) { ps.z.Store(int64(z)) }

// Reseed implements Sampler: it resets both the base seed and the call
// counter, so the sequence of results restarts as from construction. It
// is race-free against in-flight estimates, but the replay guarantee only
// holds once those estimates have drained (seed and counter are two
// atomics, not one transaction).
func (ps *ParallelSampler) Reseed(seed int64) {
	ps.seed.Store(seed)
	ps.call.Store(0)
}

// nextCallSeed claims the next call index and derives its seed. Every
// public estimate consumes exactly one index, making a serial call
// sequence reproducible end to end.
func (ps *ParallelSampler) nextCallSeed() int64 {
	return rng.SplitSeed(ps.seed.Load(), ps.call.Add(1))
}

// fanOut runs fn(smp, i) for i in [0, n) on up to ps.workers goroutines;
// one worker runs inline, on the calling goroutine. Each goroutine leases
// one serial sampler from the pool for its lifetime and binds it to the
// ParallelSampler's context (cleared again before the sampler returns to
// the kind's shared pool); fn must fully configure it (Reseed +
// SetSampleSize) before estimating, so leftover pool state never leaks
// into results. When the context fires, remaining work items are skipped:
// the merged result is garbage, and the caller is expected to discard it
// after observing ctx.Err().
func (ps *ParallelSampler) fanOut(n int, fn func(smp Sampler, i int)) {
	k, workers := ps.kind, ps.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		smp := k.lease(ps.ctx)
		for i := 0; i < n && !ps.cancelled(); i++ {
			fn(smp, i)
		}
		k.release(smp)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp := k.lease(ps.ctx)
			defer k.release(smp)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ps.cancelled() {
					return
				}
				fn(smp, i)
			}
		}()
	}
	wg.Wait()
}

// lease takes a serial sampler from the pool and binds ctx so its sample
// loops abort promptly on cancellation.
func (k *estimatorKind) lease(ctx context.Context) Sampler {
	smp, ok := k.pool.Get().(Sampler)
	if !ok {
		smp = k.newSmp(1, 0)
	}
	smp.SetContext(ctx)
	return smp
}

// release unbinds the context and returns the sampler to the pool.
func (k *estimatorKind) release(smp Sampler) {
	smp.SetContext(nil)
	k.pool.Put(smp)
}

// minShardBudget is the smallest per-shard sample budget worth the fan-out
// overhead. Budgets below shards·minShardBudget use proportionally fewer
// shards — the solvers' inner loops estimate tiny path subgraphs with
// modest Z thousands of times, where full sharding costs more in setup
// than it wins in parallelism. The shard count depends only on z, never on
// the worker count, so determinism across pool sizes is unaffected.
const minShardBudget = 64

// shardBudgets splits z into deterministic sub-budgets, every one >= 1
// (shards never exceed z; the first z mod shards shards get one extra
// sample).
func (ps *ParallelSampler) shardBudgets(z int) []int {
	return ps.shardBudgetsFor(z, 1)
}

// shardBudgetsFor is shardBudgets for a batch of items evaluated in one
// fan-out: the per-item shard count scales down as the batch grows, so a
// one-item batch is sharded like a scalar call (the whole pool works on
// it) while a batch that alone saturates the shard target gets one shard
// per item and pays no per-shard overhead (each shard costs an RNG reseed
// plus a scratch reset; for the scalar kinds seeding is lazy, so a shard
// pays for each of the first 334 words it draws in place of a 607-word
// reinitialisation — see BenchmarkReseed).
// The count depends only on (z, items) and the estimator's fixed quantum,
// never on the worker count, so results stay bit-identical across pool
// sizes.
//
// Budgets are distributed in units of the estimator's quantum (64 for
// mcvec's lane blocks): every shard receives whole blocks and only the
// last shard is shrunk by the z % quantum tail, so interior shards never
// pay a partial lane mask. For quantum 1 (the scalar kinds) this reduces
// exactly to the historical even split, keeping their shard streams — and
// therefore their estimates — bit-identical to earlier releases.
func (ps *ParallelSampler) shardBudgetsFor(z, items int) []int {
	if z < 1 {
		z = 1
	}
	if items < 1 {
		items = 1
	}
	q := ps.kind.quantum
	blocks := (z + q - 1) / q
	unit := minShardBudget / q
	if unit < 1 {
		unit = 1
	}
	shards := (blocks + unit - 1) / unit
	if target := (DefaultShards + items - 1) / items; shards > target {
		shards = target
	}
	if shards > DefaultShards {
		shards = DefaultShards
	}
	out := make([]int, shards)
	base, extra := blocks/shards, blocks%shards
	for i := range out {
		nb := base
		if i < extra {
			nb++
		}
		out[i] = nb * q
	}
	// The tail never exceeds the last shard's whole-block budget: the last
	// shard holds >= 1 block and the shortfall is < one block.
	out[shards-1] -= blocks*q - z
	return out
}

// Reliability implements Sampler: shard i estimates with budget z_i on the
// stream Split(callSeed, i), and the estimates combine as the
// budget-weighted mean Σ (z_i/Z)·est_i — for MC exactly the pooled
// hit fraction, for RSS an equally weighted mixture of independent
// unbiased estimates.
func (ps *ParallelSampler) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	return ps.ReliabilityCSR(g.Freeze(), s, t)
}

// ReliabilityCSR implements Sampler on an already-frozen snapshot (or a
// WithEdges view).
func (ps *ParallelSampler) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgets(z)
	est := make([]float64, len(budgets))
	ps.fanOut(len(budgets), func(smp Sampler, i int) {
		smp.Reseed(rng.SplitSeed(callSeed, int64(i)))
		smp.SetSampleSize(budgets[i])
		est[i] = smp.ReliabilityCSR(c, s, t)
	})
	return mergeScalar(est, budgets)
}

// ReliabilityFrom implements Sampler: VectorFor on the next call seed.
func (ps *ParallelSampler) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return ps.VectorFor(g.Freeze(), s, true, ps.nextCallSeed())
}

// ReliabilityTo implements Sampler: VectorFor on the next call seed.
func (ps *ParallelSampler) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return ps.VectorFor(g.Freeze(), t, false, ps.nextCallSeed())
}

// ReliabilityFromCSR implements Sampler: VectorFor on the next call seed.
func (ps *ParallelSampler) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	return ps.VectorFor(c, s, true, ps.nextCallSeed())
}

// ReliabilityToCSR implements Sampler: VectorFor on the next call seed.
func (ps *ParallelSampler) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	return ps.VectorFor(c, t, false, ps.nextCallSeed())
}

// VectorFor estimates src's From (forward) or To vector on the given call
// seed, leaving the call counter as it is: the vector the call with that
// seed returns, so a caller that knows a call's seed needs no sampler
// history to reproduce it. A keyed kind's is the keyed vector under the
// call seed's key, the vector a serial sampler seeded with the call seed
// returns; every other kind's is the budget-weighted merge of per-shard
// vectors, shard i on the stream Split(callSeed, i).
func (ps *ParallelSampler) VectorFor(c *ugraph.CSR, src ugraph.NodeID, forward bool, callSeed int64) []float64 {
	if ps.kind.keyed {
		return ps.keyedVectors(c, []ugraph.NodeID{src}, []uint64{vectorKey(callSeed)}, forward)[0]
	}
	budgets := ps.shardBudgets(ps.SampleSize())
	vecs := make([][]float64, len(budgets))
	ps.fanOut(len(budgets), func(smp Sampler, i int) {
		smp.Reseed(rng.SplitSeed(callSeed, int64(i)))
		smp.SetSampleSize(budgets[i])
		vecs[i] = shardVector(smp, c, src, forward)
	})
	return mergeVectors(vecs, budgets, c.N())
}

func shardVector(smp Sampler, c *ugraph.CSR, src ugraph.NodeID, forward bool) []float64 {
	if forward {
		return smp.ReliabilityFromCSR(c, src)
	}
	return smp.ReliabilityToCSR(c, src)
}

// keyedVectors estimates the keyed vector of every node in one fan-out,
// node i's under keys[i]. Each node's lane words split into up to
// ceil(workers/len(nodes)) contiguous parts; a part counts, per node of c,
// the lanes of its words that reach it, and the parts' integer counts add
// up. So the split, like the worker count, never changes a bit of the
// result. A node whose parts a cancelled fan-out skipped gets a vector
// over the lanes its finished parts drew (all zeros if none), and the
// caller discards it.
func (ps *ParallelSampler) keyedVectors(c *ugraph.CSR, nodes []ugraph.NodeID, keys []uint64, forward bool) [][]float64 {
	z := ps.SampleSize()
	words := laneWords(z)
	parts := max(1, min(words, (ps.workers+len(nodes)-1)/len(nodes)))
	out := make([][]float64, len(nodes))
	var split [][]uint32
	var drawn []int
	if parts > 1 {
		split, drawn = make([][]uint32, len(nodes)*parts), make([]int, len(nodes)*parts)
	}
	ps.fanOut(len(nodes)*parts, func(smp Sampler, k int) {
		i, p := k/parts, k%parts
		counts, d := smp.(*MCVec).keyedCounts(c, nodes[i], forward, keys[i], p*words/parts, (p+1)*words/parts, z)
		if parts == 1 {
			out[i] = vectorOf(counts, d)
			return
		}
		split[k], drawn[k] = slices.Clone(counts), d
	})
	for i := range out {
		if out[i] != nil {
			continue
		}
		sum, total := make([]uint32, c.N()), 0
		for k := i * parts; k < (i+1)*parts && split != nil; k++ {
			for v, n := range split[k] {
				sum[v] += n
			}
			total += drawn[k]
		}
		out[i] = vectorOf(sum, total)
	}
	return out
}

// mergeScalar folds per-shard estimates as Σ(b_i·e_i)/z in shard order;
// the fixed order keeps float summation bit-reproducible, and the single
// final division keeps unanimous shards exact (all-1 estimates merge to
// exactly 1, which per-shard b_i/z weights would miss when z splits
// unevenly).
func mergeScalar(est []float64, budgets []int) float64 {
	total, z := 0.0, 0
	for _, b := range budgets {
		z += b
	}
	for i, e := range est {
		total += float64(float64(budgets[i]) * e)
	}
	return total / float64(z)
}

func mergeVectors(vecs [][]float64, budgets []int, n int) []float64 {
	acc := make([]float64, n)
	z := 0
	for _, b := range budgets {
		z += b
	}
	for i, vec := range vecs {
		w := float64(budgets[i])
		for v, x := range vec {
			acc[v] += float64(w * x)
		}
	}
	inv := 1 / float64(z)
	for v := range acc {
		acc[v] *= inv
	}
	return acc
}

// EstimateMany implements BatchSampler. The fan-out covers the
// (query, shard) product — not just the queries — so a two-query batch at
// Workers=8 still keeps every worker busy: query q's shard i draws from
// the stream Split(Split(callSeed, q), i) with the same deterministic
// budget split as a scalar call. Result q is deterministic in (seed, q)
// at any worker count; the streams are keyed on the (query, shard) pair,
// so results are statistically equivalent but not bit-identical to
// one-at-a-time Reliability calls.
func (ps *ParallelSampler) EstimateMany(g *ugraph.Graph, queries []PairQuery) []float64 {
	if len(queries) == 0 {
		return nil
	}
	return ps.EstimateManyCSR(g.Freeze(), queries)
}

// EstimateManyCSR is EstimateMany on an already-frozen snapshot (flat or
// layered): the serving tier's batch path runs directly on the pinned
// epoch's CSR without materializing a mutable Graph. Results are
// bit-identical to EstimateMany over a graph that freezes to the same
// logical snapshot.
func (ps *ParallelSampler) EstimateManyCSR(c *ugraph.CSR, queries []PairQuery) []float64 {
	if len(queries) == 0 {
		return nil
	}
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgetsFor(z, len(queries))
	shards := len(budgets)
	est := make([]float64, len(queries)*shards)
	ps.fanOut(len(est), func(smp Sampler, k int) {
		qi, si := k/shards, k%shards
		q := queries[qi]
		if q.S == q.T {
			est[k] = 1
			return
		}
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(qi)), int64(si)))
		smp.SetSampleSize(budgets[si])
		est[k] = smp.ReliabilityCSR(c, q.S, q.T)
	})
	out := make([]float64, len(queries))
	for qi := range queries {
		out[qi] = mergeScalar(est[qi*shards:(qi+1)*shards], budgets)
	}
	return out
}

// EstimateEdges implements BatchSampler: the base graph is frozen once,
// candidate edge e is evaluated on a lightweight CSR.WithEdges view (no
// per-candidate clone or snapshot rebuild), and — like EstimateMany — the
// fan-out covers the (candidate, shard) product so small candidate sets
// still saturate the pool. This is the batched form of the hill-climbing /
// individual-top-k inner loop.
func (ps *ParallelSampler) EstimateEdges(g *ugraph.Graph, s, t ugraph.NodeID, edges []ugraph.Edge) []float64 {
	if len(edges) == 0 {
		return nil
	}
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgetsFor(z, len(edges))
	shards := len(budgets)
	base := g.Freeze()
	views := make([]*ugraph.CSR, len(edges))
	for i := range edges {
		views[i] = base.WithEdges(edges[i : i+1])
	}
	est := make([]float64, len(edges)*shards)
	ps.fanOut(len(est), func(smp Sampler, k int) {
		ei, si := k/shards, k%shards
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(ei)), int64(si)))
		smp.SetSampleSize(budgets[si])
		est[k] = smp.ReliabilityCSR(views[ei], s, t)
	})
	out := make([]float64, len(edges))
	for ei := range edges {
		out[ei] = mergeScalar(est[ei*shards:(ei+1)*shards], budgets)
	}
	return out
}

// ReliabilityFromMany implements BatchSampler.
func (ps *ParallelSampler) ReliabilityFromMany(g *ugraph.Graph, sources []ugraph.NodeID) [][]float64 {
	return ps.vectorMany(g, sources, true)
}

// ReliabilityToMany implements BatchSampler.
func (ps *ParallelSampler) ReliabilityToMany(g *ugraph.Graph, targets []ugraph.NodeID) [][]float64 {
	return ps.vectorMany(g, targets, false)
}

// vectorMany fans out over the (node, shard) product rather than just the
// nodes, so a two-source batch at Workers=8 still keeps every worker busy.
// Node n's shard i draws from Split(Split(callSeed, n), i): the stream is
// keyed on the (node, shard) pair alone, preserving determinism across
// pool sizes. A keyed kind's node n takes its key from Split(callSeed, n)
// instead. The streams differ from the single-node vector() path (which
// keys on shard only, or on callSeed), so batched results are
// statistically equivalent but not bit-identical to per-node calls.
func (ps *ParallelSampler) vectorMany(g *ugraph.Graph, nodes []ugraph.NodeID, forward bool) [][]float64 {
	callSeed := ps.nextCallSeed()
	c := g.Freeze()
	if ps.kind.keyed {
		keys := make([]uint64, len(nodes))
		for n := range nodes {
			keys[n] = vectorKey(rng.SplitSeed(callSeed, int64(n)))
		}
		return ps.keyedVectors(c, nodes, keys, forward)
	}
	budgets := ps.shardBudgetsFor(ps.SampleSize(), len(nodes))
	shards := len(budgets)
	vecs := make([][]float64, len(nodes)*shards)
	ps.fanOut(len(vecs), func(smp Sampler, k int) {
		n, i := k/shards, k%shards
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(n)), int64(i)))
		smp.SetSampleSize(budgets[i])
		vecs[k] = shardVector(smp, c, nodes[n], forward)
	})
	out := make([][]float64, len(nodes))
	for n := range nodes {
		out[n] = mergeVectors(vecs[n*shards:(n+1)*shards], budgets, c.N())
	}
	return out
}
