// Package sampling implements polynomial-time s-t reliability estimation
// over uncertain graphs: plain Monte Carlo sampling with on-demand edge
// instantiation (Fishman-style, §3.1 of the paper), recursive stratified
// sampling (RSS, Li et al. TKDE'16; §5.3), and a word-parallel Monte Carlo
// variant ("mcvec", MCVec) that samples 64 possible worlds per BFS by
// packing edge existence into uint64 lane masks — plus single-source
// reliability vectors used by the search-space elimination of Algorithm 4.
//
// # Vector Monte Carlo determinism
//
// MCVec is statistically equivalent to MonteCarlo — both are unbiased
// estimators of the same reliability — but NOT stream-compatible with it:
// the vector sampler draws 64 Bernoulli trials per RNG interaction
// (rng.BernoulliMask over a SplitMix64 word stream) where the scalar
// sampler draws one Float64, so the two consume different randomness and
// their estimates differ within Monte Carlo error at equal Z. MCVec's own
// determinism contract matches every other sampler's: a fixed seed yields
// bit-identical estimates across runs, across Graph/CSR/view entry
// points, and — through ParallelSampler's 64-aligned shard budgets — at
// any worker count. Budgets are processed in blocks of 64 lanes with the
// final block masked down to z%64 lanes, so any Z is honored exactly.
//
// # Randomness
//
// The scalar estimators (MonteCarlo, RSS) flip every edge coin with
// the Float64 of a concrete rng.Source: math/rand's stream word for word,
// without an interface call per coin. The source seeds lazily, so a
// ParallelSampler shard's Reseed is O(1) and the shard pays only for the
// seeded words it actually draws.
//
// # Snapshots
//
// All estimators run their inner loops on a frozen ugraph.CSR snapshot —
// a flat or delta-layered, immutable, cache-friendly view of the graph.
// The CSR-taking Sampler methods are the estimators; the Graph-taking ones
// are thin wrappers that call Graph.Freeze (cached on the graph, rebuilt
// only after a mutation) and delegate to them. Hot callers that evaluate
// many candidate edges against one base graph freeze once and use
// CSR.WithEdges views, so no snapshot is rebuilt per candidate.
// Estimates on a CSR are bit-identical to estimates on the Graph it was
// frozen from at the same seed: freezing preserves arc order, so the
// samplers consume randomness identically.
//
// # Concurrency
//
// A CSR is immutable and safe for unrestricted concurrent traversal. The
// serial estimators (MonteCarlo, RSS, MCVec) are deterministic given their
// construction seed but are NOT safe for concurrent use: they reuse
// internal scratch buffers (epoch-stamped visited/edge-state arrays, BFS
// queue, RSS conditioning stack, MCVec lane scratch) across calls. They
// are the shard workers of ParallelSampler, the one estimator NewParallel
// builds for solves and estimates: it freezes the graph once per call,
// splits the sample budget into fixed, seeded shards, runs them on a
// worker pool and merges the shard estimates in shard order, so a fixed
// seed yields bit-identical results at every worker count and GOMAXPROCS.
// Its workers lease serial samplers from one process-wide warm pool per
// estimator kind, so scratch stays sized across requests, engines and
// solver stages; a leased sampler is reseeded, resized and bound to its
// context before it estimates, so the pool's history never changes a
// result. Batched evaluation of many queries, candidate edges or
// source/target vectors at once goes through its BatchSampler methods.
package sampling

import (
	"context"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// Sampler estimates reliability over uncertain graphs. All implementations
// are deterministic given their seed. The serial implementations
// (MonteCarlo, RSS, MCVec) are NOT safe for concurrent use — they reuse
// internal scratch buffers — and must be confined to one goroutine at a
// time; wrap them in a ParallelSampler for concurrent callers.
type Sampler interface {
	// Name identifies the estimator ("mc", "rss" or "mcvec"). A
	// ParallelSampler reports its underlying estimator's name: parallel
	// execution is a property of the run, not of the estimate.
	Name() string
	// Reliability estimates R(s, t, G), the probability that t is
	// reachable from s.
	Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64
	// ReliabilityFrom estimates R(s, v, G) for every node v; entry s is 1.
	ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64
	// ReliabilityTo estimates R(v, t, G) for every node v; entry t is 1.
	ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64
	// ReliabilityCSR, ReliabilityFromCSR and ReliabilityToCSR are the
	// same estimates on an already-frozen snapshot or a CSR.WithEdges
	// view of one; the Graph-taking methods above are exactly these
	// on g.Freeze().
	ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64
	ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64
	ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64
	// SampleSize returns the configured total sample count Z.
	SampleSize() int
	// SetSampleSize reconfigures Z. Not safe to call concurrently with
	// estimates on serial samplers.
	SetSampleSize(z int)
	// Reseed resets the sampler's random stream to the given seed, as if
	// it had just been constructed with it. ParallelSampler uses this to
	// hand each work shard its own deterministic stream.
	Reseed(seed int64)
	// SetContext binds a context that the estimation loops poll between
	// sample blocks (never per edge): when ctx is cancelled or its
	// deadline passes, the estimate in progress returns early — within
	// one block of walks — with whatever samples were already drawn.
	// Binding a context does not change the randomness an uncancelled
	// estimate consumes, so results stay bit-identical to an unbound
	// sampler. nil (or a context that can never be cancelled, like
	// context.Background) removes the binding. On serial samplers, bind
	// before estimating from the owning goroutine; on a ParallelSampler
	// the binding applies to subsequent calls and must not race with
	// in-flight estimates — concurrent callers derive one sampler per
	// request instead of sharing a binding.
	SetContext(ctx context.Context)
}

// Every estimator this package builds implements the whole Sampler
// contract; the solvers rely on its CSR methods.
var (
	_ Sampler = (*MonteCarlo)(nil)
	_ Sampler = (*RSS)(nil)
	_ Sampler = (*MCVec)(nil)
	_ Sampler = (*ParallelSampler)(nil)
)

// PairQuery is one (source, target) reliability query, used by the batched
// estimation APIs.
type PairQuery struct {
	S, T ugraph.NodeID
}

// BatchSampler is the batched-evaluation interface implemented by
// ParallelSampler: the solvers' hot paths (candidate elimination, greedy
// candidate scoring, pair-reliability matrices) evaluate many queries,
// candidate edges or vectors in one fanned-out call.
type BatchSampler interface {
	Sampler
	// EstimateMany estimates R(q.S, q.T, G) for every query, each with
	// the full sample budget Z sharded across the pool (so even a
	// one-query batch keeps every worker busy). Result i is deterministic
	// in (seed, i) regardless of scheduling.
	EstimateMany(g *ugraph.Graph, queries []PairQuery) []float64
	// EstimateEdges estimates R(s, t, G ∪ {e}) for each candidate edge e
	// in isolation — the inner loop of the greedy and top-k baselines.
	// The graph is frozen once and each candidate is evaluated on a
	// lightweight CSR.WithEdges view, budget-sharded like EstimateMany.
	EstimateEdges(g *ugraph.Graph, s, t ugraph.NodeID, edges []ugraph.Edge) []float64
	// ReliabilityFromMany estimates one ReliabilityFrom vector per
	// source. Statistically equivalent to per-source calls but drawn
	// from different deterministic streams (keyed on the source's batch
	// index), so values are not bit-identical to ReliabilityFrom.
	ReliabilityFromMany(g *ugraph.Graph, sources []ugraph.NodeID) [][]float64
	// ReliabilityToMany is ReliabilityFromMany's reverse-direction
	// counterpart.
	ReliabilityToMany(g *ugraph.Graph, targets []ugraph.NodeID) [][]float64
}

// scratch holds reusable per-snapshot working memory shared by the
// estimators. The epoch trick avoids clearing the visited/edge-state
// arrays between the thousands of BFS walks a single query performs, and
// the walk queue is reused across samples, so the steady-state inner loop
// performs zero heap allocations (asserted by the alloc regression tests).
type scratch struct {
	epoch  int32
	nodeEp []int32 // per-node visited epoch
	// edgeSt packs the per-edge sampled state and its epoch into one
	// array: |edgeSt[e]| == epoch means e was sampled this walk, and the
	// sign carries the coin (+epoch present, -epoch absent). One int32
	// load where the old layout (epoch array + bool array) took two.
	edgeSt []int32
	queue  []ugraph.NodeID
}

func (sc *scratch) reset(n, m int) {
	// When the epoch counter restarts, EVERY mark array must be zeroed —
	// not just the one that grew. A stale mark equal to a reused low epoch
	// would make the BFS skip an unvisited node (e.g. a base-graph call
	// followed by a one-edge-larger view call reallocates edgeSt only,
	// while nodeEp still holds marks from the previous epochs).
	if len(sc.nodeEp) < n || len(sc.edgeSt) < m {
		if len(sc.nodeEp) < n {
			sc.nodeEp = make([]int32, n)
		} else {
			clear(sc.nodeEp)
		}
		if len(sc.edgeSt) < m {
			sc.edgeSt = make([]int32, m)
		} else {
			clear(sc.edgeSt)
		}
		sc.epoch = 0
	}
	if cap(sc.queue) < n {
		sc.queue = make([]ugraph.NodeID, 0, n)
	}
}

// nextEpoch advances the epoch counter, recycling the arrays. On wraparound
// (after ~2^31 walks) it clears them explicitly.
func (sc *scratch) nextEpoch() {
	sc.epoch++
	if sc.epoch <= 0 {
		for i := range sc.nodeEp {
			sc.nodeEp[i] = 0
		}
		for i := range sc.edgeSt {
			sc.edgeSt[i] = 0
		}
		sc.epoch = 1
	}
}

// sampledWalk performs one possible-world BFS from src over a frozen
// snapshot and increments the counter of every node it reaches — the
// closure walk behind the MC From/To vectors. Edge states are sampled
// lazily and memoized per walk via the signed epoch array, so an
// undirected edge examined from both endpoints gets one consistent coin
// flip. Each row is visited in mutable-Graph arc order, added edges last.
func sampledWalk(sc *scratch, r *rng.Source, c *ugraph.CSR, src ugraph.NodeID, forward bool, counts []float64) {
	sc.nextEpoch()
	// Hoist the scratch fields into locals: the loop below is the hottest
	// code in the library and the compiler cannot cache pointer-reached
	// fields across the append.
	epoch := sc.epoch
	nodeEp, edgeSt := sc.nodeEp, sc.edgeSt
	queue := sc.queue[:0]
	queue = append(queue, src)
	nodeEp[src] = epoch
	counts[src]++
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
		}
		for i, a := range arcs {
			if nodeEp[a.To] == epoch {
				continue
			}
			if st := edgeSt[a.EID]; st != epoch && st != -epoch {
				if r.Float64() < probs[i] {
					edgeSt[a.EID] = epoch
				} else {
					edgeSt[a.EID] = -epoch
					continue
				}
			} else if st != epoch {
				continue
			}
			nodeEp[a.To] = epoch
			counts[a.To]++
			queue = append(queue, a.To)
		}
	}
	sc.queue = queue
}

// sampledWalkPlain is the scalar early-exit walk — the single hottest loop
// in the library: sampledWalk without counts, stopping as soon as it
// reaches t and reporting whether it did. Up to that point it draws the
// same coins in the same order.
func sampledWalkPlain(sc *scratch, r *rng.Source, c *ugraph.CSR, src, t ugraph.NodeID, forward bool) bool {
	sc.nextEpoch()
	epoch := sc.epoch
	nodeEp, edgeSt := sc.nodeEp, sc.edgeSt
	queue := sc.queue[:0]
	queue = append(queue, src)
	nodeEp[src] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
		}
		for i, a := range arcs {
			if nodeEp[a.To] == epoch {
				continue
			}
			if st := edgeSt[a.EID]; st != epoch && st != -epoch {
				if r.Float64() < probs[i] {
					edgeSt[a.EID] = epoch
				} else {
					edgeSt[a.EID] = -epoch
					continue
				}
			} else if st != epoch {
				continue
			}
			nodeEp[a.To] = epoch
			if a.To == t {
				sc.queue = queue
				return true
			}
			queue = append(queue, a.To)
		}
	}
	sc.queue = queue
	return false
}

// deterministicReach computes the set of nodes reachable from src using
// edges whose status passes the filter: present-only, or present plus
// undetermined (optimistic). It writes the epoch marks into sc and returns
// the reached queue slice (valid until the next walk). When target >= 0
// the BFS stops as soon as the target is marked — callers that only test
// "is t reachable?" (the RSS certain-success/certain-failure pruning) skip
// the rest of the closure; the traversal consumes no randomness, so the
// early exit cannot perturb any estimate.
func deterministicReach(sc *scratch, c *ugraph.CSR, src, target ugraph.NodeID, forward bool, status []int8, optimistic bool) []ugraph.NodeID {
	sc.nextEpoch()
	epoch := sc.epoch
	nodeEp := sc.nodeEp
	queue := sc.queue[:0]
	queue = append(queue, src)
	nodeEp[src] = epoch
	if src == target {
		sc.queue = queue
		return queue
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		var arcs []ugraph.Arc
		if forward {
			arcs = c.Out(u)
		} else {
			arcs = c.In(u)
		}
		for _, a := range arcs {
			if nodeEp[a.To] == epoch {
				continue
			}
			st := status[a.EID]
			if st == 1 || (optimistic && st == 0) {
				nodeEp[a.To] = epoch
				queue = append(queue, a.To)
				if a.To == target {
					sc.queue = queue
					return queue
				}
			}
		}
	}
	sc.queue = queue
	return queue
}

// sampledWalkCond is sampledWalkPlain conditioned for the RSS fallback:
// status entries +1 force an edge present, -1 absent, and 0 leave it to a
// coin flip, as the RSS strata require. With t < 0 it walks the whole
// closure.
func sampledWalkCond(sc *scratch, r *rng.Source, c *ugraph.CSR, src, t ugraph.NodeID, forward bool, status []int8) bool {
	sc.nextEpoch()
	epoch := sc.epoch
	nodeEp, edgeSt := sc.nodeEp, sc.edgeSt
	queue := sc.queue[:0]
	queue = append(queue, src)
	nodeEp[src] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
		}
		for i, a := range arcs {
			if nodeEp[a.To] == epoch {
				continue
			}
			switch status[a.EID] {
			case 1:
				goto traverse
			case -1:
				continue
			}
			if st := edgeSt[a.EID]; st != epoch && st != -epoch {
				if r.Float64() < probs[i] {
					edgeSt[a.EID] = epoch
				} else {
					edgeSt[a.EID] = -epoch
					continue
				}
			} else if st != epoch {
				continue
			}
		traverse:
			nodeEp[a.To] = epoch
			if a.To == t {
				sc.queue = queue
				return true
			}
			queue = append(queue, a.To)
		}
	}
	sc.queue = queue
	return false
}
