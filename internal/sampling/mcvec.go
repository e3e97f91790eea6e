package sampling

import (
	"math"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// laneBlock is the number of possible worlds one lane word carries: the
// lanes of a uint64. Sample budgets shard and merge in units of laneBlock
// (ParallelSampler hands mcvec shards 64-aligned budgets so only the final
// block of the final shard pays a partial lane mask).
const laneBlock = 64

// vecWords is the widest chunk of lane words one vector pass carries: 8
// words, 512 worlds. A longer budget runs in successive chunks, so the
// per-node and per-edge lane scratch stays vecWords words wide at any Z.
const vecWords = 8

// MCVec is the word-parallel Monte Carlo sampler: it packs laneBlock
// possible worlds into the bit lanes of uint64 words and estimates
// reliability with a bitset BFS over the frozen CSR. Where MonteCarlo flips
// one coin and advances one frontier per world, MCVec draws one Bernoulli
// bitmask per examined edge and lane word (64 worlds in ~8 RNG words, by
// the digit comparison of rng.BernoulliMask) and propagates 64 frontiers
// per word with OR/AND word operations, pop-counting the successful lanes.
// A budget that is not a multiple of 64 runs its final word under a
// partial lane mask, so the estimate divides by exactly z worlds.
//
// Estimates are statistically equivalent to MonteCarlo at the same budget —
// both draw z independent possible worlds — but NOT bit-identical. The two
// estimators draw their masks differently:
//   - The s–t estimate (ReliabilityCSR, BeginBlocks) runs one 64-lane BFS
//     per word and draws each edge's mask from the sampler's stream in the
//     order that BFS first examines the edge: randomness per (edge, block).
//   - The From/To vectors are keyed. Each call takes one key from the
//     sampler's stream, and lane word b of edge {x, y} is drawn from a
//     stream keyed by (key, the edge's canonical endpoints, b): randomness
//     per (key, edge, word). A mask is drawn on the first examination that
//     needs it, and one BFS carries up to vecWords words at once where the
//     reach is dense. A vector therefore depends only on the key, Z and
//     the graph: not on traversal order, edge IDs or how its words are
//     split into passes.
//   - A key used again keeps its masks: from a key's second dense call
//     on, the sampler holds them in a mask view over the graph's arcs
//     (see maskView), so later calls on that key draw only masks no
//     earlier call drew. A view on a new graph, such as the next epoch of
//     a served one, starts from the masks of the key's last view wherever
//     an edge kept its endpoints and probability, so after a write batch
//     only the edited edges draw again. Served elimination draws every
//     From vector on one key and every To vector on another (see
//     core.elimCallSeed), so its traffic runs on two views.
//
// Its determinism contract is pinned instead: a fixed seed yields
// bit-identical estimates run to run, and the ParallelSampler wrapping
// keeps them bit-identical at any worker count. The scalar MonteCarlo
// stays the bit-exactness oracle for the legacy stream.
//
// Like the scalar samplers, MCVec reuses epoch-stamped scratch (per-node
// lane words, per-edge sampled masks, BFS queue) and allocates nothing in
// the steady-state loop; building a mask view reuses the arrays of the
// view it replaces, and a sampler keeps at most maxViews views of at most
// maxViewBytes each. It is deterministic given its seed and NOT safe for
// concurrent use.
type MCVec struct {
	z  int
	r  rng.Mask64
	sc vecScratch
	ks keyScratch
	canceller
}

// NewMCVec returns a word-parallel MC sampler drawing z possible worlds per
// query (in ceil(z/64) lane words), seeded deterministically.
func NewMCVec(z int, seed int64) *MCVec {
	return &MCVec{z: z, r: rng.NewMask64(seed)}
}

// Name implements Sampler.
func (v *MCVec) Name() string { return "mcvec" }

// SampleSize implements Sampler.
func (v *MCVec) SampleSize() int { return v.z }

// SetSampleSize implements Sampler.
func (v *MCVec) SetSampleSize(z int) { v.z = z }

// Reseed implements Sampler.
func (v *MCVec) Reseed(seed int64) { v.r.Seed(seed) }

// Reliability implements Sampler.
func (v *MCVec) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	return v.ReliabilityCSR(g.Freeze(), s, t)
}

// ReliabilityCSR implements Sampler: ceil(z/64) bitset-BFS blocks, each
// deciding 64 worlds, with the final block lane-masked to the z%64 tail.
// Cancellation is polled once per block (= 64 samples, the same
// ctxCheckBlock granularity as the scalar loops); an interrupted estimate
// reports the fraction over the worlds actually decided.
func (v *MCVec) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	v.sc.reset(c.N(), c.EdgeIDBound())
	hits, drawn := 0, 0
	for remaining := v.z; remaining > 0; remaining -= laneBlock {
		if v.cancelled() {
			if drawn == 0 {
				return 0
			}
			return float64(hits) / float64(drawn)
		}
		lanes := fullLanes
		if remaining < laneBlock {
			lanes = fullLanes >> (laneBlock - remaining)
		}
		hits += bits.OnesCount64(v.block(c, s, t, lanes))
		drawn += bits.OnesCount64(lanes)
	}
	return float64(hits) / float64(v.z)
}

// ReliabilityFrom implements Sampler.
func (v *MCVec) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return v.vector(g.Freeze(), s, true)
}

// ReliabilityTo implements Sampler. For directed graphs it walks in-arcs
// backwards from t, like the scalar samplers.
func (v *MCVec) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return v.vector(g.Freeze(), t, false)
}

// ReliabilityFromCSR implements Sampler.
func (v *MCVec) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	return v.vector(c, s, true)
}

// ReliabilityToCSR implements Sampler.
func (v *MCVec) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	return v.vector(c, t, false)
}

const fullLanes = ^uint64(0)

// laneNode is one node's lane state in an s–t block: the lanes in which it
// has been reached, the reached-but-not-expanded lanes (the node is queued
// iff pend != 0), the epoch stamp validating both, and the epoch of the
// node's last arc scan (scanEp == epoch means every incident arc already
// has a sampled mask, so a re-expansion skips the per-arc epoch checks).
// Packed as one struct so touching a node in the BFS is a single
// cache-line access rather than four scattered array loads.
type laneNode struct {
	ep, scanEp int32
	vis, pend  uint64
}

// laneEdge is one edge's sampled existence lanes in an s–t block, memoized
// per block under an epoch stamp; same packing rationale as laneNode.
type laneEdge struct {
	ep   int32
	mask uint64
}

// vecScratch is the s–t blocks' counterpart of scratch: per-node lane
// state, per-edge sampled existence masks and the BFS queue, all
// epoch-stamped so nothing is cleared between blocks.
type vecScratch struct {
	epoch int32
	nodes []laneNode
	edges []laneEdge
	queue []ugraph.NodeID
}

func (sc *vecScratch) reset(n, m int) {
	// Mirror scratch.reset: when the epoch counter restarts, every stamp
	// array must be zeroed, not just the one that grew, or stale stamps
	// from earlier epochs would validate garbage words.
	if len(sc.nodes) < n || len(sc.edges) < m {
		if len(sc.nodes) < n {
			sc.nodes = make([]laneNode, n)
		} else {
			clear(sc.nodes)
		}
		if len(sc.edges) < m {
			sc.edges = make([]laneEdge, m)
		} else {
			clear(sc.edges)
		}
		sc.epoch = 0
	}
	if cap(sc.queue) < 2*n {
		// Re-expansion waves re-enqueue nodes, so the queue routinely
		// outgrows n; 2n slack keeps steady-state appends growth-free.
		sc.queue = make([]ugraph.NodeID, 0, 2*n)
	}
}

// nextEpoch advances the block epoch, clearing the stamp arrays explicitly
// on wraparound (after ~2^31 blocks).
func (sc *vecScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch <= 0 {
		clear(sc.nodes)
		clear(sc.edges)
		sc.epoch = 1
	}
}

// block runs one 64-world bitset BFS from s and returns the lanes in which
// t was reached. Edge existence masks are sampled lazily on first
// examination and memoized per block, so an undirected edge examined from
// both endpoints — or a node re-expanded when new lanes arrive — sees one
// consistent set of worlds, exactly like the scalar walk's signed-epoch
// memoization. A node is enqueued exactly when its pending lane set
// transitions from empty to non-empty, so each node is expanded once per
// wave of newly arrived lanes; t itself is never expanded, matching the
// scalar early exit, and the BFS stops outright once every active lane has
// reached t.
//
// The expansion loop is split on whether the node has been scanned this
// block: a first scan interleaves mask sampling (the digit comparison of
// rng.BernoulliMask, inlined so the generator state stays in registers),
// while a re-expansion — whose arcs are all memoized by construction —
// runs a pure-load loop with no per-arc epoch checks.
func (v *MCVec) block(c *ugraph.CSR, s, t ugraph.NodeID, lanes uint64) uint64 {
	sc := &v.sc
	sc.nextEpoch()
	epoch := sc.epoch
	nodes, edges := sc.nodes, sc.edges
	queue := sc.queue[:0]
	queue = append(queue, s)
	nodes[s] = laneNode{ep: epoch, vis: lanes, pend: lanes}
	var tmask uint64
	r := &v.r
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nu := &nodes[u]
		f := nu.pend
		nu.pend = 0
		rescan := nu.scanEp == epoch
		nu.scanEp = epoch
		arcs := c.Out(u)
		if rescan {
			for _, a := range arcs {
				m := f & edges[a.EID].mask
				if m == 0 {
					continue
				}
				w := a.To
				nw := &nodes[w]
				if nw.ep == epoch {
					m &^= nw.vis
					if m == 0 {
						continue
					}
					nw.vis |= m
				} else {
					*nw = laneNode{ep: epoch, vis: m}
				}
				if w == t {
					tmask |= m
					if tmask == lanes {
						sc.queue = queue
						return tmask
					}
					continue
				}
				if nw.pend == 0 {
					queue = append(queue, w)
				}
				nw.pend |= m
			}
		} else {
			probs := c.OutProbs(u)
			for i, a := range arcs {
				e := &edges[a.EID]
				em := e.mask
				if e.ep != epoch {
					// Inline rng.BernoulliMask fast path: p's binary
					// expansion packed MSB-first into one digit
					// register (fits whenever p >= 2^-11); identical
					// digit steps and word consumption to the library
					// function, which remains the cold path.
					p := probs[i]
					em = 0
					if p >= 1 {
						em = fullLanes
					} else if p > 0 {
						if pb := math.Float64bits(p); pb>>52 >= 1011 {
							dig := (pb&(1<<52-1) | 1<<52) << (pb>>52 - 1011)
							und := fullLanes
							for und != 0 && dig != 0 {
								w := r.Uint64()
								d := -(dig >> 63)
								em |= und & d &^ w
								und &= w ^ ^d
								dig <<= 1
							}
						} else {
							em = rng.BernoulliMask(r, p)
						}
					}
					e.mask = em
					e.ep = epoch
				}
				m := f & em
				if m == 0 {
					continue
				}
				w := a.To
				nw := &nodes[w]
				if nw.ep == epoch {
					m &^= nw.vis
					if m == 0 {
						continue
					}
					nw.vis |= m
				} else {
					*nw = laneNode{ep: epoch, vis: m}
				}
				if w == t {
					tmask |= m
					if tmask == lanes {
						sc.queue = queue
						return tmask
					}
					continue
				}
				if nw.pend == 0 {
					queue = append(queue, w)
				}
				nw.pend |= m
			}
		}
	}
	sc.queue = queue
	return tmask
}
