package sampling

import (
	"math"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// laneBlock is the number of possible worlds one vector pass propagates
// together: the lanes of a uint64. Sample budgets shard and merge in units
// of laneBlock (ParallelSampler hands mcvec shards 64-aligned budgets so
// only the final block of the final shard pays a partial lane mask).
const laneBlock = 64

// MCVec is the word-parallel Monte Carlo sampler: it packs laneBlock
// possible worlds into the bit lanes of uint64 words and estimates
// reliability with a bitset BFS over the frozen CSR. Where MonteCarlo flips
// one coin and advances one frontier per world, MCVec draws one Bernoulli
// bitmask per examined edge (rng.BernoulliMask — 64 worlds in ~8 RNG words)
// and propagates all 64 frontiers with OR/AND word operations, pop-counting
// the successful lanes per block. A budget that is not a multiple of 64
// runs its final block under a partial lane mask, so the estimate divides
// by exactly z worlds.
//
// Estimates are statistically equivalent to MonteCarlo at the same budget —
// both draw z independent possible worlds — but NOT bit-identical: the
// vector path consumes randomness per (edge, block) instead of per
// (edge, world). Its own determinism contract is pinned instead: a fixed
// seed yields bit-identical estimates run to run, and the ParallelSampler
// wrapping keeps them bit-identical at any worker count. The scalar
// MonteCarlo stays the bit-exactness oracle for the legacy stream.
//
// Like the scalar samplers, MCVec reuses epoch-stamped scratch (per-node
// lane words, per-edge sampled masks, BFS queue) and allocates nothing in
// the steady-state loop; it is deterministic given its seed and NOT safe
// for concurrent use.
type MCVec struct {
	z  int
	r  rng.Mask64
	sc vecScratch
	canceller
}

// NewMCVec returns a word-parallel MC sampler drawing z possible worlds per
// query (in ceil(z/64) lane blocks), seeded deterministically.
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
		hits += bits.OnesCount64(v.block(c, s, t, true, lanes, nil))
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

func (v *MCVec) vector(c *ugraph.CSR, src ugraph.NodeID, forward bool) []float64 {
	v.sc.reset(c.N(), c.EdgeIDBound())
	counts := make([]float64, c.N())
	drawn := 0
	for remaining := v.z; remaining > 0; remaining -= laneBlock {
		if v.cancelled() {
			break
		}
		lanes := fullLanes
		if remaining < laneBlock {
			lanes = fullLanes >> (laneBlock - remaining)
		}
		v.block(c, src, -1, forward, lanes, counts)
		drawn += bits.OnesCount64(lanes)
	}
	if drawn == 0 {
		return counts
	}
	inv := 1 / float64(drawn)
	for i := range counts {
		counts[i] *= inv
	}
	return counts
}

const fullLanes = ^uint64(0)

// laneNode is one node's lane state: the lanes in which it has been
// reached, the reached-but-not-expanded lanes (the node is queued iff
// pend != 0), the epoch stamp validating both, and the epoch of the node's
// last arc scan (scanEp == epoch means every incident arc already has a
// sampled mask, so a re-expansion skips the per-arc epoch checks). Packed
// as one struct so touching a node in the BFS is a single cache-line
// access rather than four scattered array loads.
type laneNode struct {
	ep, scanEp int32
	vis, pend  uint64
}

// laneEdge is one edge's sampled existence lanes, memoized per block under
// an epoch stamp; same packing rationale as laneNode.
type laneEdge struct {
	ep   int32
	mask uint64
}

// vecScratch is the vector counterpart of scratch: per-node lane state,
// per-edge sampled existence masks, and the BFS queue, all epoch-stamped so
// nothing is cleared between blocks. The edge masks double as the
// sampled-world record the scalar-replay fuzz target audits.
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

// block runs one 64-world bitset BFS from src and returns the lanes in
// which t was reached (0 when t < 0). Edge existence masks are sampled
// lazily on first examination and memoized per block, so an undirected edge
// examined from both endpoints — or a node re-expanded when new lanes
// arrive — sees one consistent set of worlds, exactly like the scalar
// walk's signed-epoch memoization. When counts != nil every node's counter
// grows by the number of lanes that reached it (the pop-count merge of the
// ReliabilityFrom/To estimators). A node is enqueued exactly when its
// pending lane set transitions from empty to non-empty, so each node is
// expanded once per wave of newly arrived lanes; t itself is never
// expanded, matching the scalar early exit, and the BFS stops outright
// once every active lane has reached t.
//
// The expansion loop is split on whether the node has been scanned this
// block: a first scan interleaves mask sampling (the digit comparison of
// rng.BernoulliMask, inlined so the generator state stays in registers),
// while a re-expansion — whose arcs are all memoized by construction —
// runs a pure-load loop with no per-arc epoch checks.
func (v *MCVec) block(c *ugraph.CSR, src, t ugraph.NodeID, forward bool, lanes uint64, counts []float64) uint64 {
	sc := &v.sc
	sc.nextEpoch()
	epoch := sc.epoch
	nodes, edges := sc.nodes, sc.edges
	queue := sc.queue[:0]
	queue = append(queue, src)
	nodes[src] = laneNode{ep: epoch, vis: lanes, pend: lanes}
	if counts != nil {
		counts[src] += float64(bits.OnesCount64(lanes))
	}
	var tmask uint64
	r := &v.r
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nu := &nodes[u]
		f := nu.pend
		nu.pend = 0
		rescan := nu.scanEp == epoch
		nu.scanEp = epoch
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs = c.Out(u)
			if !rescan {
				probs = c.OutProbs(u)
			}
		} else {
			arcs = c.In(u)
			if !rescan {
				probs = c.InProbs(u)
			}
		}
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
				if counts != nil {
					counts[w] += float64(bits.OnesCount64(m))
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
				if counts != nil {
					counts[w] += float64(bits.OnesCount64(m))
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
