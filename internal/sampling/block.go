package sampling

import (
	"math/bits"

	"repro/internal/ugraph"
)

// BlockSampler is implemented by serial samplers that can draw their
// possible worlds incrementally, in caller-sized blocks, instead of one
// fixed budget per call. It is the substrate of the anytime controller
// (internal/anytime): the controller opens a block stream for a query,
// draws blocks until its running confidence interval is tight enough, and
// stops — without ever discarding or re-drawing a sample.
//
// Determinism contract, pinned by the anytime differential tests: for the
// stream-continuing kinds (mc, mcvec) the concatenation of
// SampleBlock calls consumes randomness identically to one fixed-budget
// ReliabilityCSR call of the same total length at the same seed, so an
// adaptive run that stops after N samples is bit-identical to a fixed
// z = N run (for mcvec, provided every block size but the last is a
// multiple of its 64-lane quantum, which the anytime controller
// guarantees by construction). RSS is not prefix-continuable — its
// stratified recursion plans the whole budget up front — so each of its
// blocks is an independent stratified estimate of the same reliability
// and the pooled stream is reproducible per (seed, block schedule)
// rather than truncation-equivalent.
type BlockSampler interface {
	Sampler
	// BeginBlocks starts an incremental estimate of R(s, t) on the
	// snapshot, resetting per-query state exactly like the corresponding
	// ReliabilityCSR prologue. The returned stream borrows the sampler's
	// scratch: it is single-goroutine, and no other estimate may run on
	// the sampler until the stream is abandoned. Callers handle the
	// s == t certainty themselves; streams assume s != t.
	BeginBlocks(c *ugraph.CSR, s, t ugraph.NodeID) BlockStream
}

// BlockStream draws successive sample blocks for one query. SampleBlock
// runs n more possible worlds to completion (no mid-block cancellation —
// the anytime controller polls its context between blocks, keeping the
// drawn stream deterministic) and returns the success mass and the worlds
// actually drawn. For the Bernoulli kinds hits is an integer-valued count;
// for RSS it is est·n, so pooling Σhits/Σdrawn stays an unbiased estimate
// for every kind.
type BlockStream interface {
	SampleBlock(n int) (hits float64, drawn int)
}

// --- MonteCarlo ---

type mcBlocks struct {
	mc   *MonteCarlo
	c    *ugraph.CSR
	s, t ugraph.NodeID
}

// BeginBlocks implements BlockSampler. The scalar walk consumes randomness
// per (edge, world), so block boundaries are invisible to the stream.
func (mc *MonteCarlo) BeginBlocks(c *ugraph.CSR, s, t ugraph.NodeID) BlockStream {
	mc.sc.reset(c.N(), c.EdgeIDBound())
	return &mcBlocks{mc: mc, c: c, s: s, t: t}
}

func (bs *mcBlocks) SampleBlock(n int) (float64, int) {
	mc := bs.mc
	hits := 0
	for i := 0; i < n; i++ {
		if sampledWalkPlain(&mc.sc, mc.r, bs.c, bs.s, bs.t, true) {
			hits++
		}
	}
	return float64(hits), n
}

// --- MCVec ---

type vecBlocks struct {
	v    *MCVec
	c    *ugraph.CSR
	s, t ugraph.NodeID
}

// BeginBlocks implements BlockSampler. Randomness is consumed per
// (edge, lane block), so the stream matches a fixed-budget run as long as
// only the final block is lane-masked — i.e. every SampleBlock size but
// the last is a multiple of 64.
func (v *MCVec) BeginBlocks(c *ugraph.CSR, s, t ugraph.NodeID) BlockStream {
	v.sc.reset(c.N(), c.EdgeIDBound())
	return &vecBlocks{v: v, c: c, s: s, t: t}
}

func (bs *vecBlocks) SampleBlock(n int) (float64, int) {
	v := bs.v
	hits, drawn := 0, 0
	for remaining := n; remaining > 0; remaining -= laneBlock {
		lanes := fullLanes
		if remaining < laneBlock {
			lanes = fullLanes >> (laneBlock - remaining)
		}
		hits += bits.OnesCount64(v.block(bs.c, bs.s, bs.t, lanes))
		drawn += bits.OnesCount64(lanes)
	}
	return float64(hits), drawn
}

// --- RSS ---

type rssBlocks struct {
	rs   *RSS
	c    *ugraph.CSR
	s, t ugraph.NodeID
}

// BeginBlocks implements BlockSampler. RSS plans its stratification for a
// whole budget, so each SampleBlock runs one independent stratified
// estimate over n samples (recurse restores the conditioning status and
// arena completely on exit, making back-to-back recursions safe after one
// prepare). The RNG stream advances across blocks, so blocks are
// independent draws, and the pooled estimate is the budget-weighted mean
// of unbiased per-block estimates — the same merge rule ParallelSampler
// applies to RSS shards.
func (rs *RSS) BeginBlocks(c *ugraph.CSR, s, t ugraph.NodeID) BlockStream {
	rs.prepare(c)
	return &rssBlocks{rs: rs, c: c, s: s, t: t}
}

func (bs *rssBlocks) SampleBlock(n int) (float64, int) {
	if n < 1 {
		n = 1
	}
	est := bs.rs.recurse(bs.c, bs.s, bs.t, n)
	return est * float64(n), n
}
