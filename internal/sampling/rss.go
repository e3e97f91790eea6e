package sampling

import (
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// DefaultRSSWidth is the number of edges r on which each recursion level
// stratifies the probability space (the paper's recursive stratified
// sampling partitions Ω into r+1 subspaces).
const DefaultRSSWidth = 6

// DefaultRSSThreshold is the per-stratum sample budget below which the
// estimator falls back to conditioned Monte Carlo on the simplified graph.
const DefaultRSSThreshold = 24

// RSS implements recursive stratified sampling [Li et al., TKDE 2016]. It
// recursively selects r undetermined edges on the frontier of the
// source-reachable region, partitions the probability space Ω into r+1
// non-overlapping strata (stratum i fixes edges 1..i-1 absent and edge i
// present; the last stratum fixes all r absent), allocates the sample
// budget proportionally to each stratum's probability mass π_i, and
// estimates each stratum recursively — running plain conditioned MC once
// the stratum budget drops to DefaultRSSThreshold. Same O(Z·(n+m)) complexity as
// MC but with significantly reduced estimator variance, so fewer samples
// reach the same dispersion (Tables 6-7).
//
// The recursion keeps its per-level boundary edges in one reusable arena
// stack (indexed, never resliced across appends), so a warmed-up estimate
// performs zero heap allocations.
type RSS struct {
	z      int
	r      *rng.Source
	sc     scratch
	status []int8
	arena  []int32 // stack of boundary edge IDs across recursion levels
	canceller
}

// NewRSS returns an RSS sampler with total budget z, stratification width
// DefaultRSSWidth and MC-fallback threshold DefaultRSSThreshold, seeded
// deterministically.
func NewRSS(z int, seed int64) *RSS {
	return &RSS{z: z, r: rng.NewSource(seed)}
}

// Name implements Sampler.
func (rs *RSS) Name() string { return "rss" }

// SampleSize implements Sampler.
func (rs *RSS) SampleSize() int { return rs.z }

// SetSampleSize implements Sampler.
func (rs *RSS) SetSampleSize(z int) { rs.z = z }

// Reseed implements Sampler.
func (rs *RSS) Reseed(seed int64) { rs.r.Seed(seed) }

func (rs *RSS) prepare(c *ugraph.CSR) {
	rs.sc.reset(c.N(), c.EdgeIDBound())
	if cap(rs.status) < c.EdgeIDBound() {
		rs.status = make([]int8, c.EdgeIDBound())
	}
	rs.status = rs.status[:c.EdgeIDBound()]
	for i := range rs.status {
		rs.status[i] = 0
	}
	rs.arena = rs.arena[:0]
}

// Reliability implements Sampler.
func (rs *RSS) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	return rs.ReliabilityCSR(g.Freeze(), s, t)
}

// ReliabilityCSR implements Sampler.
func (rs *RSS) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	rs.prepare(c)
	return rs.recurse(c, s, t, rs.z)
}

// ReliabilityFrom implements Sampler.
func (rs *RSS) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return rs.ReliabilityFromCSR(g.Freeze(), s)
}

// ReliabilityTo implements Sampler.
func (rs *RSS) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return rs.ReliabilityToCSR(g.Freeze(), t)
}

// ReliabilityFromCSR implements Sampler.
func (rs *RSS) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	acc := make([]float64, c.N())
	rs.prepare(c)
	rs.recurseVec(c, s, true, rs.z, 1.0, acc)
	return acc
}

// ReliabilityToCSR implements Sampler.
func (rs *RSS) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	acc := make([]float64, c.N())
	rs.prepare(c)
	rs.recurseVec(c, t, false, rs.z, 1.0, acc)
	return acc
}

// pushBoundary appends up to width undetermined edges leaving the current
// source-reachable (present-edges-only) region onto the arena stack. It
// must be called right after deterministicReach, while the epoch marks are
// valid. The caller owns the arena range [lo, len(arena)) it grew.
func (rs *RSS) pushBoundary(c *ugraph.CSR, reach []ugraph.NodeID, forward bool) {
	lo := len(rs.arena)
	for _, u := range reach {
		var arcs []ugraph.Arc
		if forward {
			arcs = c.Out(u)
		} else {
			arcs = c.In(u)
		}
		for _, a := range arcs {
			if rs.sc.nodeEp[a.To] == rs.sc.epoch {
				continue // both endpoints inside the region
			}
			if rs.status[a.EID] != 0 {
				continue
			}
			rs.arena = append(rs.arena, a.EID)
			if len(rs.arena)-lo >= DefaultRSSWidth {
				return
			}
		}
	}
}

// recurse estimates R(s,t | status) · 1.0 under the current conditioning.
// Boundary edges live in rs.arena[lo:hi]; they are addressed through the
// arena (never via a captured slice header) because nested recursions may
// grow and reallocate the backing array.
func (rs *RSS) recurse(c *ugraph.CSR, s, t ugraph.NodeID, budget int) float64 {
	// Cancellation granularity: one check per recursion node. Every node
	// either runs at most DefaultRSSThreshold conditioned walks or
	// recurses, so the work between checks is bounded by one sample block.
	if rs.cancelled() {
		return 0
	}
	// Certain success: t reachable through forced-present edges alone.
	reach := deterministicReach(&rs.sc, c, s, t, true, rs.status, false)
	if rs.sc.nodeEp[t] == rs.sc.epoch {
		return 1
	}
	lo := len(rs.arena)
	rs.pushBoundary(c, reach, true)
	hi := len(rs.arena)
	if hi == lo {
		// The reachable region cannot grow: certain failure.
		return 0
	}
	// Certain failure: t unreachable even optimistically. (The arena is
	// truncated manually on every return: a deferred closure would defeat
	// the zero-allocation contract of the inner loop.)
	deterministicReach(&rs.sc, c, s, t, true, rs.status, true)
	if rs.sc.nodeEp[t] != rs.sc.epoch {
		rs.arena = rs.arena[:lo]
		return 0
	}
	if budget <= DefaultRSSThreshold {
		z := budget
		if z < 1 {
			z = 1
		}
		hits := 0
		for i := 0; i < z; i++ {
			if i&(ctxCheckBlock-1) == 0 && i > 0 && rs.cancelled() {
				rs.arena = rs.arena[:lo]
				return float64(hits) / float64(i)
			}
			if sampledWalkCond(&rs.sc, rs.r, c, s, t, true, rs.status) {
				hits++
			}
		}
		rs.arena = rs.arena[:lo]
		return float64(hits) / float64(z)
	}
	total := 0.0
	remaining := 1.0 // ∏_{j<i} (1 - p_j)
	for i := lo; i <= hi; i++ {
		var pi float64
		if i < hi {
			p := c.Prob(rs.arena[i])
			pi = remaining * p
			rs.status[rs.arena[i]] = 1
		} else {
			pi = remaining
		}
		if pi > 0 {
			total += float64(pi * rs.recurse(c, s, t, int(float64(pi*float64(budget))+0.5)))
		}
		if i < hi {
			rs.status[rs.arena[i]] = -1
			remaining *= 1 - c.Prob(rs.arena[i])
		}
	}
	for i := lo; i < hi; i++ {
		rs.status[rs.arena[i]] = 0
	}
	rs.arena = rs.arena[:lo]
	return total
}

// recurseVec accumulates weight·R(src, v | status) into acc for every node v.
func (rs *RSS) recurseVec(c *ugraph.CSR, src ugraph.NodeID, forward bool, budget int, weight float64, acc []float64) {
	if rs.cancelled() {
		return
	}
	reach := deterministicReach(&rs.sc, c, src, -1, forward, rs.status, false)
	lo := len(rs.arena)
	rs.pushBoundary(c, reach, forward)
	hi := len(rs.arena)
	if hi == lo {
		// Fully determined region: every reached node is certain.
		for _, v := range reach {
			acc[v] += weight
		}
		return
	}
	if budget <= DefaultRSSThreshold {
		z := budget
		if z < 1 {
			z = 1
		}
		w := weight / float64(z)
		for i := 0; i < z; i++ {
			if i&(ctxCheckBlock-1) == 0 && i > 0 && rs.cancelled() {
				break
			}
			sampledWalkCond(&rs.sc, rs.r, c, src, -1, forward, rs.status)
			for _, v := range rs.sc.queue {
				acc[v] += w
			}
		}
		rs.arena = rs.arena[:lo]
		return
	}
	remaining := 1.0
	for i := lo; i <= hi; i++ {
		var pi float64
		if i < hi {
			pi = remaining * c.Prob(rs.arena[i])
			rs.status[rs.arena[i]] = 1
		} else {
			pi = remaining
		}
		if pi > 0 {
			rs.recurseVec(c, src, forward, int(float64(pi*float64(budget))+0.5), weight*pi, acc)
		}
		if i < hi {
			rs.status[rs.arena[i]] = -1
			remaining *= 1 - c.Prob(rs.arena[i])
		}
	}
	for i := lo; i < hi; i++ {
		rs.status[rs.arena[i]] = 0
	}
	rs.arena = rs.arena[:lo]
}
