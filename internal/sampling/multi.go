package sampling

import "repro/internal/ugraph"

// MultiSourceReachCSR estimates, for every node v, the probability that v
// is reachable from at least one node of sources — the per-world
// activation probability of the independent cascade process (§8.4.2): in
// a possible world, v is active iff some source reaches it. Greedy
// influence loops freeze once and evaluate candidate edges on WithEdges
// views.
func (mc *MonteCarlo) MultiSourceReachCSR(c *ugraph.CSR, sources []ugraph.NodeID) []float64 {
	mc.sc.reset(c.N(), c.EdgeIDBound())
	counts := make([]float64, c.N())
	drawn := mc.z
	for i := 0; i < mc.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && mc.cancelled() {
			drawn = i
			break
		}
		mc.multiWalk(c, sources, counts)
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

// multiWalk samples one world and BFS-expands from every source at once.
func (mc *MonteCarlo) multiWalk(c *ugraph.CSR, sources []ugraph.NodeID, counts []float64) {
	sc := &mc.sc
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	for _, s := range sources {
		if sc.nodeEp[s] != sc.epoch {
			sc.nodeEp[s] = sc.epoch
			counts[s]++
			sc.queue = append(sc.queue, s)
		}
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		probs := c.OutProbs(u)
		for i, a := range c.Out(u) {
			if sc.nodeEp[a.To] == sc.epoch {
				continue
			}
			if st := sc.edgeSt[a.EID]; st != sc.epoch && st != -sc.epoch {
				if mc.r.Float64() < probs[i] {
					sc.edgeSt[a.EID] = sc.epoch
				} else {
					sc.edgeSt[a.EID] = -sc.epoch
					continue
				}
			} else if st != sc.epoch {
				continue
			}
			sc.nodeEp[a.To] = sc.epoch
			counts[a.To]++
			sc.queue = append(sc.queue, a.To)
		}
	}
}

// ExpectedPairHopsCSR estimates the expected shortest-path hop length
// summed over all (s, t) ∈ sources×targets on a frozen snapshot, where an
// unreachable pair contributes penalty hops. This is the objective the
// ESSSP baseline minimizes.
func (mc *MonteCarlo) ExpectedPairHopsCSR(c *ugraph.CSR, sources, targets []ugraph.NodeID, penalty float64) float64 {
	mc.sc.reset(c.N(), c.EdgeIDBound())
	dist := make([]int32, c.N())
	total := 0.0
	drawn := mc.z
	for i := 0; i < mc.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && mc.cancelled() {
			drawn = i
			break
		}
		// One world per (sample, source) pair keeps the estimator simple
		// and unbiased: each source sees an independent world.
		for _, s := range sources {
			mc.walkDistances(c, s, dist)
			for _, t := range targets {
				if d := dist[t]; d >= 0 {
					total += float64(d)
				} else {
					total += penalty
				}
			}
		}
	}
	if drawn == 0 {
		return 0
	}
	return total / float64(drawn)
}

// walkDistances samples a world lazily and records BFS hop distances from
// s (-1 for unreachable).
func (mc *MonteCarlo) walkDistances(c *ugraph.CSR, s ugraph.NodeID, dist []int32) {
	sc := &mc.sc
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	sc.nodeEp[s] = sc.epoch
	sc.queue = append(sc.queue, s)
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		probs := c.OutProbs(u)
		for i, a := range c.Out(u) {
			if sc.nodeEp[a.To] == sc.epoch {
				continue
			}
			if st := sc.edgeSt[a.EID]; st != sc.epoch && st != -sc.epoch {
				if mc.r.Float64() < probs[i] {
					sc.edgeSt[a.EID] = sc.epoch
				} else {
					sc.edgeSt[a.EID] = -sc.epoch
					continue
				}
			} else if st != sc.epoch {
				continue
			}
			sc.nodeEp[a.To] = sc.epoch
			dist[a.To] = dist[u] + 1
			sc.queue = append(sc.queue, a.To)
		}
	}
}
