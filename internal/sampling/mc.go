package sampling

import (
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// MonteCarlo is the classic possible-world sampler: it draws Z deterministic
// graphs by flipping one coin per edge (lazily, only for edges actually
// examined by the BFS) and reports the fraction of worlds in which t is
// reachable from s. Complexity O(Z·(n+m)) per query. The inner loops run on
// a frozen CSR snapshot and allocate nothing in steady state.
type MonteCarlo struct {
	z  int
	r  *rng.Source
	sc scratch
	canceller
}

// NewMonteCarlo returns an MC sampler drawing z possible worlds per query,
// seeded deterministically.
func NewMonteCarlo(z int, seed int64) *MonteCarlo {
	return &MonteCarlo{z: z, r: rng.NewSource(seed)}
}

// Name implements Sampler.
func (mc *MonteCarlo) Name() string { return "mc" }

// SampleSize implements Sampler.
func (mc *MonteCarlo) SampleSize() int { return mc.z }

// SetSampleSize implements Sampler.
func (mc *MonteCarlo) SetSampleSize(z int) { mc.z = z }

// Reseed implements Sampler.
func (mc *MonteCarlo) Reseed(seed int64) { mc.r.Seed(seed) }

// Reliability implements Sampler.
func (mc *MonteCarlo) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	return mc.ReliabilityCSR(g.Freeze(), s, t)
}

// ReliabilityCSR implements Sampler.
func (mc *MonteCarlo) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	mc.sc.reset(c.N(), c.EdgeIDBound())
	hits := 0
	for i := 0; i < mc.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && mc.cancelled() {
			// Interrupted: report the fraction over the worlds actually
			// drawn, so a partial estimate is still unbiased.
			if i == 0 {
				return 0
			}
			return float64(hits) / float64(i)
		}
		if sampledWalkPlain(&mc.sc, mc.r, c, s, t, true) {
			hits++
		}
	}
	return float64(hits) / float64(mc.z)
}

// ReliabilityFrom implements Sampler.
func (mc *MonteCarlo) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return mc.vector(g.Freeze(), s, true)
}

// ReliabilityTo implements Sampler. For directed graphs it walks in-arcs
// backwards from t; v can reach t in a world iff the reverse walk reaches v.
func (mc *MonteCarlo) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return mc.vector(g.Freeze(), t, false)
}

// ReliabilityFromCSR implements Sampler.
func (mc *MonteCarlo) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	return mc.vector(c, s, true)
}

// ReliabilityToCSR implements Sampler.
func (mc *MonteCarlo) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	return mc.vector(c, t, false)
}

func (mc *MonteCarlo) vector(c *ugraph.CSR, src ugraph.NodeID, forward bool) []float64 {
	mc.sc.reset(c.N(), c.EdgeIDBound())
	counts := make([]float64, c.N())
	drawn := mc.z
	for i := 0; i < mc.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && mc.cancelled() {
			drawn = i
			break
		}
		sampledWalk(&mc.sc, mc.r, c, src, forward, counts)
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
