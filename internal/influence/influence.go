// Package influence implements the social-influence application layer of
// §8.4.2 and the two recent multi-source competitors of §8.1: the
// independent cascade (IC) spread objective (Equation 13), the IMA-style
// baseline (greedy edge addition maximizing influence spread from the
// sources restricted to the targets, after Corò et al. IJCAI'19) and the
// ESSSP-style baseline (greedy edge addition minimizing the sum of expected
// shortest-path lengths over all source-target pairs, after Parotsidis et
// al. WSDM'16).
package influence

import (
	"context"

	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// Config bundles the estimation parameters shared by the routines.
type Config struct {
	// Z is the number of sampled worlds per estimate (default 300).
	Z int
	// Seed drives the samplers.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Z <= 0 {
		c.Z = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Spread estimates the expected IC influence spread from sources restricted
// to targets (Equation 13): the expected number of target nodes activated.
// Under possible-world semantics this equals Σ_{t∈T} Pr[some s reaches t].
// A cancelled ctx stops the sampler within one sample block; the partial
// estimate is still unbiased but lower-resolution.
func Spread(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, cfg Config) float64 {
	cfg = cfg.withDefaults()
	mc := sampling.NewMonteCarlo(cfg.Z, rng.Split(cfg.Seed, 11).Int63())
	mc.SetContext(ctx)
	reach := mc.MultiSourceReachCSR(g.Freeze(), sources)
	total := 0.0
	for _, t := range targets {
		total += reach[t]
	}
	return total
}

// IMA greedily adds up to k candidate edges maximizing the influence spread
// from sources to targets. Cancellation keeps the rounds committed so far.
func IMA(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, cands []ugraph.Edge, k int, cfg Config) []ugraph.Edge {
	cfg = cfg.withDefaults()
	mc := sampling.NewMonteCarlo(cfg.Z, rng.Split(cfg.Seed, 12).Int63())
	mc.SetContext(ctx)
	objective := func(c *ugraph.CSR) float64 {
		reach := mc.MultiSourceReachCSR(c, sources)
		total := 0.0
		for _, t := range targets {
			total += reach[t]
		}
		return total
	}
	return greedyMaximize(ctx, g, cands, k, objective)
}

// ESSSP greedily adds up to k candidate edges minimizing the sum of
// expected shortest-path hop lengths over sources×targets; unreachable
// pairs are charged a penalty of N hops. Cancellation keeps the rounds
// committed so far.
func ESSSP(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, cands []ugraph.Edge, k int, cfg Config) []ugraph.Edge {
	cfg = cfg.withDefaults()
	mc := sampling.NewMonteCarlo(cfg.Z, rng.Split(cfg.Seed, 13).Int63())
	mc.SetContext(ctx)
	penalty := float64(g.N())
	objective := func(c *ugraph.CSR) float64 {
		return -mc.ExpectedPairHopsCSR(c, sources, targets, penalty)
	}
	return greedyMaximize(ctx, g, cands, k, objective)
}

// greedyMaximize runs k rounds of marginal-gain edge selection for an
// arbitrary snapshot objective (higher is better). Each round freezes the
// working graph once and scores every remaining candidate on a
// CSR.WithEdges view of that snapshot, so the per-candidate cost is the estimate alone — no
// clone, no snapshot rebuild. A cancelled ctx stops between candidates and
// returns the greedy prefix committed in completed rounds.
func greedyMaximize(ctx context.Context, g *ugraph.Graph, cands []ugraph.Edge, k int, objective func(*ugraph.CSR) float64) []ugraph.Edge {
	if ctx == nil {
		ctx = context.Background()
	}
	work := g.Clone()
	remaining := append([]ugraph.Edge(nil), cands...)
	var chosen []ugraph.Edge
	scratch := make([]ugraph.Edge, 1)
	for len(chosen) < k && len(remaining) > 0 {
		if ctx.Err() != nil {
			return chosen
		}
		snap := work.Freeze()
		base := objective(snap)
		bestIdx, bestGain := -1, 0.0
		for i, e := range remaining {
			if ctx.Err() != nil {
				break
			}
			scratch[0] = e
			gain := objective(snap.WithEdges(scratch)) - base
			if bestIdx < 0 || gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 || ctx.Err() != nil {
			break
		}
		e := remaining[bestIdx]
		chosen = append(chosen, e)
		work.MustAddEdge(e.U, e.V, e.P)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chosen
}
