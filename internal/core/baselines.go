package core

import (
	"context"

	"repro/internal/centrality"
	"repro/internal/eigen"
	"repro/internal/paths"
	"repro/internal/pq"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// individualTopK implements the §3.1 baseline: estimate the reliability
// gain of each candidate edge in isolation and keep the k best. It ignores
// interactions between chosen edges, which is exactly its documented
// weakness.
func individualTopK(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, smp sampling.BatchSampler, opt Options) []ugraph.Edge {
	base := smp.Reliability(g, s, t)
	scores := smp.EstimateEdges(g, s, t, cands)
	if ctx.Err() != nil {
		// The scores are incomplete (unevaluated candidates read as zero);
		// ranking them would promote arbitrary edges into the partial
		// solution. This method has no committed rounds to keep.
		return nil
	}
	sel := pq.NewTopK[ugraph.Edge](opt.K)
	for i, after := range scores {
		sel.Offer(after-base, cands[i])
	}
	items := sel.Items()
	out := make([]ugraph.Edge, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// hillClimbing implements Algorithm 1: k greedy rounds, each adding the
// candidate edge with the maximum marginal reliability gain on the graph
// augmented so far. Without submodularity it carries no guarantee, and its
// Z-sampled evaluation of every candidate each round makes it the slowest
// competitor (Tables 4-5).
func hillClimbing(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, smp sampling.BatchSampler, opt Options) []ugraph.Edge {
	var chosen []ugraph.Edge
	remaining := append([]ugraph.Edge(nil), cands...)
	work := g.Clone()
	for len(chosen) < opt.K && len(remaining) > 0 {
		if ctx.Err() != nil {
			return chosen // partial greedy prefix
		}
		base := smp.Reliability(work, s, t)
		bestIdx, bestGain := -1, -1.0
		for i, after := range smp.EstimateEdges(work, s, t, remaining) {
			if gain := after - base; gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if ctx.Err() != nil {
			return chosen // this round's scores are incomplete; drop them
		}
		if bestIdx < 0 {
			break
		}
		e := remaining[bestIdx]
		chosen = append(chosen, e)
		work.MustAddEdge(e.U, e.V, e.P)
		opt.emit(ProgressEvent{Stage: StageSelect, Round: len(chosen), Total: opt.K, Edges: len(chosen)})
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chosen
}

// centralityEdges implements the §3.3 baseline: rank candidate edges by
// the summed centrality of their endpoints (degree or betweenness) and
// keep the k best. Not query-specific — its documented weakness. A
// cancelled ctx stops the betweenness sweep early; ranking candidates
// against those incomplete scores would promote arbitrary edges, so —
// like every score-ranking method and unlike the greedy solvers, which
// keep their committed rounds — the partial solution holds no edges.
func centralityEdges(ctx context.Context, g *ugraph.Graph, cands []ugraph.Edge, opt Options, useBetweenness bool) []ugraph.Edge {
	var scores []float64
	if useBetweenness {
		scores = centrality.BetweennessScores(ctx, g)
	} else {
		scores = centrality.DegreeScores(g)
	}
	if ctx.Err() != nil {
		return nil
	}
	sel := pq.NewTopK[ugraph.Edge](opt.K)
	for _, e := range cands {
		sel.Offer(scores[e.U]+scores[e.V], e)
	}
	items := sel.Items()
	out := make([]ugraph.Edge, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// eigenEdges implements the §3.4 baseline (Algorithm 2): rank candidate
// edges by the leading-eigenvalue gain approximation u(i)·v(j) and keep
// the k best.
func eigenEdges(ctx context.Context, g *ugraph.Graph, cands []ugraph.Edge, opt Options) []ugraph.Edge {
	_, left, right := eigen.Leading(ctx, g, 0)
	if ctx.Err() != nil {
		return nil // unconverged vectors would rank candidates arbitrarily
	}
	sel := pq.NewTopK[ugraph.Edge](opt.K)
	for _, e := range cands {
		score := left[e.U] * right[e.V]
		if !g.Directed() {
			if rev := left[e.V] * right[e.U]; rev > score {
				score = rev
			}
		}
		sel.Offer(score, e)
	}
	items := sel.Items()
	out := make([]ugraph.Edge, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// mrpEdges solves the restricted Problem 2 exactly (Algorithm 3) and
// returns the red edges of the best most-reliable path.
func mrpEdges(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, opt Options) []ugraph.Edge {
	res := paths.ImproveMostReliablePath(ctx, g, cands, s, t, opt.K)
	return res.Chosen
}
