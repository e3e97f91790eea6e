package core

import (
	"context"
	"slices"

	"repro/internal/candidates"
	"repro/internal/paths"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// augmented is G+ = G ∪ E+, whose first origM edges are G's. With E+
// listed, g is G+ itself, built by WithEdges on the list. With E+ as
// elimination's implicit pair set, g is G, and candidate k is edge
// origM+k with the endpoints and probability it has in
// g.WithEdges(pairs.List()).
type augmented struct {
	g     *ugraph.Graph
	origM int32
	pairs *candidates.Pairs // when non-nil, E+ is implicit and g is G
}

// gPlus returns G+ for a candidate set: G over elimination's pairs when it
// ran, and g.WithEdges of the list otherwise.
func gPlus(g *ugraph.Graph, res candidates.Result) augmented {
	if res.Pairs != nil {
		return augmented{g: g, origM: int32(g.M()), pairs: res.Pairs}
	}
	return augmented{g: g.WithEdges(res.Edges), origM: int32(g.M())}
}

// Directed reports whether G+ is directed.
func (a augmented) Directed() bool { return a.g.Directed() }

// Prob returns the probability of edge eid of G+.
func (a augmented) Prob(eid int32) float64 {
	if a.pairs != nil && eid >= a.origM {
		return a.pairs.Zeta
	}
	return a.g.Prob(eid)
}

// Endpoints returns edge eid of G+; for a candidate, its spec as given.
func (a augmented) Endpoints(eid int32) ugraph.Edge {
	if a.pairs != nil && eid >= a.origM {
		return a.pairs.Edge(int(eid - a.origM))
	}
	return a.g.Endpoints(eid)
}

// topL extracts the top-l most reliable s-t paths in G+.
func (a augmented) topL(ctx context.Context, s, t ugraph.NodeID, l int) []paths.Path {
	if a.pairs != nil {
		return paths.TopLPairs(ctx, a.g, a.pairs, s, t, l)
	}
	return paths.TopL(ctx, a.g, s, t, l)
}

// label extracts the sorted candidate-edge IDs on a path — the path batch
// label of Algorithm 6.
func (a augmented) label(p paths.Path) []int32 {
	var ids []int32
	for _, eid := range p.Edges {
		if eid >= a.origM {
			ids = append(ids, eid)
		}
	}
	slices.Sort(ids)
	return ids
}

func labelKey(ids []int32) string {
	buf := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

// pathEvaluator scores R(s, t, P1): the s-t reliability on the subgraph
// induced by a set of selected paths (Problem 3's objective). It computes
// it exactly by factoring with series–parallel reductions before each
// branch (Satyanarayana & Wood 1985; Page & Perry 1988; see pathGraph),
// and samples the induced subgraph only when the selection is too large
// for that (more than exactEdgeCap distinct edges or exactMaxCalls
// factoring calls).
type pathEvaluator struct {
	gPlus augmented
	s, t  ugraph.NodeID
	smp   sampling.Sampler
	exact pathGraph
}

// reliability scores a selection. An empty selection, or one not touching
// both endpoints, has reliability 0; only the sampled fallback consumes
// randomness.
func (ev *pathEvaluator) reliability(selected []paths.Path) float64 {
	if len(selected) == 0 {
		return 0
	}
	if ev.exact.load(ev.gPlus, selected) {
		if r, ok := ev.exact.reliability(ev.s, ev.t); ok {
			return r
		}
	}
	sub, remap := inducedSubgraph(ev.gPlus, selected)
	ss, okS := remap[ev.s]
	tt, okT := remap[ev.t]
	if !okS || !okT {
		return 0
	}
	return ev.smp.Reliability(sub, ss, tt)
}

// pathSelect implements Algorithms 5 and 6: extract the top-l most reliable
// paths in G+ and greedily select paths (batch=false, Individual Path-based
// Edge Selection) or path batches (batch=true, Path Batches-based Edge
// Selection) maximizing the reliability of the selected-path subgraph while
// keeping at most K candidate edges. The greedy loop itself is batchSelect —
// one implementation shared with the Problem 4 solvers — driven by the
// single-pair objective, which is exact unless a selection is too large to
// factor; the sampled fallback's RNG call order is pinned against the
// historical standalone loop by TestPathSelectMatchesReference.
func pathSelect(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands candidates.Result, smp sampling.Sampler, opt Options, batch bool) ([]ugraph.Edge, int) {
	a := gPlus(g, cands)
	pool := a.topL(ctx, s, t, opt.L)
	pathCount := len(pool)
	opt.emit(ProgressEvent{Stage: StagePaths, Paths: pathCount, Candidates: cands.Len()})
	if pathCount == 0 {
		return nil, 0
	}
	ev := &pathEvaluator{gPlus: a, s: s, t: t, smp: smp}
	return batchSelect(ctx, a, pool, opt, ev.reliability, batch), pathCount
}
