package core

import (
	"context"
	"sort"

	"repro/internal/paths"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// augmented is G+ = G ∪ E+ with bookkeeping to recognize candidate edges by
// edge ID.
type augmented struct {
	g     *ugraph.Graph
	origM int32
	cand  []ugraph.Edge // cand[eid-origM] is candidate edge eid's original spec
}

func augment(g *ugraph.Graph, cands []ugraph.Edge) augmented {
	a := augmented{g: g.WithEdges(cands), origM: int32(g.M())}
	// WithEdges adds the new candidates in order as IDs origM, origM+1, ...
	// and records each exactly as given.
	a.cand = make([]ugraph.Edge, int32(a.g.M())-a.origM)
	for i := range a.cand {
		a.cand[i] = a.g.Endpoints(a.origM + int32(i))
	}
	return a
}

// spec returns candidate edge eid's original spec; eid must be >= origM.
func (a augmented) spec(eid int32) ugraph.Edge { return a.cand[eid-a.origM] }

// label extracts the sorted candidate-edge IDs on a path — the path batch
// label of Algorithm 6.
func (a augmented) label(p paths.Path) []int32 {
	var ids []int32
	for _, eid := range p.Edges {
		if eid >= a.origM {
			ids = append(ids, eid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
// it exactly by factoring, and samples the induced subgraph only when the
// selection is too large for that (more than exactEdgeCap distinct edges or
// exactMaxCalls factoring calls).
type pathEvaluator struct {
	gPlus *ugraph.Graph
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
func pathSelect(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, smp sampling.Sampler, opt Options, batch bool) ([]ugraph.Edge, int) {
	a := augment(g, cands)
	pool := paths.TopL(ctx, a.g, s, t, opt.L)
	pathCount := len(pool)
	opt.emit(ProgressEvent{Stage: StagePaths, Paths: pathCount, Candidates: len(cands)})
	if pathCount == 0 {
		return nil, 0
	}
	ev := &pathEvaluator{gPlus: a.g, s: s, t: t, smp: smp}
	return batchSelect(ctx, a, pool, opt, ev.reliability, batch), pathCount
}
