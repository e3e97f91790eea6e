package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/candidates"
	"repro/internal/gen"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// referencePathSelect preserves the standalone Algorithm 5+6 greedy loop
// that pathSelect carried before it was folded onto batchSelect, verbatim.
// It is the oracle for TestPathSelectMatchesReference: the unified loop
// must reproduce its chosen edges AND its exact sequence of reliability
// estimates (same subgraphs, same order), because the sampler is stateful —
// one extra or reordered estimate would silently shift every later result.
func referencePathSelect(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, smp sampling.Sampler, opt Options, batch bool) ([]ugraph.Edge, int) {
	a := gPlus(g, candidates.Result{Edges: cands})
	pool := a.topL(ctx, s, t, opt.L)
	pathCount := len(pool)
	if pathCount == 0 {
		return nil, 0
	}
	ev := pathEvaluator{gPlus: a, s: s, t: t, smp: smp}

	type group struct {
		label []int32
		paths []paths.Path
	}
	var groups []*group
	if batch {
		byKey := make(map[string]*group)
		for _, p := range pool {
			lbl := a.label(p)
			key := labelKey(lbl)
			gr, ok := byKey[key]
			if !ok {
				gr = &group{label: lbl}
				byKey[key] = gr
				groups = append(groups, gr)
			}
			gr.paths = append(gr.paths, p)
		}
	} else {
		for _, p := range pool {
			groups = append(groups, &group{label: a.label(p), paths: []paths.Path{p}})
		}
	}

	chosen := make(map[int32]bool)
	var selected []paths.Path
	rest := groups[:0]
	for _, gr := range groups {
		if len(gr.label) == 0 {
			selected = append(selected, gr.paths...)
		} else {
			rest = append(rest, gr)
		}
	}
	groups = rest
	current := -1.0

	covered := func(lbl []int32, extra map[int32]bool) bool {
		for _, id := range lbl {
			if !chosen[id] && (extra == nil || !extra[id]) {
				return false
			}
		}
		return true
	}
	need := func(lbl []int32) int {
		n := 0
		for _, id := range lbl {
			if !chosen[id] {
				n++
			}
		}
		return n
	}

	for len(chosen) < opt.K && len(groups) > 0 {
		if ctx.Err() != nil {
			break
		}
		if current < 0 {
			current = ev.reliability(selected)
		}
		bestIdx := -1
		bestScore := -1.0
		var bestSelection []paths.Path
		var bestCohort []int
		for gi, gr := range groups {
			newEdges := need(gr.label)
			if len(chosen)+newEdges > opt.K {
				continue
			}
			trial := append(append([]paths.Path(nil), selected...), gr.paths...)
			var cohort []int
			if batch {
				extra := make(map[int32]bool, len(gr.label))
				for _, id := range gr.label {
					extra[id] = true
				}
				for gj, other := range groups {
					if gj == gi {
						continue
					}
					if covered(other.label, extra) {
						trial = append(trial, other.paths...)
						cohort = append(cohort, gj)
					}
				}
			}
			gain := ev.reliability(trial) - current
			score := gain
			if batch && newEdges > 0 {
				score = gain / float64(newEdges)
			}
			if score > bestScore {
				bestScore = score
				bestIdx = gi
				bestSelection = trial
				bestCohort = cohort
			}
		}
		if bestIdx < 0 {
			break
		}
		if ctx.Err() != nil {
			break
		}
		for _, id := range groups[bestIdx].label {
			chosen[id] = true
		}
		selected = bestSelection
		current = -1
		drop := map[int]bool{bestIdx: true}
		for _, gj := range bestCohort {
			drop[gj] = true
		}
		kept := groups[:0]
		for gi, gr := range groups {
			if !drop[gi] {
				kept = append(kept, gr)
			}
		}
		groups = kept
	}

	out := make([]ugraph.Edge, 0, len(chosen))
	ids := make([]int32, 0, len(chosen))
	for id := range chosen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out = append(out, a.Endpoints(id))
	}
	return out, pathCount
}

// estimateCall fingerprints one Reliability call: the shape of the queried
// subgraph, the endpoints, and the returned estimate.
type estimateCall struct {
	n, m int
	s, t ugraph.NodeID
	rel  float64
}

// recordingSampler wraps a serial sampler and logs every Reliability call,
// pinning the RNG call order of a greedy loop. Only the methods the
// path-selection loops actually use are instrumented.
type recordingSampler struct {
	sampling.Sampler
	calls []estimateCall
}

func (rs *recordingSampler) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	rel := rs.Sampler.Reliability(g, s, t)
	rs.calls = append(rs.calls, estimateCall{n: g.N(), m: g.M(), s: s, t: t, rel: rel})
	return rel
}

// pathSelectFixture builds deterministic test instances: a sparse random
// graph with a candidate set from the hop-bounded all-missing policy,
// small enough that ip and be runs finish in milliseconds.
func pathSelectFixture(t *testing.T, directed bool, seed int64) (*ugraph.Graph, []ugraph.Edge) {
	t.Helper()
	r := rng.New(seed)
	g := gen.ErdosRenyi(40, 80, directed, r)
	gen.AssignUniform(g, 0.3, 0.9, r)
	cands := candidates.AllMissing(g, 3, 0.5)
	if len(cands) == 0 {
		t.Fatal("fixture produced no candidate edges")
	}
	if len(cands) > 60 {
		cands = cands[:60]
	}
	return g, cands
}

// TestPathSelectMatchesReference is the bit-identity differential guarding
// the pathSelect → batchSelect unification: same edges, same path count,
// and the exact same sequence of reliability estimates (subgraph shape,
// endpoints, value) for both Algorithm 5 (ip) and Algorithm 6 (be), over
// directed and undirected graphs and several seeds. The objective is
// exact on selections this small, so the edge cap is lowered to 0 to pin
// the sampled fallback, the only part of the objective that draws.
func TestPathSelectMatchesReference(t *testing.T) {
	defer func(was int) { exactEdgeCap = was }(exactEdgeCap)
	exactEdgeCap = 0
	ctx := context.Background()
	for _, directed := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			for _, seed := range []int64{1, 7, 42} {
				g, cands := pathSelectFixture(t, directed, seed)
				opt := Options{K: 3, L: 12, Z: 120, Seed: seed}.withDefaults()

				refRec := &recordingSampler{Sampler: sampling.NewRSS(opt.Z, opt.Seed)}
				wantEdges, wantPaths := referencePathSelect(ctx, g, 0, ugraph.NodeID(g.N()-1), cands, refRec, opt, batch)

				gotRec := &recordingSampler{Sampler: sampling.NewRSS(opt.Z, opt.Seed)}
				gotEdges, gotPaths := pathSelect(ctx, g, 0, ugraph.NodeID(g.N()-1), candidates.Result{Edges: cands}, gotRec, opt, batch)

				if wantPaths != gotPaths {
					t.Fatalf("directed=%v batch=%v seed=%d: path count %d != reference %d",
						directed, batch, seed, gotPaths, wantPaths)
				}
				if len(wantEdges) != len(gotEdges) {
					t.Fatalf("directed=%v batch=%v seed=%d: %d edges != reference %d\nref %v\ngot %v",
						directed, batch, seed, len(gotEdges), len(wantEdges), wantEdges, gotEdges)
				}
				for i := range wantEdges {
					if wantEdges[i] != gotEdges[i] {
						t.Fatalf("directed=%v batch=%v seed=%d: edge[%d] %v != reference %v",
							directed, batch, seed, i, gotEdges[i], wantEdges[i])
					}
				}
				if len(refRec.calls) != len(gotRec.calls) {
					t.Fatalf("directed=%v batch=%v seed=%d: %d estimates != reference %d (RNG call order diverged)",
						directed, batch, seed, len(gotRec.calls), len(refRec.calls))
				}
				for i := range refRec.calls {
					if refRec.calls[i] != gotRec.calls[i] {
						t.Fatalf("directed=%v batch=%v seed=%d: estimate %d diverged: %+v != reference %+v",
							directed, batch, seed, i, gotRec.calls[i], refRec.calls[i])
					}
				}
				if len(refRec.calls) == 0 {
					t.Fatalf("directed=%v batch=%v seed=%d: reference made no estimates; fixture too trivial", directed, batch, seed)
				}
			}
		}
	}
}
