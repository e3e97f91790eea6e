package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/paths"
	"repro/internal/ugraph"
)

// TotalBudgetSolution is the outcome of SolveTotalBudget.
type TotalBudgetSolution struct {
	// Edges are the chosen new edges with their allocated probabilities
	// (each in (0, 1], probabilities summing to at most Budget).
	Edges []ugraph.Edge
	// Spent is the total probability mass allocated (≤ Budget).
	Spent float64
	// Base, After, Gain are the s-t reliabilities before/after, measured
	// on the full graph with a held-out sampler.
	Base, After, Gain float64
	Elapsed           time.Duration
}

// SolveTotalBudget implements the §9 future-work variant of Problem 1: a
// TOTAL reliability budget B on new edges instead of a fixed per-edge ζ.
// Both which edges to create and how much probability to allocate to each
// must be decided jointly.
//
// The solver reuses the §5 pipeline: candidate edges come from search space
// elimination (at the nominal probability B/K for path extraction), the
// top-l most reliable paths bound the candidate set, and the budget is then
// allocated greedily in steps of B/Steps to whichever candidate edge
// currently yields the largest marginal reliability gain on the
// selected-path subgraph. Steps defaults to 20.
func SolveTotalBudget(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, budget float64, opt Options) (TotalBudgetSolution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if err := checkQuery(g, s, t); err != nil {
		return TotalBudgetSolution{}, err
	}
	if err := opt.Validate(g.N()); err != nil {
		return TotalBudgetSolution{}, err
	}
	if budget <= 0 {
		return TotalBudgetSolution{}, fmt.Errorf("core: total budget %v must be positive: %w", budget, ErrBudget)
	}
	start := time.Now()
	smp, err := opt.NewSampler(ctx, 5)
	if err != nil {
		return TotalBudgetSolution{}, err
	}
	// Nominal per-edge probability for candidate generation and path
	// extraction: an even split over K edges.
	nominal := budget / float64(opt.K)
	if nominal > 1 {
		nominal = 1
	}
	if nominal <= 0.01 {
		nominal = 0.01
	}
	candOpt := opt
	candOpt.Zeta = nominal
	elim, err := candOpt.elimSampler(ctx)
	if err != nil {
		return TotalBudgetSolution{}, err
	}
	cands, err := candidateSet(g, s, t, elim, candOpt)
	if err != nil {
		return TotalBudgetSolution{}, err
	}
	a := augment(g, cands)
	pool := paths.TopL(ctx, a.g, s, t, opt.L)
	sol := TotalBudgetSolution{}
	if len(pool) > 0 {
		sol.Edges, sol.Spent = allocateBudget(ctx, a, pool, s, t, budget, opt, smp)
	}
	if cerr := ctx.Err(); cerr != nil {
		sol.Elapsed = time.Since(start)
		return sol, interrupted("budget allocation", cerr)
	}
	eval, err := opt.NewSampler(ctx, 6)
	if err != nil {
		return TotalBudgetSolution{}, err
	}
	sol.Base = eval.Reliability(g, s, t)
	sol.After = eval.ReliabilityCSR(g.Freeze().WithEdges(sol.Edges), s, t)
	sol.Elapsed = time.Since(start)
	if cerr := ctx.Err(); cerr != nil {
		sol.Base, sol.After = 0, 0
		return sol, interrupted("evaluation", cerr)
	}
	sol.Gain = sol.After - sol.Base
	return sol, nil
}

// allocateBudget greedily distributes the probability budget over the
// candidate edges appearing on the extracted paths.
func allocateBudget(ctx context.Context, a augmented, pool []paths.Path, s, t ugraph.NodeID, budget float64, opt Options, smp interface {
	Reliability(*ugraph.Graph, ugraph.NodeID, ugraph.NodeID) float64
}) ([]ugraph.Edge, float64) {
	// Build the induced subgraph of ALL extracted paths once; candidate
	// edges start at probability 0 and receive budget increments.
	sub, remap := inducedSubgraph(a.g, pool)
	ss, okS := remap[s]
	tt, okT := remap[t]
	if !okS || !okT {
		return nil, 0
	}
	// Locate candidate edges inside the subgraph.
	type slot struct {
		spec  ugraph.Edge // original endpoints
		eid   int32       // edge id in sub
		alloc float64
	}
	var slots []*slot
	seen := map[int32]bool{}
	for _, p := range pool {
		for i, eid := range p.Edges {
			if eid < a.origM || seen[eid] {
				continue
			}
			seen[eid] = true
			u, v := remap[p.Nodes[i]], remap[p.Nodes[i+1]]
			subEID, ok := sub.EdgeID(u, v)
			if !ok {
				continue
			}
			spec := a.cand[eid]
			slots = append(slots, &slot{spec: spec, eid: subEID})
			if err := sub.SetProb(subEID, 0); err != nil {
				panic(err)
			}
		}
	}
	if len(slots) == 0 {
		return nil, 0
	}
	const steps = 20
	delta := budget / steps
	remaining := budget
	current := smp.Reliability(sub, ss, tt)
	for remaining > 1e-9 {
		if ctx.Err() != nil {
			break // keep the allocation committed so far
		}
		step := delta
		if step > remaining {
			step = remaining
		}
		bestIdx, bestGain := -1, 0.0
		for i, sl := range slots {
			if sl.alloc+step > 1 {
				continue
			}
			if err := sub.SetProb(sl.eid, sl.alloc+step); err != nil {
				panic(err)
			}
			gain := smp.Reliability(sub, ss, tt) - current
			if err := sub.SetProb(sl.eid, sl.alloc); err != nil {
				panic(err)
			}
			if bestIdx < 0 || gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // every slot saturated at probability 1
		}
		sl := slots[bestIdx]
		sl.alloc += step
		if err := sub.SetProb(sl.eid, sl.alloc); err != nil {
			panic(err)
		}
		current += bestGain
		remaining -= step
	}
	var out []ugraph.Edge
	spent := 0.0
	for _, sl := range slots {
		if sl.alloc > 1e-9 {
			out = append(out, ugraph.Edge{U: sl.spec.U, V: sl.spec.V, P: sl.alloc})
			spent += sl.alloc
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out, spent
}
