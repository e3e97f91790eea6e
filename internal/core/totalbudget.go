package core

import (
	"context"
	"fmt"
	"math"
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
	// Base, After, Gain are the s-t reliabilities before/after. Base comes
	// from search-space elimination when it ran, and from the held-out
	// sampler otherwise; After always comes from the held-out sampler (see
	// Solution.Base).
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
	if err := CheckBudget(budget); err != nil {
		return TotalBudgetSolution{}, err
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
	res, err := candidateSet(ctx, g, s, t, elim, candOpt)
	if err != nil {
		return TotalBudgetSolution{}, err
	}
	a := gPlus(g, res)
	pool := a.topL(ctx, s, t, opt.L)
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
	sol.Base, sol.After = evaluate(eval, g, s, t, res, sol.Edges)
	sol.Elapsed = time.Since(start)
	if cerr := ctx.Err(); cerr != nil {
		sol.Base, sol.After = 0, 0
		return sol, interrupted("evaluation", cerr)
	}
	sol.Gain = sol.After - sol.Base
	return sol, nil
}

// CheckBudget reports ErrBudget for a total budget that is not finite and
// positive. NaN would otherwise slip past a "budget <= 0" test and poison
// the nominal edge probability, and +Inf would buy nothing.
func CheckBudget(budget float64) error {
	if !(budget > 0) || math.IsInf(budget, 1) {
		return fmt.Errorf("core: total budget %v must be finite and positive: %w", budget, ErrBudget)
	}
	return nil
}

// allocateBudget greedily distributes the probability budget over the
// candidate edges appearing on the extracted paths, scoring each step on
// the subgraph induced by ALL of them. It factors that subgraph exactly
// when it fits pathGraph, and otherwise (or when the factoring runs past
// its call budget) samples it, the result as if the exact pass never ran.
func allocateBudget(ctx context.Context, a augmented, pool []paths.Path, s, t ugraph.NodeID, budget float64, opt Options, smp interface {
	Reliability(*ugraph.Graph, ugraph.NodeID, ugraph.NodeID) float64
}) ([]ugraph.Edge, float64) {
	var slots []budgetSlot
	seen := map[int32]bool{}
	for _, p := range pool {
		for _, eid := range p.Edges {
			if eid < a.origM || seen[eid] {
				continue
			}
			seen[eid] = true
			slots = append(slots, budgetSlot{spec: a.Endpoints(eid), eid: eid})
		}
	}
	if len(slots) == 0 {
		return nil, 0
	}
	var pg pathGraph
	if pg.load(a, pool) {
		setProb := func(eid int32, p float64) { pg.p[pg.local(eid)] = p }
		if greedyAllocate(ctx, slots, budget, setProb, func() (float64, bool) { return pg.reliability(s, t) }) {
			return budgetEdges(slots)
		}
	}
	// Sampled: candidate edges start at probability 0 in the induced
	// subgraph and receive budget increments.
	sub, remap := inducedSubgraph(a, pool)
	ss, okS := remap[s]
	tt, okT := remap[t]
	if !okS || !okT {
		return nil, 0
	}
	setProb := func(eid int32, p float64) {
		// Every pool edge is in sub, so the lookup cannot miss.
		e := a.Endpoints(eid)
		subEID, _ := sub.EdgeID(remap[e.U], remap[e.V])
		if err := sub.SetProb(subEID, p); err != nil {
			panic(err)
		}
	}
	greedyAllocate(ctx, slots, budget, setProb, func() (float64, bool) { return smp.Reliability(sub, ss, tt), true })
	return budgetEdges(slots)
}

// budgetSlot is a candidate edge of the total-budget allocation: its
// original spec, its edge ID in G+ and the probability allocated so far.
type budgetSlot struct {
	spec  ugraph.Edge
	eid   int32
	alloc float64
}

// greedyAllocate spends the budget in steps of budget/20, each on the slot
// whose increment gains the most reliability. setProb sets a slot's
// probability in the scored subgraph, and rel scores it. It reports false,
// with the slots reset, as soon as rel does.
func greedyAllocate(ctx context.Context, slots []budgetSlot, budget float64, setProb func(eid int32, p float64), rel func() (float64, bool)) bool {
	for i := range slots {
		slots[i].alloc = 0
		setProb(slots[i].eid, 0)
	}
	const steps = 20
	delta := budget / steps
	remaining := budget
	current, ok := rel()
	for ok && remaining > 1e-9 {
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
			setProb(sl.eid, sl.alloc+step)
			var r float64
			r, ok = rel()
			setProb(sl.eid, sl.alloc)
			if !ok {
				break
			}
			if gain := r - current; bestIdx < 0 || gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if !ok || bestIdx < 0 {
			break // past the factoring budget, or every slot saturated at probability 1
		}
		sl := &slots[bestIdx]
		sl.alloc += step
		setProb(sl.eid, sl.alloc)
		current += bestGain
		remaining -= step
	}
	if !ok {
		for i := range slots {
			slots[i].alloc = 0
		}
	}
	return ok
}

// budgetEdges lists the slots given probability, sorted by endpoints, and
// the probability they spent.
func budgetEdges(slots []budgetSlot) ([]ugraph.Edge, float64) {
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
