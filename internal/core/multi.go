package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/candidates"
	"repro/internal/paths"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// Aggregate selects the §6 objective over all s-t pair reliabilities.
type Aggregate string

// Supported aggregates.
const (
	// AggAvg maximizes the average pair reliability (§6.1), equivalent to
	// maximizing the sum — the targeted-marketing objective.
	AggAvg Aggregate = "avg"
	// AggMin maximizes the worst pair reliability (§6.2) — complementary
	// influence maximization.
	AggMin Aggregate = "min"
	// AggMax maximizes the best pair reliability (§6.3) — reach at least
	// one target from at least one source.
	AggMax Aggregate = "max"
)

// MultiSolution is the outcome of a Problem 4 query.
type MultiSolution struct {
	Method      Method
	Aggregate   Aggregate
	Edges       []ugraph.Edge
	Base, After float64
	Gain        float64
	Elapsed     time.Duration
}

// PairReliabilities estimates R(s, t) for every (s, t) ∈ S×T using one
// single-source vector query per source, all evaluated in one batch. Rows
// follow S, columns follow T.
func PairReliabilities(g *ugraph.Graph, sources, targets []ugraph.NodeID, smp sampling.BatchSampler) [][]float64 {
	vecs := smp.ReliabilityFromMany(g, sources)
	out := make([][]float64, len(sources))
	for i := range sources {
		row := make([]float64, len(targets))
		for j, t := range targets {
			row[j] = vecs[i][t]
		}
		out[i] = row
	}
	return out
}

// AggregateOf folds a pair-reliability matrix with the chosen aggregate.
func AggregateOf(matrix [][]float64, agg Aggregate) float64 {
	switch agg {
	case AggAvg:
		sum, n := 0.0, 0
		for _, row := range matrix {
			for _, v := range row {
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	case AggMin:
		min := math.Inf(1)
		for _, row := range matrix {
			for _, v := range row {
				if v < min {
					min = v
				}
			}
		}
		if math.IsInf(min, 1) {
			return 0
		}
		return min
	case AggMax:
		max := 0.0
		for _, row := range matrix {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
		return max
	default:
		return 0
	}
}

// MultiMethods lists the solvers SolveMulti supports.
func MultiMethods() []Method { return []Method{MethodBE, MethodHillClimbing, MethodEigen} }

// SolveMulti answers a multiple-source-target budgeted reliability
// maximization query (Problem 4). Supported methods: MethodBE (the
// proposed solver: batch path selection for Avg, iterative per-pair
// refinement for Min/Max), MethodHillClimbing and MethodEigen as baselines.
func SolveMulti(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, agg Aggregate, method Method, opt Options) (MultiSolution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if len(sources) == 0 || len(targets) == 0 {
		return MultiSolution{}, fmt.Errorf("core: empty source or target set: %w", ErrBadQuery)
	}
	for _, v := range append(append([]ugraph.NodeID(nil), sources...), targets...) {
		if v < 0 || int(v) >= g.N() {
			return MultiSolution{}, fmt.Errorf("core: node %d out of range: %w", v, ErrBadQuery)
		}
	}
	if err := opt.Validate(g.N()); err != nil {
		return MultiSolution{}, err
	}
	start := time.Now()
	smp, err := opt.NewSampler(ctx, 3)
	if err != nil {
		return MultiSolution{}, err
	}
	elim, err := opt.elimSampler(ctx)
	if err != nil {
		return MultiSolution{}, err
	}
	var edges []ugraph.Edge
	switch method {
	case MethodBE:
		switch agg {
		case AggAvg:
			edges, err = multiAvgBE(ctx, g, sources, targets, smp, elim, opt)
		case AggMin, AggMax:
			edges, err = multiMinMaxBE(ctx, g, sources, targets, agg, smp, elim, opt)
		default:
			err = fmt.Errorf("core: unknown aggregate %q: %w", agg, ErrBadQuery)
		}
	case MethodHillClimbing:
		edges, err = multiHillClimbing(ctx, g, sources, targets, agg, smp, elim, opt)
	case MethodEigen:
		edges = eigenEdges(ctx, g, multiCandidates(g, sources, targets, elim, opt).List(), opt)
	default:
		err = fmt.Errorf("core: method %q not supported for multi-source-target queries: %w", method, ErrUnknownMethod)
	}
	if err != nil {
		return MultiSolution{}, err
	}
	sol := MultiSolution{Method: method, Aggregate: agg, Edges: edges, Elapsed: time.Since(start)}
	if cerr := ctx.Err(); cerr != nil {
		return sol, interrupted("multi-pair edge selection", cerr)
	}
	opt.emit(ProgressEvent{Stage: StageEvaluate, Edges: len(edges)})
	eval, err := opt.NewSampler(ctx, 4)
	if err != nil {
		return MultiSolution{}, err
	}
	sol.Base = AggregateOf(PairReliabilities(g, sources, targets, eval), agg)
	sol.After = AggregateOf(PairReliabilities(g.WithEdges(edges), sources, targets, eval), agg)
	if cerr := ctx.Err(); cerr != nil {
		sol.Base, sol.After = 0, 0
		return sol, interrupted("evaluation", cerr)
	}
	sol.Gain = sol.After - sol.Base
	return sol, nil
}

// multiCandidates builds E+ for a multi-pair query like candidateSet,
// running the multi-pair elimination when the query lists no candidates;
// smp is the elimination estimator (opt.elimSampler).
func multiCandidates(g *ugraph.Graph, sources, targets []ugraph.NodeID, smp sampling.BatchSampler, opt Options) candidates.Result {
	if cands, ok := listedCandidates(g, opt); ok {
		return candidates.Result{Edges: cands}
	}
	return candidates.EliminateMultiPairs(g, sources, targets, smp, candidates.Options{R: opt.R, H: opt.H, Zeta: opt.Zeta})
}

// multiAvgBE implements §6.1: candidate edges from the multi-source
// elimination, top-l paths per pair, then batch selection maximizing the
// average reliability over all pairs on the selected-path subgraph.
func multiAvgBE(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, smp, elim sampling.BatchSampler, opt Options) ([]ugraph.Edge, error) {
	cands := multiCandidates(g, sources, targets, elim, opt)
	opt.emit(ProgressEvent{Stage: StageEliminate, Candidates: cands.Len()})
	a := gPlus(g, cands)
	var pool []paths.Path
	for _, s := range sources {
		for _, t := range targets {
			if s == t {
				continue
			}
			if ctx.Err() != nil {
				// Select from the pairs extracted so far; SolveMulti
				// reports the interruption after selection unwinds.
				break
			}
			pool = append(pool, a.topL(ctx, s, t, opt.L)...)
		}
	}
	opt.emit(ProgressEvent{Stage: StagePaths, Paths: len(pool), Candidates: cands.Len()})
	if len(pool) == 0 {
		return nil, nil
	}
	ev := &multiEvaluator{gPlus: a, sources: sources, targets: targets, smp: smp}
	edges := batchSelect(ctx, a, pool, opt, ev.avgReliability, true)
	return edges, nil
}

// multiEvaluator scores a selected path set by the average reliability of
// all S×T pairs on the induced subgraph (Problem 4's Avg objective). Like
// pathEvaluator it factors each pair exactly, and samples the induced
// subgraph only when the selection is too large for that.
type multiEvaluator struct {
	gPlus            augmented
	sources, targets []ugraph.NodeID
	smp              sampling.Sampler
	exact            pathGraph
}

func (ev *multiEvaluator) avgReliability(selected []paths.Path) float64 {
	if len(selected) == 0 {
		return 0
	}
	if avg, ok := ev.exactAvg(selected); ok {
		return avg
	}
	sub, remap := inducedSubgraph(ev.gPlus, selected)
	total := 0.0
	count := 0
	for _, s := range ev.sources {
		ss, okS := remap[s]
		var vec []float64
		if okS {
			vec = ev.smp.ReliabilityFrom(sub, ss)
		}
		for _, t := range ev.targets {
			count++
			if !okS {
				continue
			}
			if tt, okT := remap[t]; okT {
				total += vec[tt]
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// exactAvg factors the average pair by pair; ok is false when the
// selection or one of its pairs is too large to factor.
func (ev *multiEvaluator) exactAvg(selected []paths.Path) (float64, bool) {
	if !ev.exact.load(ev.gPlus, selected) {
		return 0, false
	}
	total := 0.0
	for _, s := range ev.sources {
		for _, t := range ev.targets {
			r, ok := ev.exact.reliability(s, t)
			if !ok {
				return 0, false
			}
			total += r
		}
	}
	return total / float64(len(ev.sources)*len(ev.targets)), true
}

// inducedSubgraph builds the subgraph induced by a path set, returning the
// node remapping. The path objectives build it only for selections too
// large to factor exactly (see pathGraph), to sample it.
func inducedSubgraph(gPlus augmented, selected []paths.Path) (*ugraph.Graph, map[ugraph.NodeID]ugraph.NodeID) {
	remap := make(map[ugraph.NodeID]ugraph.NodeID)
	nodeOf := func(v ugraph.NodeID) ugraph.NodeID {
		if id, ok := remap[v]; ok {
			return id
		}
		id := ugraph.NodeID(len(remap))
		remap[v] = id
		return id
	}
	type edgeRec struct {
		u, v ugraph.NodeID
		p    float64
	}
	var edges []edgeRec
	seen := make(map[int32]bool)
	for _, p := range selected {
		for i, eid := range p.Edges {
			if seen[eid] {
				continue
			}
			seen[eid] = true
			edges = append(edges, edgeRec{u: nodeOf(p.Nodes[i]), v: nodeOf(p.Nodes[i+1]), p: gPlus.Prob(eid)})
		}
	}
	sub := ugraph.New(len(remap), gPlus.Directed())
	for _, e := range edges {
		if !sub.HasEdge(e.u, e.v) {
			sub.MustAddEdge(e.u, e.v, e.p)
		}
	}
	return sub, remap
}

// batchSelect is the single Algorithm 5+6 greedy loop over an arbitrary
// objective on the selected-path subgraph, shared by the Problem 1
// path-based solvers (via pathSelect) and the Problem 4 average-aggregate
// solver. batch=true is Algorithm 6 (Path Batches-based Edge Selection):
// paths sharing a candidate-edge label form one group, marginal gain is
// normalized by the number of newly added candidate edges, and every group
// whose label is covered by the tentative selection is pulled in alongside
// the winner (Example 3). batch=false is Algorithm 5 (Individual Path-based
// Edge Selection): every path is its own group, scored by raw gain, with no
// cohort pulling. Paths touching no candidate edge are pre-selected in pool
// order in both modes (line 5 of Algorithm 5).
func batchSelect(ctx context.Context, a augmented, pool []paths.Path, opt Options, objective func([]paths.Path) float64, batch bool) []ugraph.Edge {
	type group struct {
		label []int32
		paths []paths.Path
	}
	byKey := make(map[string]*group)
	var groups []*group
	var selected []paths.Path
	for _, p := range pool {
		lbl := a.label(p)
		if len(lbl) == 0 {
			selected = append(selected, p)
			continue
		}
		if !batch {
			groups = append(groups, &group{label: lbl, paths: []paths.Path{p}})
			continue
		}
		key := labelKey(lbl)
		gr, ok := byKey[key]
		if !ok {
			gr = &group{label: lbl}
			byKey[key] = gr
			groups = append(groups, gr)
		}
		gr.paths = append(gr.paths, p)
	}
	chosen := make(map[int32]bool)
	need := func(lbl []int32) int {
		n := 0
		for _, id := range lbl {
			if !chosen[id] {
				n++
			}
		}
		return n
	}
	current := -1.0
	round := 0
	for len(chosen) < opt.K && len(groups) > 0 {
		if ctx.Err() != nil {
			break // keep the edges committed in completed rounds
		}
		if current < 0 {
			current = objective(selected)
		}
		bestIdx, bestScore := -1, -1.0
		var bestSelection []paths.Path
		var bestCohort []int
		for gi, gr := range groups {
			newEdges := need(gr.label)
			if len(chosen)+newEdges > opt.K {
				continue // lines 11-16 of Algorithm 5: over budget
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
					coveredAll := true
					for _, id := range other.label {
						if !chosen[id] && !extra[id] {
							coveredAll = false
							break
						}
					}
					if coveredAll {
						trial = append(trial, other.paths...)
						cohort = append(cohort, gj)
					}
				}
			}
			// Each evaluation is a scheduling point: exact path-set scoring
			// draws no samples, so no sampler block check yields here.
			runtime.Gosched()
			gain := objective(trial) - current
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
			break // nothing fits the remaining budget
		}
		if ctx.Err() != nil {
			break // this round's scores are incomplete; discard them
		}
		for _, id := range groups[bestIdx].label {
			chosen[id] = true
		}
		selected = bestSelection
		current = -1
		round++
		opt.emit(ProgressEvent{
			Stage: StageSelect, Round: round, Total: opt.K,
			Batches: len(groups), Edges: len(chosen), Paths: len(pool),
		})
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
	var out []ugraph.Edge
	ids := make([]int32, 0, len(chosen))
	for id := range chosen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		out = append(out, a.Endpoints(id))
	}
	return out
}

// multiMinMaxBE implements §6.2/§6.3: repeatedly pick the pair with the
// currently minimum (resp. maximum) reliability and improve it with the
// single-pair BE solver under a per-round budget k1 = K1Ratio·k, until the
// total budget k is spent or no further improvement is possible.
func multiMinMaxBE(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, agg Aggregate, smp sampling.BatchSampler, elim *sampling.ParallelSampler, opt Options) ([]ugraph.Edge, error) {
	work := g.Clone()
	budget := opt.K
	k1 := int(math.Round(opt.K1Ratio * float64(opt.K)))
	if k1 < 1 {
		k1 = 1
	}
	var all []ugraph.Edge
	// Pairs that proved unimprovable this round are skipped until some
	// edge addition changes the graph (new edges may open routes for
	// them, so the skip set resets on progress).
	skip := make(map[[2]int]bool)
	for budget > 0 {
		if ctx.Err() != nil {
			return all, nil // partial: rounds completed before cancellation
		}
		matrix := PairReliabilities(work, sources, targets, smp)
		si, ti := pickPairSkipping(matrix, agg, skip)
		if si < 0 {
			break // every pair saturated or unimprovable
		}
		s, t := sources[si], targets[ti]
		if s == t {
			skip[[2]int{si, ti}] = true
			continue // a coincident pair has reliability 1 already
		}
		round := opt
		round.K = minInt(k1, budget)
		cands, _ := candidateSet(ctx, work, s, t, elim, round)
		edges, _ := pathSelect(ctx, work, s, t, cands, smp, round, true)
		if len(edges) == 0 {
			// This pair cannot be improved on the current graph; try
			// the next-worst (resp. next-best) pair instead.
			skip[[2]int{si, ti}] = true
			continue
		}
		progressed := false
		for _, e := range edges {
			if !work.HasEdge(e.U, e.V) {
				work.MustAddEdge(e.U, e.V, e.P)
				all = append(all, e)
				budget--
				progressed = true
			}
		}
		if progressed {
			skip = make(map[[2]int]bool)
			opt.emit(ProgressEvent{Stage: StageSelect, Round: opt.K - budget, Total: opt.K, Edges: len(all)})
		} else {
			skip[[2]int{si, ti}] = true
		}
	}
	return all, nil
}

// pickPairSkipping returns the index of the min (AggMin) or max (AggMax)
// entry, ignoring skipped pairs; for AggMax, saturated pairs
// (reliability ≥ 1) are also ignored because they cannot improve.
func pickPairSkipping(matrix [][]float64, agg Aggregate, skip map[[2]int]bool) (int, int) {
	bi, bj := -1, -1
	best := math.Inf(1)
	if agg == AggMax {
		best = math.Inf(-1)
	}
	for i, row := range matrix {
		for j, v := range row {
			if skip[[2]int{i, j}] {
				continue
			}
			switch agg {
			case AggMin:
				if v < best {
					best = v
					bi, bj = i, j
				}
			case AggMax:
				if v > best && v < 1 {
					best = v
					bi, bj = i, j
				}
			}
		}
	}
	return bi, bj
}

// multiHillClimbing generalizes Algorithm 1 to the aggregate objective.
func multiHillClimbing(ctx context.Context, g *ugraph.Graph, sources, targets []ugraph.NodeID, agg Aggregate, smp, elim sampling.BatchSampler, opt Options) ([]ugraph.Edge, error) {
	cands := multiCandidates(g, sources, targets, elim, opt).List()
	work := g.Clone()
	var chosen []ugraph.Edge
	remaining := append([]ugraph.Edge(nil), cands...)
	for len(chosen) < opt.K && len(remaining) > 0 {
		if ctx.Err() != nil {
			return chosen, nil // partial greedy prefix
		}
		base := AggregateOf(PairReliabilities(work, sources, targets, smp), agg)
		bestIdx, bestGain := -1, -1.0
		scratch := make([]ugraph.Edge, 1)
		for i, e := range remaining {
			if ctx.Err() != nil {
				break
			}
			scratch[0] = e
			gain := AggregateOf(PairReliabilities(work.WithEdges(scratch), sources, targets, smp), agg) - base
			if gain > bestGain {
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
	return chosen, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
