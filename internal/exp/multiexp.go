package exp

import (
	"context"

	"fmt"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/influence"
	"repro/internal/ugraph"
)

func init() {
	register("table23", func(ctx context.Context, p Params) (Table, error) { return multiSweep(ctx, p, "table23", core.AggMin) })
	register("table24", func(ctx context.Context, p Params) (Table, error) { return multiSweep(ctx, p, "table24", core.AggMax) })
	register("table25", func(ctx context.Context, p Params) (Table, error) { return multiSweep(ctx, p, "table25", core.AggAvg) })
	register("fig5", fig5)
}

// multiMethods are the §8.3 competitors: HC, EO (eigen), ESSSP, IMA, BE.
var multiMethodNames = []string{"HC", "EO", "ESSSP", "IMA", "BE"}

// runMultiMethod dispatches one competitor on one multi query and returns
// the chosen edges plus elapsed time.
func runMultiMethod(ctx context.Context, g *ugraph.Graph, q datasets.MultiQuery, name string, agg core.Aggregate, opt core.Options) ([]ugraph.Edge, time.Duration, error) {
	start := time.Now()
	var edges []ugraph.Edge
	var err error
	switch name {
	case "HC":
		var sol core.MultiSolution
		sol, err = core.SolveMulti(ctx, g, q.Sources, q.Targets, agg, core.MethodHillClimbing, opt)
		edges = sol.Edges
	case "EO":
		var sol core.MultiSolution
		sol, err = core.SolveMulti(ctx, g, q.Sources, q.Targets, agg, core.MethodEigen, opt)
		edges = sol.Edges
	case "BE":
		var sol core.MultiSolution
		sol, err = core.SolveMulti(ctx, g, q.Sources, q.Targets, agg, core.MethodBE, opt)
		edges = sol.Edges
	case "ESSSP", "IMA":
		smp, serr := opt.NewSampler(ctx, 31)
		if serr != nil {
			return nil, 0, serr
		}
		cands := candidates.EliminateMultiPairs(g, q.Sources, q.Targets, smp,
			candidates.Options{R: opt.R, H: opt.H, Zeta: opt.Zeta}).List()
		cfg := influence.Config{Z: opt.Z, Seed: opt.Seed}
		if name == "ESSSP" {
			edges = influence.ESSSP(ctx, g, q.Sources, q.Targets, cands, opt.K, cfg)
		} else {
			edges = influence.IMA(ctx, g, q.Sources, q.Targets, cands, opt.K, cfg)
		}
	default:
		err = fmt.Errorf("exp: unknown multi method %q", name)
	}
	return edges, time.Since(start), err
}

// multiSweep: Tables 23-25 — vary the source/target set size for one
// aggregate, reporting gain and time per competitor.
func multiSweep(ctx context.Context, p Params, id string, agg core.Aggregate) (Table, error) {
	g, err := loadDS("twitter", p)
	if err != nil {
		return Table{}, err
	}
	sizes := []int{3, 5, 10}
	if p.Quick {
		sizes = []int{3}
	}
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Multiple-source-target reliability maximization, %s aggregate (twitter-like)", agg),
		Header: []string{"|S|:|T|", "Gain(HC)", "Gain(EO)", "Gain(ESSSP)", "Gain(IMA)", "Gain(BE)", "Time(HC)", "Time(EO)", "Time(ESSSP)", "Time(IMA)", "Time(BE)"},
		Notes:  "k scaled to 4·|S|, h unbounded; k1/k=0.1; paper: Tables 23-25 (|S| up to 500 there)",
	}
	for _, q := range sizes {
		queries := datasets.MultiQueries(g, p.Queries, q, p.Seed+int64(q))
		if len(queries) == 0 {
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d:%d", q, q)}, make([]string, 10)...))
			continue
		}
		gains := make(map[string]float64)
		times := make(map[string]float64)
		for qi, mq := range queries {
			opt := baseOpt(p, 23)
			opt.K = 4 * q
			opt.K1Ratio = 0.1
			opt.H = 0 // multi pairs span long distances; no hop bound (§8.3)
			opt.Seed += int64(qi) * 313
			eval, err := opt.NewSampler(ctx, 40)
			if err != nil {
				return Table{}, err
			}
			base := core.AggregateOf(core.PairReliabilities(g, mq.Sources, mq.Targets, eval), agg)
			for _, name := range multiMethodNames {
				edges, elapsed, err := runMultiMethod(ctx, g, mq, name, agg, opt)
				if err != nil {
					return Table{}, fmt.Errorf("%s: %w", name, err)
				}
				after := core.AggregateOf(core.PairReliabilities(g.WithEdges(edges), mq.Sources, mq.Targets, eval), agg)
				gains[name] += after - base
				times[name] += float64(elapsed.Microseconds()) / 1000
			}
		}
		row := []string{fmt.Sprintf("%d:%d", q, q)}
		for _, name := range multiMethodNames {
			row = append(row, f3(gains[name]/float64(len(queries))))
		}
		for _, name := range multiMethodNames {
			row = append(row, ms2(times[name]/float64(len(queries))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig5: Figure 5 — gain and running time of BE vs budget k for the three
// aggregates.
func fig5(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("twitter", p)
	if err != nil {
		return Table{}, err
	}
	const q = 5
	queries := datasets.MultiQueries(g, p.Queries, q, p.Seed)
	if len(queries) == 0 {
		return Table{}, fmt.Errorf("fig5: no multi queries")
	}
	ks := []int{5, 10, 20, 30}
	if p.Quick {
		ks = []int{5, 10}
	}
	t := Table{
		ID:     "fig5",
		Title:  "Multi-source-target BE: varying budget k (twitter-like)",
		Header: []string{"k", "Gain(Min)", "Gain(Max)", "Gain(Avg)", "Time(Min)", "Time(Max)", "Time(Avg)"},
		Notes:  fmt.Sprintf("|S|=|T|=%d, %d queries; paper: Figure 5 (k up to 500 there)", q, len(queries)),
	}
	aggs := []core.Aggregate{core.AggMin, core.AggMax, core.AggAvg}
	for _, k := range ks {
		row := []string{fmt.Sprint(k)}
		gains := make([]float64, len(aggs))
		times := make([]float64, len(aggs))
		for qi, mq := range queries {
			opt := baseOpt(p, 5)
			opt.K = k
			opt.K1Ratio = 0.1
			opt.H = 0
			opt.Seed += int64(qi) * 389
			for ai, agg := range aggs {
				sol, err := core.SolveMulti(ctx, g, mq.Sources, mq.Targets, agg, core.MethodBE, opt)
				if err != nil {
					return Table{}, err
				}
				gains[ai] += sol.Gain
				times[ai] += float64(sol.Elapsed.Microseconds()) / 1000
			}
		}
		for ai := range aggs {
			row = append(row, f3(gains[ai]/float64(len(queries))))
		}
		for ai := range aggs {
			row = append(row, ms2(times[ai]/float64(len(queries))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
