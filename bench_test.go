package repro

// One benchmark per table and figure of the paper's evaluation (§8): each
// bench regenerates its artifact end to end (workload generation, competing
// methods, row rendering) at bench scale. Run a single artifact with e.g.
//
//	go test -bench BenchmarkTable9 -benchmem
//
// and the full suite with `go test -bench . -benchmem`. The printed tables
// themselves come from `go run ./cmd/experiments -run all`.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/exp"
)

func benchParams() exp.Params {
	return exp.Params{Quick: true, Queries: 2, Seed: 99, Scale: 0.03}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run(context.Background(), id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTable14(b *testing.B) { benchExperiment(b, "table14") }
func BenchmarkTable15(b *testing.B) { benchExperiment(b, "table15") }
func BenchmarkTable16(b *testing.B) { benchExperiment(b, "table16") }
func BenchmarkTable17(b *testing.B) { benchExperiment(b, "table17") }
func BenchmarkTable18(b *testing.B) { benchExperiment(b, "table18") }
func BenchmarkTable19(b *testing.B) { benchExperiment(b, "table19") }
func BenchmarkTable20(b *testing.B) { benchExperiment(b, "table20") }
func BenchmarkTable21(b *testing.B) { benchExperiment(b, "table21") }
func BenchmarkTable22(b *testing.B) { benchExperiment(b, "table22") }
func BenchmarkTable23(b *testing.B) { benchExperiment(b, "table23") }
func BenchmarkTable24(b *testing.B) { benchExperiment(b, "table24") }
func BenchmarkTable25(b *testing.B) { benchExperiment(b, "table25") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }

// BenchmarkExtBudget exercises the §9 total-budget extension end to end.
func BenchmarkExtBudget(b *testing.B) { benchExperiment(b, "extbudget") }

// ---- Ablation benchmarks: the design choices DESIGN.md calls out. ----

// benchSolve runs one solver configuration on a fixed query.
func benchSolve(b *testing.B, method Method, mutate func(*Options)) {
	b.Helper()
	g, err := LoadDataset("lastfm", 0.04, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 1, 3, 5, 9)
	if len(qs) == 0 {
		b.Fatal("no query")
	}
	opt := Options{K: 5, Zeta: 0.5, R: 15, L: 10, Z: 150, Seed: 13, H: 3}
	if mutate != nil {
		mutate(&opt)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, qs[0].S, qs[0].T, method, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBE_vs_IP isolates the batch-normalization design choice
// (Algorithm 6 vs plain Algorithm 5).
func BenchmarkAblationBE_vs_IP(b *testing.B) {
	b.Run("BE", func(b *testing.B) { benchSolve(b, MethodBE, nil) })
	b.Run("IP", func(b *testing.B) { benchSolve(b, MethodIP, nil) })
}

// BenchmarkAblationSampler isolates the estimator choice inside BE
// (Tables 6-7: RSS needs roughly half the samples of MC for the same
// variance).
func BenchmarkAblationSampler(b *testing.B) {
	b.Run("rss", func(b *testing.B) {
		benchSolve(b, MethodBE, func(o *Options) { o.Sampler = "rss"; o.Z = 150 })
	})
	b.Run("mc", func(b *testing.B) {
		benchSolve(b, MethodBE, func(o *Options) { o.Sampler = "mc"; o.Z = 300 })
	})
}

// BenchmarkAblationElimination isolates search-space elimination
// (Tables 4 vs 5).
func BenchmarkAblationElimination(b *testing.B) {
	b.Run("with", func(b *testing.B) { benchSolve(b, MethodBE, nil) })
	b.Run("without", func(b *testing.B) {
		benchSolve(b, MethodBE, func(o *Options) { o.NoElimination = true; o.H = 2 })
	})
}

// BenchmarkAblationK1 isolates the per-round refinement budget k1/k of the
// Min aggregate solver (§6.2).
func BenchmarkAblationK1(b *testing.B) {
	g, err := LoadDataset("lastfm", 0.04, 5)
	if err != nil {
		b.Fatal(err)
	}
	mqs := MultiQueries(g, 1, 3, 9)
	if len(mqs) == 0 {
		b.Fatal("no multi query")
	}
	for _, ratio := range []float64{0.1, 0.3, 0.5} {
		b.Run(ratioName(ratio), func(b *testing.B) {
			opt := Options{K: 6, Zeta: 0.5, R: 15, L: 8, Z: 150, Seed: 13, K1Ratio: ratio}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveMulti(g, mqs[0].Sources, mqs[0].Targets, AggMin, MethodBE, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ratioName(r float64) string {
	switch r {
	case 0.1:
		return "k1=10pct"
	case 0.3:
		return "k1=30pct"
	default:
		return "k1=50pct"
	}
}

// BenchmarkSamplerCore is the kind × shape ledger of the raw serial
// estimators outside the solver: each kind at Z=500 on one s-t query (the
// walk exits early at t) and on the From shape (a full single-source
// reliability vector, as candidate elimination draws it), on lastfm and
// astopo.
func BenchmarkSamplerCore(b *testing.B) {
	const z = 500
	kinds := []struct {
		name string
		new  func(z int, seed int64) Sampler
	}{
		{"mc", NewMonteCarloSampler},
		{"rss", NewRSSSampler},
		{"mcvec", NewMCVecSampler},
	}
	for _, ds := range []string{"lastfm", "astopo"} {
		g, err := LoadDataset(ds, 0.08, 5)
		if err != nil {
			b.Fatal(err)
		}
		qs := Queries(g, 1, 3, 5, 4)
		if len(qs) == 0 {
			b.Fatal("no query")
		}
		s, t := qs[0].S, qs[0].T
		for _, k := range kinds {
			b.Run(ds+"/st/"+k.name, func(b *testing.B) {
				smp := k.new(z, 1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					smp.Reliability(g, s, t)
				}
			})
			b.Run(ds+"/from/"+k.name, func(b *testing.B) {
				smp := k.new(z, 1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					smp.ReliabilityFrom(g, s)
				}
			})
		}
	}
}

// ---- Parallel-sampling benchmarks: the serial-vs-parallel speedup the ----
// ---- CI perf trajectory tracks (see CHANGES.md for recorded numbers). ----

// benchReliability runs one estimator configuration on a fixed astopo query
// at a budget large enough for the fan-out to amortize.
func benchReliability(b *testing.B, smp Sampler) {
	b.Helper()
	g, err := LoadDataset("astopo", 0.08, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 1, 3, 5, 4)
	if len(qs) == 0 {
		b.Fatal("no query")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Reliability(g, qs[0].S, qs[0].T)
	}
}

// BenchmarkParallelReliability compares the serial samplers against the
// ParallelSampler at increasing pool sizes on a single large-budget query.
// On a multicore machine the w4/w8 variants should run >= 2x faster than
// serial; on a single core they measure the fan-out overhead instead.
func BenchmarkParallelReliability(b *testing.B) {
	const z = 4000
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		b.Run(kind+"/serial", func(b *testing.B) {
			var smp Sampler
			switch kind {
			case "mc":
				smp = NewMonteCarloSampler(z, 1)
			case "rss":
				smp = NewRSSSampler(z, 1)
			default:
				smp = NewMCVecSampler(z, 1)
			}
			benchReliability(b, smp)
		})
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", kind, w), func(b *testing.B) {
				smp, err := NewParallelSampler(kind, z, 1, w)
				if err != nil {
					b.Fatal(err)
				}
				benchReliability(b, smp)
			})
		}
	}
}

// BenchmarkEstimateMany compares a serial query loop against the batched
// EstimateMany API over a block of s-t queries — the multi-user serving
// shape the engine exists for.
func BenchmarkEstimateMany(b *testing.B) {
	g, err := LoadDataset("astopo", 0.08, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 16, 3, 5, 4)
	if len(qs) == 0 {
		b.Fatal("no queries")
	}
	pairs := make([]PairQuery, len(qs))
	for i, q := range qs {
		pairs[i] = PairQuery{S: q.S, T: q.T}
	}
	const z = 500
	b.Run("serial-loop", func(b *testing.B) {
		smp := NewMonteCarloSampler(z, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range pairs {
				smp.Reliability(g, q.S, q.T)
			}
		}
	})
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("batched/w%d", w), func(b *testing.B) {
			smp, err := NewParallelSampler("mc", z, 1, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.EstimateMany(g, pairs)
			}
		})
	}
}

// BenchmarkEstimateEdges measures candidate-edge scoring — the inner loop
// of the greedy baselines — comparing the serial clone-per-candidate loop
// against the batched overlay path (frozen base CSR + per-candidate
// overlay + budget sharding across the pool).
func BenchmarkEstimateEdges(b *testing.B) {
	g, err := LoadDataset("astopo", 0.08, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 1, 3, 5, 4)
	if len(qs) == 0 {
		b.Fatal("no query")
	}
	s, t := qs[0].S, qs[0].T
	cands := make([]Edge, 0, 16)
	for v := NodeID(0); len(cands) < 16 && int(v) < g.N(); v++ {
		if v != s && !g.HasEdge(s, v) {
			cands = append(cands, Edge{U: s, V: v, P: 0.5})
		}
	}
	const z = 500
	b.Run("serial-clone", func(b *testing.B) {
		smp := NewMonteCarloSampler(z, 1)
		scratch := make([]Edge, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range cands {
				scratch[0] = e
				smp.Reliability(g.WithEdges(scratch), s, t)
			}
		}
	})
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("batched/w%d", w), func(b *testing.B) {
			smp, err := NewParallelSampler("mc", z, 1, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.EstimateEdges(g, s, t, cands)
			}
		})
	}
}

// BenchmarkAnytimeEstimate runs the same (s, t) estimate twice per
// precision target: adaptive (stops once the 95% interval's half-width
// reaches the precision) and fixed (burns the full budget the adaptive run
// is capped at). Both report samples/op, so the bench gate can publish the
// fraction of the budget adaptive stopping saved (BENCH_anytime.json) and
// assert adaptive beats fixed on wall-clock.
func BenchmarkAnytimeEstimate(b *testing.B) {
	g, err := LoadDataset("astopo", 0.08, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 1, 3, 5, 4)
	if len(qs) == 0 {
		b.Fatal("no query")
	}
	s, t := qs[0].S, qs[0].T
	const maxZ = 65536 // the shared budget cap (anytime.DefaultMaxZ)
	run := func(b *testing.B, opt Options) {
		eng, err := NewEngine(g) // no result cache: every iteration samples
		if err != nil {
			b.Fatal(err)
		}
		q := Query{Kind: QueryEstimate, S: s, T: t, Options: &opt}
		b.ReportAllocs()
		b.ResetTimer()
		samples := 0
		for i := 0; i < b.N; i++ {
			res, err := eng.Run(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Anytime != nil {
				samples += res.Anytime.SamplesUsed
			} else {
				samples += opt.Z
			}
		}
		b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
	}
	for _, prec := range []float64{0.02, 0.005} {
		name := fmt.Sprintf("p%g", prec)
		b.Run("adaptive/"+name, func(b *testing.B) {
			run(b, Options{Sampler: "mcvec", Precision: prec, MaxZ: maxZ, Seed: 7})
		})
		b.Run("fixed/"+name, func(b *testing.B) {
			run(b, Options{Sampler: "mcvec", Z: maxZ, Seed: 7})
		})
	}
}

// BenchmarkApply measures the mutation-commit path: batches of 1/16/256
// mutations committed by Apply as persistent delta overlays (including
// its amortized background compaction) versus a full clone+rebuild of the
// graph per batch (the flatCommit test oracle). The bench gate asserts delta
// stays >=5x faster than clone on the small-batch shapes (b1, b16) and
// publishes every pairing in BENCH_apply.json. The b256 pairing is
// honest-cost reporting: a batch that touches a large fraction of the
// graph re-materializes enough rows that the overlay's advantage shrinks.
func BenchmarkApply(b *testing.B) {
	g, err := LoadDataset("astopo", 0.08, 5)
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges()
	for _, size := range []int{1, 16, 256} {
		if len(edges) < size {
			b.Fatalf("fixture has %d edges, need %d", len(edges), size)
		}
		for _, mode := range []string{"delta", "clone"} {
			b.Run(fmt.Sprintf("%s/b%d", mode, size), func(b *testing.B) {
				eng, err := NewEngine(g)
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				ctx := context.Background()
				commit := func(muts ...Mutation) (uint64, error) { return eng.Apply(ctx, muts...) }
				if mode == "clone" {
					commit = func(muts ...Mutation) (uint64, error) { return flatCommit(eng, muts...) }
				}
				muts := make([]Mutation, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Alternate the probability so every batch is a real edit.
					p := 0.3 + 0.4*float64(i%2)
					for j := range muts {
						muts[j] = SetProb(edges[j].U, edges[j].V, p)
					}
					if _, err := commit(muts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveWorkers measures the end-to-end solver with the pool
// threaded through elimination, path scoring and held-out evaluation (w0
// sizes the pool to GOMAXPROCS).
func BenchmarkSolveWorkers(b *testing.B) {
	for _, w := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("be/w%d", w), func(b *testing.B) {
			benchSolve(b, MethodBE, func(o *Options) { o.Workers = w; o.Z = 300 })
		})
	}
}

// BenchmarkServedSolve times the solve shape relmaxd serves: BE on
// lastfm×0.08 with the engine defaults (Z 500, L 30, R 100, rss) over 20
// pairs 3-5 hops apart, one engine worker. One op is a sweep of the 20
// solves on a fresh engine, built outside the timer, so elimination stays
// cold: a reused engine would serve every sweep after the first from its
// vector memo. select_ms and elim_ms are the mean selection and
// elimination stage times of one solve, and eval_ms is the rest of its
// wall time: the held-out evaluation plus the engine's per-request
// overhead.
func BenchmarkServedSolve(b *testing.B) {
	g, err := LoadDataset("lastfm", 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 20, 3, 5, 1)
	if len(qs) != 20 {
		b.Fatalf("%d query pairs, want 20", len(qs))
	}
	st := benchServed(b, g, qs)
	solves := float64(b.N * len(qs))
	b.ReportMetric(st.sel.Seconds()*1e3/solves, "select_ms")
	b.ReportMetric(st.elim.Seconds()*1e3/solves, "elim_ms")
	b.ReportMetric((st.wall-st.elim-st.sel).Seconds()*1e3/solves, "eval_ms")
}

// BenchmarkServedSolveAfterWrites is BenchmarkServedSolve on lastfm×0.08
// after the 300 batches perfbench's solve-under-writes writer sends at seed
// 1, applied directly on the graph: 20 pairs 3-5 hops apart, drawn before
// the writes, one worker, a fresh engine per sweep. The writes grow the
// path selections BE scores, so select_ms tracks the exact objective at
// its largest.
func BenchmarkServedSolveAfterWrites(b *testing.B) {
	g, err := LoadDataset("lastfm", 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := Queries(g, 20, 3, 5, 1)
	if len(qs) != 20 {
		b.Fatalf("%d query pairs, want 20", len(qs))
	}
	datasets.ApplyWrites(g, 300, 1_000_005)
	st := benchServed(b, g, qs)
	solves := float64(b.N * len(qs))
	b.ReportMetric(st.sel.Seconds()*1e3/solves, "select_ms")
	b.ReportMetric(st.elim.Seconds()*1e3/solves, "elim_ms")
}

// BenchmarkServedSolveStream replays a stream shaped like perfbench's
// solve-cold traffic on one engine: 484 distinct lastfm×0.08 pairs 3-5
// hops apart, which share sources and targets, so elimination reuses the
// vectors of earlier solves on the epoch. One op is the whole stream on a
// fresh engine, built outside the timer. elim_ms is the mean elimination
// time of one solve and hit_ratio the share of From/To vectors taken from
// the memo.
func BenchmarkServedSolveStream(b *testing.B) {
	g, err := LoadDataset("lastfm", 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 484
	var qs []EvalQuery
	seen := make(map[EvalQuery]bool, n)
	for seed := int64(1); seed <= 8 && len(qs) < n; seed++ {
		for _, q := range Queries(g, 2*n, 3, 5, seed) {
			if !seen[q] && len(qs) < n {
				seen[q] = true
				qs = append(qs, q)
			}
		}
	}
	if len(qs) != n {
		b.Fatalf("%d distinct query pairs, want %d", len(qs), n)
	}
	st := benchServed(b, g, qs)
	b.ReportMetric(st.elim.Seconds()*1e3/float64(b.N*n), "elim_ms")
	b.ReportMetric(float64(st.hits)/float64(st.hits+st.misses), "hit_ratio")
}

// servedStats sums what benchServed measured over all its sweeps.
type servedStats struct {
	elim, sel, wall time.Duration
	hits, misses    uint64
}

// benchServed runs b.N sweeps of BE solves of qs, each on a fresh engine
// with one worker built outside the timer.
func benchServed(b *testing.B, g *Graph, qs []EvalQuery) servedStats {
	b.Helper()
	ctx := context.Background()
	var st servedStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := NewEngine(g, WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range qs {
			start := time.Now()
			sol, err := eng.Solve(ctx, Request{S: q.S, T: q.T, Method: MethodBE})
			if err != nil {
				b.Fatal(err)
			}
			st.wall += time.Since(start)
			st.elim += sol.ElimTime
			st.sel += sol.SelectTime
		}
		b.StopTimer()
		es := eng.Stats()
		st.hits += es.VectorHits
		st.misses += es.VectorMisses
		eng.Close()
		b.StartTimer()
	}
	return st
}
