package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/sampling"
	"repro/internal/store"
	"repro/internal/ugraph"
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent is the span that caused it (0: none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   int     `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay runs.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reserve hands out a span ID before the call, so spans the call causes
// can name it as their parent.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	return int(t.next.Add(1))
}

func (t *tracer) record(id int, name string, parent, trace int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartUS: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3})
	t.mu.Unlock()
}

// timeCall records fn as a span named name and returns its duration.
func (t *tracer) timeCall(name string, fn func()) time.Duration {
	id := t.reserve()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(id, name, 0, 0, start, end)
	return end.Sub(start)
}

// durations returns the durations of the spans named name that started at
// or after since, in ms.
func (t *tracer) durations(name string, since time.Time) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := float64(since.Sub(t.origin).Nanoseconds()) / 1e3
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.StartUS >= from {
			out = append(out, (s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore times the engine's calls into its durability backend.
type timedStore struct {
	store.Store
	tr *tracer
	// apply is the span of the Engine.Apply in progress, the parent of the
	// store calls it makes.
	apply atomic.Int64
}

func (s *timedStore) AppendBatch(b store.Batch) error {
	id, start := s.tr.reserve(), time.Now()
	err := s.Store.AppendBatch(b)
	s.tr.record(id, "store.append", int(s.apply.Load()), 0, start, time.Now())
	return err
}

func (s *timedStore) Checkpoint(snap *store.Snapshot) error {
	id, start := s.tr.reserve(), time.Now()
	err := s.Store.Checkpoint(snap)
	s.tr.record(id, "store.checkpoint", int(s.apply.Load()), 0, start, time.Now())
	return err
}

// countingSampler counts the reliability vectors candidate elimination asks
// for; it calls nothing else on its sampler.
type countingSampler struct {
	sampling.Sampler
	calls int
}

func (c *countingSampler) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	c.calls++
	return c.Sampler.ReliabilityFrom(g, s)
}

func (c *countingSampler) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	c.calls++
	return c.Sampler.ReliabilityTo(g, t)
}

// replayOut is what one in-process replay of the workload observed.
type replayOut struct {
	timedRun
	reads, hits   int
	depths        []float64
	attempted     int
	failed        int
	before, after repro.EngineStats
	final         datasetInfo
}

// replay runs the workload's sequence on an in-process Engine configured
// like relmaxd, through the same warm-up and timed phase as the HTTP run
// and the job path (Submit, then Wait). With a tracer it records a span per
// request and per Apply, the job's queue and run spans from its status,
// and the store calls.
func replay(in *inputs, tr *tracer, dir string) (replayOut, error) {
	var out replayOut
	opts := engineOptions(in)
	var ts *timedStore
	if in.w.durable {
		fs, err := store.OpenFS(dir)
		if err != nil {
			return out, err
		}
		var st store.Store = fs
		if tr != nil {
			ts = &timedStore{Store: fs, tr: tr}
			st = ts
		}
		opts = append(opts, repro.WithStore(st))
	}
	eng, err := repro.NewEngine(in.g, opts...)
	if err != nil {
		return out, err
	}
	defer eng.Close()
	ctx := context.Background()
	var mu sync.Mutex
	var traceSeq atomic.Int64
	apply := func(o *op, rec *tracer, parent, trace int) error {
		id := rec.reserve()
		if ts != nil {
			ts.apply.Store(int64(id))
		}
		start := time.Now()
		_, err := eng.Apply(ctx, mutationsOf(o.muts)...)
		rec.record(id, "engine.apply", parent, trace, start, time.Now())
		return err
	}
	exec := func(o *op, rec *tracer) error {
		id, trace := rec.reserve(), int(traceSeq.Add(1))
		switch o.kind {
		case opMutate:
			return apply(o, rec, 0, trace)
		case opBurst:
			start := time.Now()
			var err error
			for i := range o.parts {
				if err = apply(&o.parts[i], rec, id, trace); err != nil {
					break
				}
			}
			rec.record(id, "request.burst", 0, trace, start, time.Now())
			return err
		}
		depth := eng.Snapshot().Depth()
		start := time.Now()
		job, err := eng.Submit(ctx, in.query(o))
		if err != nil {
			return err
		}
		_, err = job.Wait(ctx)
		rec.record(id, "request."+o.kind, 0, trace, start, time.Now())
		st := job.Status()
		if rec != nil && !st.CacheHit {
			rec.record(rec.reserve(), "engine.queue", id, trace, st.Enqueued, st.Started)
			rec.record(rec.reserve(), "engine.run", id, trace, st.Started, st.Finished)
		}
		mu.Lock()
		out.reads++
		if st.CacheHit {
			out.hits++
		}
		if o.kind == opSolve {
			out.depths = append(out.depths, float64(depth))
		}
		mu.Unlock()
		return err
	}
	// do reports an in-process call as sent does a request: status 200
	// when it succeeded.
	do := func(rec *tracer) runner {
		return func(o *op) sent {
			start := time.Now()
			err := exec(o, rec)
			end := time.Now()
			r := sent{op: o, err: err, latency: end.Sub(start), end: end}
			if err == nil {
				r.status = http.StatusOK
			}
			return r
		}
	}
	closedLoop(in.warm, do(nil), nil)
	out.reads, out.hits, out.depths = 0, 0, nil
	out.before = eng.Stats()
	out.timedRun = runTimed(in, do(tr))
	out.after = eng.Stats()
	for _, p := range []phase{phaseOf("", out.primaryAll()), phaseOf("", out.writer)} {
		out.attempted += p.attempted
		out.failed += p.failed
	}
	c := eng.Snapshot()
	out.final = datasetInfo{N: c.N(), M: c.M(), Epoch: c.Epoch()}
	return out, nil
}

// layerValues collects the traced run's per-layer metrics by name.
type layerValues map[string]float64

// probeOverheads measures what relmaxd adds to the engine: the HTTP p50 of
// a cache hit and of a solve minus the in-process Engine.Run p50 of the
// same query. It also checks the replies bit-identical to the engine's.
func probeOverheads(bin string, in *inputs, procs int, dir string, vals layerValues, c *checker) error {
	srv, _, err := startServer(bin, in, procs, dir)
	if err != nil {
		return err
	}
	defer srv.stop()
	eng, err := repro.NewEngine(in.g, engineOptions(in)...)
	if err != nil {
		return err
	}
	defer eng.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	ctx := context.Background()
	epoch := eng.Epoch()

	// A cache hit: the same estimate sent once to fill the cache, then
	// repeated.
	hitOp := in.probeEstimate()
	const hits = 200
	var httpHit, engHit []float64
	for i := 0; i <= hits; i++ {
		r := send(client, srv, in.w, &hitOp)
		if !r.ok() {
			return fmt.Errorf("estimate probe: status %d: %v %s", r.status, r.err, r.body)
		}
		if i > 0 {
			httpHit = append(httpHit, ms(r.latency))
		}
		c.checkEpoch(eng, []sent{r}, epoch)
	}
	q := in.query(&hitOp)
	for i := 0; i <= hits; i++ {
		start := time.Now()
		if _, err := eng.Run(ctx, q); err != nil {
			return err
		}
		if i > 0 {
			engHit = append(engHit, ms(time.Since(start)))
		}
	}
	vals["relmaxd.hit_overhead_ms"] = median(httpHit) - median(engHit)

	// Solves on distinct pairs, so neither side hits its cache. Solve costs
	// vary 2-3x between pairs, so the difference is taken per pair.
	var solveDiff []float64
	for _, o := range in.probe {
		r := send(client, srv, in.w, &o)
		if !r.ok() {
			return fmt.Errorf("solve probe: status %d: %v %s", r.status, r.err, r.body)
		}
		start := time.Now()
		res, err := eng.Run(ctx, in.query(&o))
		solveDiff = append(solveDiff, ms(r.latency)-ms(time.Since(start)))
		if err != nil {
			return err
		}
		c.matches(r, solveWireOf(res, epoch), epoch)
	}
	vals["relmaxd.solve_overhead_ms"] = median(solveDiff)
	return nil
}

// probeEstimate returns the estimate the hit probe repeats: the workload's
// first timed estimate, or a one-pair estimate for workloads without any.
func (in *inputs) probeEstimate() op {
	if len(in.keys) > 0 {
		return in.estimateOp(in.timed[0][0].key)
	}
	p := in.probe[0]
	in.keys = append(in.keys, estimateKey{Pairs: [][2]int32{{p.s, p.t}}})
	return in.estimateOp(len(in.keys) - 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// processCPUSelf returns this process's user+system CPU time.
func processCPUSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeLayers times the public entry points of the solver, sampler, graph
// and engine layers on the workload's dataset and seeded inputs, and checks
// that the layers agree with each other.
func probeLayers(in *inputs, tr *tracer, serverProcs int, vals layerValues, c *checker) error {
	ctx := context.Background()
	g := in.g
	solves := in.probe
	opt := core.Options{Sampler: serverSampler, Z: serverZ, Seed: serverSeed, Workers: serverWorkers}

	var elim, sel, eval, cands, npaths, elimMS, calls, topl []float64
	for _, o := range solves {
		var sol core.Solution
		var err error
		run := tr.timeCall("core.solve", func() { sol, err = core.Solve(ctx, g, o.s, o.t, core.MethodBE, opt) })
		if err != nil {
			return fmt.Errorf("core.Solve(%d,%d): %w", o.s, o.t, err)
		}
		elim = append(elim, ms(sol.ElimTime))
		sel = append(sel, ms(sol.SelectTime))
		eval = append(eval, ms(run-sol.ElimTime-sol.SelectTime))
		cands = append(cands, float64(sol.CandidateCount))
		npaths = append(npaths, float64(sol.PathCount))

		// Elimination and path extraction on their own, fed exactly what
		// the solver feeds them (its elimination sampler is stream 7).
		eo := opt
		eo.Sampler = "mcvec"
		smp, err := eo.NewSampler(ctx, 7)
		if err != nil {
			return err
		}
		cs := &countingSampler{Sampler: smp}
		var res candidates.Result
		d := tr.timeCall("candidates.eliminate", func() {
			res = candidates.Eliminate(g, o.s, o.t, cs, candidates.Options{R: 100, Zeta: 0.5})
		})
		elimMS = append(elimMS, ms(d))
		calls = append(calls, float64(cs.calls))
		if len(res.Edges) != sol.CandidateCount {
			c.failf("candidates.Eliminate(%d,%d) kept %d edges, core.Solve %d", o.s, o.t, len(res.Edges), sol.CandidateCount)
		}
		aug := g.Clone()
		for _, e := range res.Edges {
			if !aug.HasEdge(e.U, e.V) {
				aug.MustAddEdge(e.U, e.V, e.P)
			}
		}
		var ps []paths.Path
		topl = append(topl, ms(tr.timeCall("paths.topl", func() { ps = paths.TopL(ctx, aug, o.s, o.t, 30) })))
		if len(ps) != sol.PathCount {
			c.failf("paths.TopL(%d,%d) found %d paths, core.Solve %d", o.s, o.t, len(ps), sol.PathCount)
		}
	}
	vals["core.elim_ms"] = median(elim)
	vals["core.select_ms"] = median(sel)
	vals["core.eval_ms"] = median(eval)
	vals["core.candidates"] = mean(cands)
	vals["core.paths"] = mean(npaths)
	vals["candidates.eliminate_ms"] = median(elimMS)
	vals["candidates.sampler_calls"] = mean(calls)
	vals["paths.topl_ms"] = median(topl)

	// Sampler walks, per call, for the two kinds a solve uses: rss for s-t
	// estimates and mcvec for elimination's reliability vectors.
	const repeats = 4
	rss := sampling.NewRSS(serverZ, serverSeed)
	vec := sampling.NewMCVec(serverZ, serverSeed)
	var rssUS, vecUS []float64
	for i := 0; i < repeats; i++ {
		for _, o := range solves {
			rssUS = append(rssUS, us(tr.timeCall("sampling.rss", func() { rss.Reliability(g, o.s, o.t) })))
			vecUS = append(vecUS, us(tr.timeCall("sampling.mcvec", func() { vec.ReliabilityFrom(g, o.s) })))
		}
	}
	vals["sampling.reliability_us.rss"] = median(rssUS)
	vals["sampling.reliability_us.mcvec"] = median(vecUS)

	// CPU of the parallel sampler at the server's worker count over the
	// serial one, on the same estimates.
	par, err := sampling.NewParallel(serverSampler, serverZ, serverSeed, serverProcs)
	if err != nil {
		return err
	}
	cpuOf := func(smp sampling.Sampler) time.Duration {
		start := processCPUSelf()
		for i := 0; i < 2*repeats; i++ {
			for _, o := range solves {
				smp.Reliability(g, o.s, o.t)
			}
		}
		return processCPUSelf() - start
	}
	serial := cpuOf(sampling.NewRSS(serverZ, serverSeed))
	if serial > 0 {
		vals["sampling.parallel_cpu_ratio"] = float64(cpuOf(par)) / float64(serial)
	}

	// Graph layer: freezing a full CSR, and committing small delta
	// batches over it.
	var freeze, delta []float64
	for i := 0; i < 5; i++ {
		cl := g.Clone()
		freeze = append(freeze, ms(tr.timeCall("ugraph.freeze", func() { cl.Freeze() })))
	}
	base := g.Freeze()
	r := rand.New(rand.NewSource(sub(in.seed, 8)))
	model := newEdgeModel(g)
	for i := 0; i < 50; i++ {
		edits := deltaEdits(newEdgeModel(g).batch(r, 1+r.Intn(4)))
		var err error
		delta = append(delta, us(tr.timeCall("ugraph.delta", func() { _, err = base.Delta(edits) })))
		if err != nil {
			return fmt.Errorf("ugraph delta: %w", err)
		}
	}
	vals["ugraph.freeze_ms"] = median(freeze)
	vals["ugraph.delta_us"] = median(delta)

	// Anytime estimates at the precisions estimate-skewed asks for, on
	// seeded pairs, through an engine that caches nothing.
	const anytimePairs = 20
	pairs, err := distinctPairs(g, anytimePairs, sub(in.seed, 9))
	if err != nil {
		return err
	}
	eng, err := repro.NewEngine(g, append(engineOptions(in), repro.WithResultCache(0))...)
	if err != nil {
		return err
	}
	for i, p := range pairs {
		q := repro.Query{Kind: repro.QueryEstimate, S: p[0], T: p[1],
			Options: &repro.Options{Precision: 0.03 + 0.01*float64(i%3)}}
		var err error
		tr.timeCall("anytime.estimate", func() { _, err = eng.Run(ctx, q) })
		if err != nil {
			eng.Close()
			return err
		}
	}
	st := eng.Stats()
	eng.Close()
	if st.AnytimeEstimates > 0 {
		vals["anytime.samples_per_estimate"] = float64(st.AnytimeSamplesUsed) / float64(st.AnytimeEstimates)
	}

	// Engine layer: fingerprinting, compaction, and a solve on a layered
	// epoch over the same solve once that epoch is compacted flat.
	eng, err = repro.NewEngine(g, engineOptions(in)...)
	if err != nil {
		return err
	}
	var canon []float64
	for _, o := range in.readOps(500) {
		q := in.query(&o)
		var err error
		canon = append(canon, us(tr.timeCall("engine.canonicalize", func() {
			var cq repro.Query
			if cq, err = eng.Canonicalize(q); err == nil {
				_ = cq.Key()
			}
		})))
		if err != nil {
			eng.Close()
			return err
		}
	}
	eng.Close()
	vals["engine.canonicalize_us"] = median(canon)

	noCache := append(engineOptions(in), repro.WithResultCache(0))
	eng, err = repro.NewEngine(g, noCache...)
	if err != nil {
		return err
	}
	defer eng.Close()
	// Each round first folds a fresh chain that no query has materialized
	// yet, as the compactor does under pure write traffic, then solves on
	// a new layered epoch and again once it is folded flat.
	apply := func() error {
		for j := 0; j < 3; j++ {
			if _, err := eng.Apply(ctx, mutationsOf(model.batch(r, 1+r.Intn(4)))...); err != nil {
				return err
			}
		}
		return nil
	}
	var compact []float64
	var layered, flat time.Duration
	for _, o := range solves[:3] {
		if err := apply(); err != nil {
			return err
		}
		compact = append(compact, ms(tr.timeCall("engine.compact", func() { err = eng.Compact() })))
		if err := apply(); err != nil {
			return err
		}
		var lres, fres repro.Result
		var lerr, ferr error
		q := in.query(&o)
		layered += tr.timeCall("engine.solve.layered", func() { lres, lerr = eng.Run(ctx, q) })
		cerr := eng.Compact()
		flat += tr.timeCall("engine.solve.flat", func() { fres, ferr = eng.Run(ctx, q) })
		if err != nil || cerr != nil || lerr != nil || ferr != nil {
			return fmt.Errorf("layered solve probe: %v / %v / %v / %v", err, cerr, lerr, ferr)
		}
		if !reflect.DeepEqual(lres.Solution.Edges, fres.Solution.Edges) || lres.Solution.After != fres.Solution.After {
			c.failf("solve (%d,%d) differs between a layered epoch and its compacted twin", o.s, o.t)
		}
	}
	vals["engine.compact_ms"] = median(compact)
	if flat > 0 {
		vals["engine.layered_solve_ratio"] = float64(layered) / float64(flat)
	}
	return nil
}

// readOps returns up to n of the workload's reads, or the probe solves
// when it has none.
func (in *inputs) readOps(n int) []op {
	var out []op
	for _, c := range in.timed {
		for _, o := range c {
			if (o.kind == opSolve || o.kind == opEstimate) && len(out) < n {
				out = append(out, o)
			}
		}
	}
	if len(out) == 0 {
		return in.probe
	}
	return out
}

func deltaEdits(muts []mutationJSON) []ugraph.DeltaEdit {
	out := make([]ugraph.DeltaEdit, len(muts))
	for i, m := range muts {
		op := ugraph.DeltaSetProb
		switch m.Op {
		case "add-edge":
			op = ugraph.DeltaAdd
		case "remove-edge":
			op = ugraph.DeltaRemove
		}
		out[i] = ugraph.DeltaEdit{Op: op, U: m.U, V: m.V, P: m.P}
	}
	return out
}
