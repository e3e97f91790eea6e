// Command perfbench is the repository's end-to-end benchmark: it serves
// seeded traffic to a relmaxd binary over loopback HTTP and, with -trace 1,
// times the public entry points of each layer in-process on the same
// inputs. See README.md for the workloads and the metric map; run it with
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, op counts and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setupLaunches is how many extra times a run starts relmaxd only to time
// its set-up: half before the timed phase and half after it. setup_s is the
// lower quartile over them and the launch that serves the timed phase: a busy
// moment on the host has to last most of the run to move it, and a single
// lucky launch does not set it, as it would set a minimum.
const setupLaunches = 12

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetric documents one per-layer metric: its unit, the base of a
// ratio, and the end-to-end metric it should move.
type layerMetric struct {
	name, unit, base, moves string
}

var layerMetrics = []layerMetric{
	{"relmaxd.hit_overhead_ms", "ms", "", "estimate-skewed/latency_p50_ms"},
	{"relmaxd.solve_overhead_ms", "ms", "", "solve-cold/latency_p50_ms (predicted ~0)"},
	{"engine.canonicalize_us", "us", "", "estimate-skewed/latency_p50_ms"},
	{"engine.cache_hit_ratio", "ratio", "reads", "estimate-skewed/ops_per_s (exactly 0 on solve-cold)"},
	{"engine.queue_wait_ms", "ms", "", "solve-cold/latency_p90_ms"},
	{"engine.run_ms", "ms", "", "solve-cold/latency_p90_ms"},
	{"engine.apply_ms", "ms", "", "mutate-burst/latency_p50_ms"},
	{"engine.compact_ms", "ms", "", "mutate-burst/latency_p50_ms, cpu_ms_per_op"},
	{"engine.compactions", "count", "", "mutate-burst/latency_p50_ms, cpu_ms_per_op"},
	{"engine.chain_depth", "layers", "", "solve-under-writes/latency_p50_ms"},
	{"engine.cache_invalidated", "count", "", "solve-under-writes/cpu_ms_per_op"},
	{"engine.layered_solve_ratio", "ratio", "flat", "solve-under-writes/latency_p50_ms"},
	{"core.elim_ms", "ms", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"core.select_ms", "ms", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"core.eval_ms", "ms", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"core.candidates", "count", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"core.paths", "count", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"paths.topl_ms", "ms", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"candidates.eliminate_ms", "ms", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"candidates.sampler_calls", "count", "", "solve-cold/latency_p50_ms, cpu_ms_per_op"},
	{"sampling.reliability_us.rss", "us", "", "solve-cold/cpu_ms_per_op"},
	{"sampling.reliability_us.mcvec", "us", "", "solve-cold/cpu_ms_per_op"},
	{"sampling.parallel_cpu_ratio", "ratio", "serial", "solve-cold/cpu_ms_per_op"},
	{"anytime.samples_per_estimate", "count", "", "estimate-skewed/cpu_ms_per_op"},
	{"ugraph.delta_us", "us", "", "mutate-burst/latency_p50_ms"},
	{"ugraph.freeze_ms", "ms", "", "setup_s, compaction"},
	{"store.append_ms", "ms", "", "mutate-burst/latency_p50_ms"},
	{"store.checkpoint_ms", "ms", "", "mutate-burst/latency_p90_ms"},
	{"trace.overhead_ratio", "ratio", "untraced replay", "none: the traced run's own cost"},
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: solve-cold, estimate-skewed, solve-under-writes or mutate-burst")
		seed         = flag.Int64("seed", 1, "workload seed: fixes every generated request")
		seconds      = flag.Int("seconds", 15, "run length; fixes the number of requests, which always run to completion")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced in-process run")
		serverProcs  = flag.String("server-gomaxprocs", "nproc-1", "GOMAXPROCS of relmaxd: a number, or nproc-1")
		genProcs     = flag.Int("generator-gomaxprocs", 1, "GOMAXPROCS of this load generator")
		relmaxd      = flag.String("relmaxd", "", "relmaxd binary to serve the traffic")
		work         = flag.String("work", ".bench_build/perfbench", "directory for data, logs and traces")
	)
	flag.Parse()
	runtime.GOMAXPROCS(*genProcs)
	procs, err := resolveProcs(*serverProcs)
	if err == nil && *relmaxd == "" {
		err = fmt.Errorf("-relmaxd is required")
	}
	var res result
	if err == nil {
		res, err = run(*workloadName, *seed, *seconds, *trace == 1, procs, *genProcs, *relmaxd, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func resolveProcs(v string) (int, error) {
	if v == "nproc-1" {
		return max(1, runtime.NumCPU()-1), nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-server-gomaxprocs %q: want a positive number or nproc-1", v)
	}
	return n, nil
}

func run(name string, seed int64, seconds int, traced bool, procs, genProcs int, bin, work string) (result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return result{}, err
	}
	if seconds < 1 {
		return result{}, fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	in, err := buildInputs(w, seed, seconds)
	if err != nil {
		return result{}, err
	}
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cpuinfo, _ := readFile("/proc/cpuinfo") // the model name is informational
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, traced)
	fmt.Printf("machine: nproc=%d cpu=%q relmaxd GOMAXPROCS=%d generator GOMAXPROCS=%d\n",
		runtime.NumCPU(), parseCPUModel(cpuinfo), procs, genProcs)
	if traced {
		return tracedRun(bin, in, procs, dir, filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	}
	return measuredRun(bin, in, procs, dir)
}

// measuredRun times relmaxd's set-up, serves the workload over HTTP, then
// checks every reply.
func measuredRun(bin string, in *inputs, procs int, dir string) (result, error) {
	var setups []float64
	launch := func(keep bool) (*server, error) {
		s, d, err := startServer(bin, in, procs, filepath.Join(dir, fmt.Sprintf("launch-%d", len(setups))))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if !keep {
			s.stop()
		}
		return s, nil
	}
	for i := 0; i < setupLaunches/2; i++ {
		if _, err := launch(false); err != nil {
			return result{}, err
		}
	}
	srv, err := launch(true)
	if err != nil {
		return result{}, err
	}
	served, err := serve(srv, in)
	srv.stop()
	if err != nil {
		return result{}, err
	}
	for i := setupLaunches / 2; i < setupLaunches; i++ {
		if _, err := launch(false); err != nil {
			return result{}, err
		}
	}
	m := served.m
	c := &checker{in: in}
	mismatched, err := c.check(m, served.initial, served.final)
	if err != nil {
		return result{}, err
	}

	primary := m.primaryAll()
	var lat []float64
	ok := 0
	for _, r := range primary {
		if r.ok() {
			ok++
			lat = append(lat, ms(r.latency))
		}
	}
	phases := []phase{phaseOf("warm-up", m.warm), phaseOf("timed "+in.w.primary, primary)}
	if len(m.writer) > 0 {
		phases = append(phases, phaseOf("timed writer", m.writer))
	}
	attempted, failed := 0, mismatched
	for _, p := range phases[1:] {
		attempted += p.attempted
		failed += p.failed
	}
	for _, p := range phases {
		fmt.Printf("phase %-16s attempted %5d succeeded %5d failed %d\n", p.name, p.attempted, p.succeeded, p.failed)
	}
	if ok == 0 {
		return result{}, fmt.Errorf("no %s succeeded", in.w.primary)
	}
	metrics := map[string]metric{
		"setup_s":        {percentile(setups, 0.25), "s"},
		"ops_per_s":      {float64(ok) / m.wall.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(lat, 0.50), "ms"},
		"latency_p90_ms": {percentile(lat, 0.90), "ms"},
		"cpu_ms_per_op":  {m.serverCPU * 1000 / float64(ok), "ms"},
		"server_rss_mb":  {served.hwm, "MB"},
	}
	fmt.Printf("setup launches (s): %s\n", floats(setups))
	for _, q := range []float64{0.90, 0.99} {
		if tailSupported(len(lat), q) {
			fmt.Printf("latency_p%02.0f_ms %.4f ms (n=%d, %d beyond)\n", q*100, percentile(lat, q), len(lat), len(lat)-rank(len(lat), q))
		} else {
			fmt.Printf("latency_p%02.0f_ms not reported: n=%d leaves fewer than %d samples beyond it\n", q*100, len(lat), minBeyond)
		}
	}
	var ladder []float64
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.95} {
		ladder = append(ladder, percentile(lat, q))
	}
	fmt.Printf("latency ms at p25 p50 p75 p90 p95: %s\n", floats(ladder))
	fmt.Printf("ops/s by fifth of the timed phase: %s\n", floats(windowRates(m, 5)))
	fmt.Printf("host noise: steal share %.4f, relmaxd off-CPU share %.4f (timed span %.3f s, relmaxd CPU %.3f s)\n",
		m.steal, 1-m.serverCPU/m.span.Seconds(), m.span.Seconds(), m.serverCPU)
	printChecks(c, mismatched, len(primary))
	printMetrics(metrics)
	return result{Correct: failed == 0 && len(c.problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// served is what one serving pass observed, with the dataset as /healthz
// reported it before and after.
type served struct {
	m              *measured
	initial, final datasetInfo
	hwm            float64
}

func serve(srv *server, in *inputs) (served, error) {
	var out served
	client := newClient(1)
	defer client.CloseIdleConnections()
	var err error
	if out.initial, _, err = srv.health(client, in.w.dataset); err != nil {
		return out, err
	}
	if out.m, err = drive(srv, in); err != nil {
		return out, err
	}
	if out.final, _, err = srv.health(client, in.w.dataset); err != nil {
		return out, err
	}
	out.hwm, err = processHWM(srv.pid())
	return out, err
}

// tracedRun produces the per-layer metrics: relmaxd's overhead probes,
// untraced, traced and again untraced in-process replays of the workload's
// sequence, and the layer probes.
func tracedRun(bin string, in *inputs, procs int, dir, tracePath string) (result, error) {
	vals := layerValues{}
	c := &checker{in: in}
	if err := probeOverheads(bin, in, procs, filepath.Join(dir, "overhead"), vals, c); err != nil {
		return result{}, err
	}
	// Untraced replays run before and after the traced one, so a drift in
	// the host's speed over the three cancels out of the overhead ratio.
	tr := newTracer()
	tracers := []*tracer{nil, tr, nil}
	replays := make([]replayOut, len(tracers))
	wantEpoch := in.g.Version() + uint64(in.mutations)
	for i, rec := range tracers {
		o, err := replay(in, rec, filepath.Join(dir, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return result{}, err
		}
		if o.final.Epoch != wantEpoch || o.final.M != in.finalM {
			c.failf("replay ended at epoch %d with %d edges, model says epoch %d with %d",
				o.final.Epoch, o.final.M, wantEpoch, in.finalM)
		}
		replays[i] = o
	}
	rp := replays[1]
	base := (replays[0].wall.Seconds() + replays[2].wall.Seconds()) / 2
	vals["trace.overhead_ratio"] = rp.wall.Seconds() / base
	if rp.reads > 0 {
		vals["engine.cache_hit_ratio"] = float64(rp.hits) / float64(rp.reads)
	}
	vals["engine.queue_wait_ms"] = medianOr0(tr.durations("engine.queue", rp.start))
	vals["engine.run_ms"] = medianOr0(tr.durations("engine.run", rp.start))
	vals["engine.apply_ms"] = medianOr0(tr.durations("engine.apply", rp.start))
	vals["store.append_ms"] = medianOr0(tr.durations("store.append", rp.start))
	vals["store.checkpoint_ms"] = medianOr0(tr.durations("store.checkpoint", rp.start))
	vals["engine.chain_depth"] = mean(rp.depths)
	vals["engine.compactions"] = float64(rp.after.Compactions - rp.before.Compactions)
	vals["engine.cache_invalidated"] = float64(rp.after.CacheInvalidated - rp.before.CacheInvalidated)
	if err := probeLayers(in, tr, procs, vals, c); err != nil {
		return result{}, err
	}
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	attempted, failed := 0, 0
	for i, o := range replays {
		kind := "untraced"
		if tracers[i] != nil {
			kind = "traced"
		}
		fmt.Printf("phase replay %-8s attempted %5d failed %d wall %.3f s\n", kind, o.attempted, o.failed, o.wall.Seconds())
		attempted += o.attempted
		failed += o.failed
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), tracePath)
	printChecks(c, 0, 0)
	fmt.Printf("%-32s %14s %-7s %-16s %s\n", "per-layer metric", "value", "unit", "base", "moves")
	metrics := map[string]metric{}
	for _, lm := range layerMetrics {
		v := vals[lm.name]
		metrics[lm.name] = metric{v, lm.unit}
		fmt.Printf("%-32s %14.4f %-7s %-16s %s\n", lm.name, v, lm.unit, lm.base, lm.moves)
	}
	return result{
		Correct:   failed == 0 && len(c.problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func printChecks(c *checker, mismatched, replies int) {
	if len(c.problems) == 0 {
		if replies > 0 {
			fmt.Printf("check: ok, %d replies match the in-process Engine and the model\n", replies)
		} else {
			fmt.Println("check: ok")
		}
		return
	}
	fmt.Printf("check: FAILED (%d mismatched replies)\n", mismatched)
	for _, p := range c.problems {
		fmt.Println("  " + p)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-16s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// windowRates splits the timed phase into k equal spans and returns the
// primary replies completed per second in each.
func windowRates(m *measured, k int) []float64 {
	rates := make([]float64, k)
	width := m.wall.Seconds() / float64(k)
	for _, r := range m.primaryAll() {
		i := min(int(r.end.Sub(m.start).Seconds()/width), k-1)
		rates[i] += 1 / width
	}
	return rates
}
