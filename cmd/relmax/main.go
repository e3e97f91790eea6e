// Command relmax answers budgeted reliability maximization queries over an
// uncertain graph stored in the library's edge-list format:
//
//	relmax -graph g.txt -s 3 -t 42 -k 10 -zeta 0.5 -method be
//
// It prints the chosen shortcut edges and the reliability before/after.
//
// -estimate skips edge selection and just estimates the s-t reliability;
// with -precision the estimator runs in anytime mode, sampling only until
// the confidence interval is tight enough (or -max-z samples are spent),
// and reports the interval plus why it stopped:
//
//	relmax -dataset lastfm -s 3 -t 42 -estimate -precision 0.01 -progress
//
// -mutations applies a batch of edge mutations (Engine.Apply) before the
// query runs — the scripted way to answer "what does the query look like
// after these edges change" without editing the graph file. The file holds
// one mutation per line ('#' comments and blank lines are skipped):
//
//	add 3 42 0.5     # insert edge (3,42) with probability 0.5
//	set 7 9 0.25     # re-estimate edge (7,9) to 0.25
//	remove 1 4       # delete edge (1,4)
//
// Every query runs as an engine job (Engine.Submit), the same execution
// path cmd/relmaxd serves over HTTP; -progress streams the job's per-round
// solver progress to stderr while it runs. -timeout bounds the solve, and
// a first SIGINT (Ctrl-C) cancels the job cooperatively — the solver stops
// at the next sample block and the partial result (edges chosen so far) is
// printed instead of the process being killed mid-computation. A second
// SIGINT kills the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to an edge-list graph file (see cmd/datagen)")
		dataset   = flag.String("dataset", "", "built-in dataset name instead of -graph (e.g. lastfm)")
		scale     = flag.Float64("scale", 0.08, "dataset scale when using -dataset")
		s         = flag.Int("s", 0, "source node")
		t         = flag.Int("t", 1, "target node")
		k         = flag.Int("k", 10, "budget on new edges")
		zeta      = flag.Float64("zeta", 0.5, "probability of new edges")
		r         = flag.Int("r", 100, "search-space elimination width (top-r nodes per side)")
		l         = flag.Int("l", 30, "number of most reliable paths")
		h         = flag.Int("h", 0, "hop constraint for new edges (0 = unbounded)")
		z         = flag.Int("z", 500, "reliability samples")
		estimate  = flag.Bool("estimate", false, "estimate s-t reliability only (no edge selection)")
		precision = flag.Float64("precision", 0, "anytime estimation: stop sampling once the confidence interval half-width reaches this (implies -estimate; 0 = fixed budget -z)")
		maxZ      = flag.Int("max-z", 0, "anytime estimation: cap on adaptive samples (0 = library default)")
		sampler   = flag.String("sampler", "rss", "reliability estimator: mc, rss or mcvec (word-parallel MC)")
		method    = flag.String("method", "be", "solver: "+methodList())
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "sampling worker pool size (<= 0 = all CPUs; results are identical at every value)")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 30s")
		progress  = flag.Bool("progress", false, "stream per-round solver progress to stderr")
		sources   = flag.String("sources", "", "comma-separated source set (multi-source mode)")
		targets   = flag.String("targets", "", "comma-separated target set (multi-source mode)")
		agg       = flag.String("agg", "avg", "aggregate for multi mode: avg, min or max")
		budget    = flag.Float64("budget", 0, "total probability budget (enables the §9 extension)")
		mutations = flag.String("mutations", "", "file of edge mutations (add/set/remove lines) applied before the query")
	)
	flag.Parse()

	// First SIGINT/SIGTERM cancels the context (cooperative shutdown with
	// a partial result). Once it has fired, stop() restores the default
	// signal disposition so a second one really kills the process even if
	// a solver stage is slow to reach its next cancellation point.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-sigCtx.Done()
		stop()
	}()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := loadGraph(*graphPath, *dataset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	opt := repro.Options{
		K: *k, Zeta: *zeta, R: *r, L: *l, H: *h,
		Z: *z, Sampler: *sampler, Seed: *seed, Workers: *workers,
	}
	if *precision > 0 {
		*estimate = true
	}
	eng, err := repro.NewEngine(g, repro.WithSolverDefaults(opt))
	if err != nil {
		fatal(err)
	}
	if *mutations != "" {
		muts, err := readMutations(*mutations)
		if err != nil {
			fatal(err)
		}
		before := eng.Epoch()
		epoch, err := eng.Apply(ctx, muts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("applied %d mutations: epoch %d -> %d\n", len(muts), before, epoch)
	}
	snap := eng.Snapshot()
	fmt.Printf("graph: n=%d m=%d directed=%v epoch=%d\n", snap.N(), snap.M(), snap.Directed(), eng.Epoch())

	if *estimate {
		q := repro.Query{Kind: repro.QueryEstimate, S: repro.NodeID(*s), T: repro.NodeID(*t)}
		if *precision > 0 {
			o := opt
			o.Precision, o.MaxZ = *precision, *maxZ
			q.Options = &o
		}
		res, err := runJob(ctx, eng, q, *progress)
		if interrupted(err) {
			fmt.Printf("estimate interrupted (%v)\n", reason(err))
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		if a := res.Anytime; a != nil {
			fmt.Printf("estimate: %d -> %d  reliability %.4f in [%.4f, %.4f]\n", *s, *t, a.Point, a.Lo, a.Hi)
			fmt.Printf("anytime: %d samples used (cap %d), stopped on %s (precision %.4g)\n",
				a.SamplesUsed, a.MaxZ, a.StopReason, a.Precision)
		} else {
			fmt.Printf("estimate: %d -> %d  reliability %.4f (z=%d)\n", *s, *t, res.Reliability, *z)
		}
		return
	}

	if *sources != "" || *targets != "" {
		S, err := parseNodes(*sources)
		if err != nil {
			fatal(err)
		}
		T, err := parseNodes(*targets)
		if err != nil {
			fatal(err)
		}
		res, err := runJob(ctx, eng, repro.Query{
			Kind: repro.QueryMulti, Sources: S, Targets: T,
			Aggregate: repro.Aggregate(*agg), Method: repro.Method(*method),
		}, *progress)
		sol := res.Multi
		if interrupted(err) {
			fmt.Printf("multi query interrupted (%v): partial result below\n", reason(err))
			printEdges(sol.Edges)
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("multi query: |S|=%d |T|=%d agg=%s method=%s k=%d\n", len(S), len(T), sol.Aggregate, sol.Method, *k)
		fmt.Printf("aggregate reliability: %.4f -> %.4f (gain %.4f) in %v\n", sol.Base, sol.After, sol.Gain, sol.Elapsed)
		printEdges(sol.Edges)
		return
	}

	if *budget > 0 {
		res, err := runJob(ctx, eng, repro.Query{
			Kind: repro.QueryTotalBudget,
			S:    repro.NodeID(*s), T: repro.NodeID(*t), Budget: *budget,
		}, *progress)
		sol := res.TotalBudget
		if interrupted(err) {
			fmt.Printf("total-budget query interrupted (%v): partial allocation below (spent %.2f)\n", reason(err), sol.Spent)
			printEdges(sol.Edges)
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("total-budget query: %d -> %d  B=%.2f (spent %.2f)\n", *s, *t, *budget, sol.Spent)
		fmt.Printf("reliability: %.4f -> %.4f (gain %.4f) in %v\n", sol.Base, sol.After, sol.Gain, sol.Elapsed)
		printEdges(sol.Edges)
		return
	}

	res, err := runJob(ctx, eng, repro.Query{
		Kind: repro.QuerySolve,
		S:    repro.NodeID(*s), T: repro.NodeID(*t), Method: repro.Method(*method),
	}, *progress)
	sol := res.Solution
	if interrupted(err) {
		fmt.Printf("query interrupted (%v): partial result below (%d candidates, %d edges chosen)\n",
			reason(err), sol.CandidateCount, len(sol.Edges))
		printEdges(sol.Edges)
		os.Exit(1)
	}
	if errors.Is(err, repro.ErrNoPath) {
		// "Nothing to improve" is a valid scripted answer for the CLI, as
		// it was before the Engine's stricter surface: print the zero-gain
		// result and exit 0.
		fmt.Printf("no s-t path to improve: reliability stays %.4f (0 edges)\n", sol.Base)
	} else if err != nil {
		fatal(err)
	}
	fmt.Printf("query: %d -> %d  method=%s k=%d zeta=%.2f\n", *s, *t, sol.Method, *k, *zeta)
	fmt.Printf("candidates after elimination: %d (paths extracted: %d)\n", sol.CandidateCount, sol.PathCount)
	fmt.Printf("reliability: %.4f -> %.4f (gain %.4f)\n", sol.Base, sol.After, sol.Gain)
	fmt.Printf("time: elimination %v, selection %v\n", sol.ElimTime, sol.SelectTime)
	printEdges(sol.Edges)
}

// runJob drives one query through Engine.Submit — the exact execution path
// relmaxd serves — optionally streaming live per-round progress to stderr,
// and waits for the job to finish. Cancelling ctx (SIGINT, -timeout)
// cancels the job cooperatively; the partial result comes back with the
// wrapped context error.
func runJob(ctx context.Context, eng *repro.Engine, q repro.Query, progress bool) (repro.Result, error) {
	if progress {
		q.Progress = printProgress
	}
	job, err := eng.Submit(ctx, q)
	if err != nil {
		return repro.Result{}, err
	}
	res, err := job.Wait(ctx)
	if progress {
		if st := job.Status(); st.CacheHit {
			fmt.Fprintln(os.Stderr, "progress: served from result cache")
		}
	}
	return res, err
}

// printProgress renders one solver progress event; it runs inline on the
// solving goroutine, so it stays a single write.
func printProgress(ev repro.ProgressEvent) {
	switch ev.Stage {
	case repro.StageEliminate:
		fmt.Fprintf(os.Stderr, "progress: eliminated search space to %d candidate edges\n", ev.Candidates)
	case repro.StagePaths:
		fmt.Fprintf(os.Stderr, "progress: extracted %d most reliable paths\n", ev.Paths)
	case repro.StageSelect:
		fmt.Fprintf(os.Stderr, "progress: round %d/%d: %d edges chosen (%d batches in pool)\n",
			ev.Round, ev.Total, ev.Edges, ev.Batches)
	case repro.StageEvaluate:
		fmt.Fprintf(os.Stderr, "progress: evaluating %d chosen edges\n", ev.Edges)
	case repro.StageEstimate:
		fmt.Fprintf(os.Stderr, "progress: interval [%.4f, %.4f] after %d samples\n", ev.Lo, ev.Hi, ev.Samples)
	}
}

// interrupted reports whether err stems from cancellation or a deadline.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// reason renders the interruption cause for the partial-result message.
func reason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline exceeded"
	}
	return "cancelled"
}

func printEdges(edges []repro.Edge) {
	fmt.Println("new edges:")
	for _, e := range edges {
		fmt.Printf("  %d -> %d  p=%.3f\n", e.U, e.V, e.P)
	}
}

func parseNodes(csv string) ([]repro.NodeID, error) {
	if csv == "" {
		return nil, fmt.Errorf("both -sources and -targets are required in multi mode")
	}
	var out []repro.NodeID
	for _, part := range strings.Split(csv, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad node id %q", part)
		}
		out = append(out, repro.NodeID(v))
	}
	return out, nil
}

// readMutations parses a mutation file: one "add u v p", "set u v p" or
// "remove u v" per line, '#' comments and blank lines skipped.
func readMutations(path string) ([]repro.Mutation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []repro.Mutation
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func() ([]repro.Mutation, error) {
			return nil, fmt.Errorf("%s:%d: bad mutation %q (want 'add u v p', 'set u v p' or 'remove u v')",
				path, lineNo+1, strings.TrimSpace(line))
		}
		// strconv rejects trailing junk ("24x") that Sscanf would silently
		// truncate — a typo must fail the file, not mutate the wrong edge.
		node := func(s string) (repro.NodeID, bool) {
			v, err := strconv.ParseInt(s, 10, 32)
			return repro.NodeID(v), err == nil
		}
		var u, v repro.NodeID
		okU, okV := false, false
		if len(fields) >= 2 {
			u, okU = node(fields[1])
		}
		if len(fields) >= 3 {
			v, okV = node(fields[2])
		}
		switch fields[0] {
		case "add", "set":
			if len(fields) != 4 || !okU || !okV {
				return bad()
			}
			p, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return bad()
			}
			if fields[0] == "add" {
				out = append(out, repro.AddEdge(u, v, p))
			} else {
				out = append(out, repro.SetProb(u, v, p))
			}
		case "remove":
			if len(fields) != 3 || !okU || !okV {
				return bad()
			}
			out = append(out, repro.RemoveEdge(u, v))
		default:
			return bad()
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no mutations found", path)
	}
	return out, nil
}

func loadGraph(path, dataset string, scale float64, seed int64) (*repro.Graph, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return repro.ReadGraph(f)
	case dataset != "":
		return repro.LoadDataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("one of -graph or -dataset is required (datasets: %s)",
			strings.Join(repro.DatasetNames(), ", "))
	}
}

func methodList() string {
	var names []string
	for _, m := range repro.Methods() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relmax:", err)
	os.Exit(1)
}
