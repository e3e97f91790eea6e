// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§8) on the built-in dataset stand-ins:
//
//	experiments -list              # show available artifact ids
//	experiments -run table9        # one table
//	experiments -run all           # everything (several minutes)
//	experiments -run table9 -quick # bench-sized
//
// Runs execute under a context: -timeout bounds the whole run, and a first
// SIGINT (Ctrl-C) cancels it cooperatively at the next query boundary with
// a clean message instead of a hard kill (a second SIGINT kills).
//
// Absolute numbers differ from the paper (scaled graphs, different
// hardware); the reproduced signal is the relative comparison between
// methods and the trends across parameters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment id, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quick   = flag.Bool("quick", false, "bench-sized workloads")
		scale   = flag.Float64("scale", 0.08, "dataset scale factor")
		queries = flag.Int("queries", 3, "queries averaged per cell (paper: 100)")
		seed    = flag.Int64("seed", 2024, "random seed")
		workers = flag.Int("workers", 0, "sampling worker pool size (<= 0 = all CPUs; results are identical at every value)")
		timeout = flag.Duration("timeout", 0, "overall deadline (0 = none), e.g. 10m")
	)
	flag.Parse()

	if *list {
		for _, id := range repro.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run <id>|all required; -list shows ids")
		os.Exit(2)
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal fires, restore default disposition so a
		// second SIGINT hard-kills instead of being swallowed.
		<-sigCtx.Done()
		stop()
	}()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	params := repro.ExperimentParams{Quick: *quick, Scale: *scale, Queries: *queries, Seed: *seed, Workers: *workers}
	ids := []string{*run}
	if *run == "all" {
		ids = repro.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := repro.RunExperimentContext(ctx, id, params)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			why := "cancelled"
			if errors.Is(err, context.DeadlineExceeded) {
				why = "deadline exceeded"
			}
			fmt.Fprintf(os.Stderr, "experiments: %s interrupted (%s) after %v; completed tables were printed above\n",
				id, why, time.Since(start).Round(time.Millisecond))
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(tab.Render())
		fmt.Printf("-- wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
}
