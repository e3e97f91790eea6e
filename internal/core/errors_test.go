package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ugraph"
)

// errorsGraph is a small connected graph for taxonomy probes.
func errorsGraph() *ugraph.Graph {
	g := ugraph.New(8, false)
	for i := 0; i < 7; i++ {
		g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(i+1), 0.6)
	}
	return g
}

// TestErrorTaxonomy drives every sentinel through errors.Is: each failure
// mode must wrap exactly the documented sentinel so callers can route on
// it without string matching.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	g := errorsGraph()
	opt := Options{K: 2, Z: 50, Seed: 1, R: 4, L: 4}
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"source out of range", func() error {
			_, err := Solve(ctx, g, -1, 3, MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"target out of range", func() error {
			_, err := Solve(ctx, g, 0, 99, MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"source equals target", func() error {
			_, err := Solve(ctx, g, 2, 2, MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"unknown method", func() error {
			_, err := Solve(ctx, g, 0, 3, Method("bogus"), opt)
			return err
		}, ErrUnknownMethod},
		{"unknown sampler serial", func() error {
			bad := opt
			bad.Sampler = "bogus"
			_, err := Solve(ctx, g, 0, 3, MethodBE, bad)
			return err
		}, ErrUnknownSampler},
		{"unknown sampler parallel", func() error {
			bad := opt
			bad.Sampler = "bogus"
			bad.Workers = 2
			_, err := Solve(ctx, g, 0, 3, MethodBE, bad)
			return err
		}, ErrUnknownSampler},
		{"exact search over combo cap", func() error {
			bad := opt
			bad.K = 5
			bad.MaxExactCombos = 3
			bad.NoElimination = true
			_, err := Solve(ctx, g, 0, 7, MethodExact, bad)
			return err
		}, ErrBudget},
		{"non-positive total budget", func() error {
			_, err := SolveTotalBudget(ctx, g, 0, 3, 0, opt)
			return err
		}, ErrBudget},
		{"negative total budget", func() error {
			_, err := SolveTotalBudget(ctx, g, 0, 3, -2, opt)
			return err
		}, ErrBudget},
		{"NaN total budget", func() error {
			_, err := SolveTotalBudget(ctx, g, 0, 3, math.NaN(), opt)
			return err
		}, ErrBudget},
		{"infinite total budget", func() error {
			_, err := SolveTotalBudget(ctx, g, 0, 3, math.Inf(1), opt)
			return err
		}, ErrBudget},
		{"multi empty sources", func() error {
			_, err := SolveMulti(ctx, g, nil, []ugraph.NodeID{1}, AggAvg, MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"multi node out of range", func() error {
			_, err := SolveMulti(ctx, g, []ugraph.NodeID{0}, []ugraph.NodeID{99}, AggAvg, MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"multi unknown aggregate", func() error {
			_, err := SolveMulti(ctx, g, []ugraph.NodeID{0}, []ugraph.NodeID{3}, Aggregate("bogus"), MethodBE, opt)
			return err
		}, ErrBadQuery},
		{"multi unsupported method", func() error {
			_, err := SolveMulti(ctx, g, []ugraph.NodeID{0}, []ugraph.NodeID{3}, AggAvg, MethodDegree, opt)
			return err
		}, ErrUnknownMethod},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %q does not wrap %q", err, tc.want)
			}
			// Every sentinel is distinct: the error must not match the
			// other sentinels.
			for _, other := range []error{ErrBadQuery, ErrUnknownMethod, ErrUnknownSampler, ErrBudget, ErrNoPath} {
				if other != tc.want && errors.Is(err, other) {
					t.Fatalf("error %q wraps both %q and %q", err, tc.want, other)
				}
			}
		})
	}
}

// TestCancelledSolveReturnsPartialSolution: a context cancelled before the
// solve starts must surface context.Canceled (wrapped) together with a
// well-formed partial Solution, not hang or panic.
func TestCancelledSolveReturnsPartialSolution(t *testing.T) {
	g := errorsGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []Method{
		MethodBE, MethodHillClimbing, MethodIndividualTopK, MethodExact,
		MethodDegree, MethodBetweenness, MethodEigen, MethodMRP,
	} {
		sol, err := Solve(ctx, g, 0, 7, method, Options{K: 2, Z: 200, Seed: 1, R: 4, L: 4})
		if err == nil {
			t.Fatalf("%s: cancelled solve returned nil error", method)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %q does not wrap context.Canceled", method, err)
		}
		if sol.Method != method {
			t.Fatalf("%s: partial solution lost its method: %+v", method, sol)
		}
		if sol.Base != 0 || sol.After != 0 || sol.Gain != 0 {
			t.Fatalf("%s: cancelled solve reported evaluation numbers: %+v", method, sol)
		}
		// Score-ranking methods cannot rank on incomplete scores: their
		// partial solutions hold no edges (greedy methods may keep the
		// rounds they committed before the context fired).
		switch method {
		case MethodIndividualTopK, MethodDegree, MethodBetweenness, MethodEigen:
			if len(sol.Edges) != 0 {
				t.Fatalf("%s: cancelled score-ranking solve returned edges: %v", method, sol.Edges)
			}
		}
	}
}

// TestDeadlineMidSolve arms a deadline that fires inside the solve and
// checks the wrap is context.DeadlineExceeded and the partial solution
// respects the budget invariant.
func TestDeadlineMidSolve(t *testing.T) {
	g := benchStyleGraph(400)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sol, err := Solve(ctx, g, 0, 399, MethodHillClimbing, Options{K: 3, Z: 200_000, Seed: 1, R: 20, L: 8})
	if err == nil {
		t.Skip("machine fast enough to finish inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %q does not wrap context.DeadlineExceeded", err)
	}
	if len(sol.Edges) > 3 {
		t.Fatalf("partial solution violates the budget: %v", sol.Edges)
	}
}

// TestCancelledSolveMulti mirrors the single-pair contract for Problem 4.
func TestCancelledSolveMulti(t *testing.T) {
	g := errorsGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveMulti(ctx, g, []ugraph.NodeID{0, 1}, []ugraph.NodeID{6, 7}, AggAvg, MethodBE,
		Options{K: 2, Z: 100, Seed: 1, R: 4, L: 4})
	if err == nil {
		t.Fatal("cancelled SolveMulti returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %q does not wrap context.Canceled", err)
	}
	if sol.Base != 0 || sol.After != 0 {
		t.Fatalf("cancelled SolveMulti reported evaluation numbers: %+v", sol)
	}
}

// benchStyleGraph builds a larger ring+chords graph so a tiny deadline can
// plausibly fire mid-solve.
func benchStyleGraph(n int) *ugraph.Graph {
	g := ugraph.New(n, false)
	for i := 0; i < n; i++ {
		g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID((i+1)%n), 0.5)
	}
	for i := 0; i < n; i += 7 {
		j := (i + n/2) % n
		if !g.HasEdge(ugraph.NodeID(i), ugraph.NodeID(j)) {
			g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(j), 0.3)
		}
	}
	return g
}
