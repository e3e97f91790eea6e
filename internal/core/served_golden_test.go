package core

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ugraph"
)

// servedGoldenFile holds one line per servedGoldenRows row, recorded on
// the solvers as they were before the path stage searched E+ implicitly.
const servedGoldenFile = "testdata/served_goldens.txt"

// servedGoldenRows solves the shapes relmaxd serves, at elimination's
// served pool sizes (r = 100, about 6,200 candidate edges per lastfm×0.08
// pair), and renders each result as one line: the chosen edges, the path
// and candidate counts where the solver reports them, and the bits of Base
// and After.
//   - BE and IP on 20 lastfm×0.08 and 20 astopo×0.08 pairs 3–5 hops apart
//     at the engine defaults, plus one lastfm row at H = 2 and one at
//     ζ = 0.3;
//   - multi-avg BE and multi-min BE on a 3×3 lastfm×0.08 instance;
//   - total budgets 1.0 and 2.5 on 3 lastfm×0.08 pairs.
func servedGoldenRows(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	opt := Options{Workers: 1}
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	solveRow := func(label string, g *ugraph.Graph, q datasets.Query, m Method, opt Options) string {
		sol, err := Solve(ctx, g, q.S, q.T, m, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return fmt.Sprintf("%s %d->%d edges=%v paths=%d cands=%d base=%s after=%s",
			label, q.S, q.T, sol.Edges, sol.PathCount, sol.CandidateCount, bits(sol.Base), bits(sol.After))
	}
	var rows []string
	var lastfm *ugraph.Graph
	var lastfmQs []datasets.Query
	for _, name := range []string{"lastfm", "astopo"} {
		g, err := datasets.Load(name, 0.08, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs := datasets.Queries(g, 20, 3, 5, 1)
		if len(qs) != 20 {
			t.Fatalf("%s: %d query pairs, want 20", name, len(qs))
		}
		if name == "lastfm" {
			lastfm, lastfmQs = g, qs
		}
		for _, q := range qs {
			for _, m := range []Method{MethodBE, MethodIP} {
				rows = append(rows, solveRow(name+" "+string(m), g, q, m, opt))
			}
		}
	}
	hop, zeta := opt, opt
	hop.H, zeta.Zeta = 2, 0.3
	rows = append(rows,
		solveRow("lastfm be h=2", lastfm, lastfmQs[0], MethodBE, hop),
		solveRow("lastfm be zeta=0.3", lastfm, lastfmQs[1], MethodBE, zeta))

	var sources, targets []ugraph.NodeID
	for _, q := range lastfmQs[:3] {
		sources, targets = append(sources, q.S), append(targets, q.T)
	}
	for _, agg := range []Aggregate{AggAvg, AggMin} {
		sol, err := SolveMulti(ctx, lastfm, sources, targets, agg, MethodBE, opt)
		if err != nil {
			t.Fatalf("multi-%s: %v", agg, err)
		}
		rows = append(rows, fmt.Sprintf("lastfm multi-%s be %v->%v edges=%v base=%s after=%s",
			agg, sources, targets, sol.Edges, bits(sol.Base), bits(sol.After)))
	}
	for _, budget := range []float64{1.0, 2.5} {
		for _, q := range lastfmQs[:3] {
			sol, err := SolveTotalBudget(ctx, lastfm, q.S, q.T, budget, opt)
			if err != nil {
				t.Fatalf("total-budget %v: %v", budget, err)
			}
			rows = append(rows, fmt.Sprintf("lastfm total-budget-%v %d->%d edges=%v base=%s after=%s",
				budget, q.S, q.T, sol.Edges, bits(sol.Base), bits(sol.After)))
		}
	}
	return rows
}

// TestServedShapeGoldens pins every served solve shape, bit for bit, to the
// results recorded in servedGoldenFile.
func TestServedShapeGoldens(t *testing.T) {
	f, err := os.Open(servedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := servedGoldenRows(t)
	if len(got) != len(want) {
		t.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i, row := range got {
		if i >= len(want) || row != want[i] {
			t.Errorf("row %d:\n got %s", i, row)
			if i < len(want) {
				t.Errorf("want %s", want[i])
			}
		}
	}
}
