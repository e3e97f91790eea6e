// Package exp is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (§8), shared by the
// cmd/experiments driver and the root bench_test.go benchmarks. Each
// experiment builds its workload (dataset stand-in + query set), runs the
// competing methods with the paper's parameters (scaled to laptop size; see
// DESIGN.md) and renders rows shaped like the published artifact.
//
// Absolute numbers differ from the paper (different hardware, scaled
// graphs); the comparisons to check are the relative ones — which method
// wins, how gains move with k, ζ, r, l, h, and where behaviour saturates.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/ugraph"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the table as aligned plain text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// Params controls experiment sizing. The zero value gives the default
// laptop-scale run; Quick shrinks everything further for benchmarks and CI.
type Params struct {
	// Scale multiplies dataset node counts (default 0.08; the paper's
	// graphs are 54 to 6.3M nodes).
	Scale float64
	// Queries is the number of s-t pairs averaged per cell (paper: 100;
	// default 3).
	Queries int
	// Seed drives everything.
	Seed int64
	// Quick selects bench-sized workloads.
	Quick bool
	// Workers sizes the reliability-estimation worker pool passed through
	// to core.Options.Workers (<= 0 = all CPUs). Results are bit-identical
	// at every Workers value for a fixed Seed.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 0.08
	}
	if p.Queries <= 0 {
		p.Queries = 3
	}
	if p.Seed == 0 {
		p.Seed = 2024
	}
	if p.Quick {
		p.Scale = minF(p.Scale, 0.04)
		p.Queries = minI(p.Queries, 2)
	}
	return p
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type runner func(context.Context, Params) (Table, error)

var registry = map[string]runner{}
var order []string

func register(id string, fn runner) {
	registry[id] = fn
	order = append(order, id)
}

// IDs lists registered experiment IDs in registration order.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id. Cancelling ctx aborts the
// experiment at the next query boundary (the underlying solvers return a
// partial solution with an error wrapping ctx.Err(), which Run propagates).
func Run(ctx context.Context, id string, p Params) (Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fn, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return fn(ctx, p.withDefaults())
}

// loadDS loads a dataset stand-in at the parameterized scale.
func loadDS(name string, p Params) (*ugraph.Graph, error) {
	return datasets.Load(name, p.Scale, p.Seed)
}

// measured wraps a computation, returning its wall time and allocation
// volume (a portable stand-in for the paper's memory-usage column).
func measured(fn func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return elapsed, allocMB
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

func mb(x float64) string { return fmt.Sprintf("%.1f", x) }
