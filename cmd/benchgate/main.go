// Command benchgate turns raw `go test -bench` output into a CI verdict.
// It parses one or two benchmark result files (as written by the Makefile's
// bench-baseline / bench-compare targets), reduces the -count repetitions
// of each benchmark to medians, and then:
//
//   - fails when any benchmark in -new regressed more than -threshold
//     against the same benchmark in -old (the benchstat table is for
//     humans; this check is the machine gate),
//   - fails when a -faster assertion "A<B" does not hold on -new medians
//     (used to prove parallel speedup, e.g. w4 < w1 wall-clock); the form
//     "A<B@5" requires A to be at least 5x faster than B,
//   - writes twin-pair artifacts: each maps every benchmark to its twin,
//     the same benchmark name with one path segment swapped, with both
//     sides' ns/op, the speedup over the twin, allocs/op, and, when both
//     sides report the samples/op custom metric, both samples/op and the
//     fraction of the twin's samples saved. -speedup-json pairs vector MC
//     with scalar MC ("mcvec" → "mc"), -anytime-json adaptive estimates
//     with the fixed budget they are capped at ("adaptive" → "fixed"), and
//     -apply-json delta commits with full clone+refreeze rebuilds
//     ("delta" → "clone"),
//   - renders a markdown summary (-markdown) suitable for
//     $GITHUB_STEP_SUMMARY.
//
// Exit status: 0 when all gates pass, 1 on a regression or failed
// assertion, 2 on usage or parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result accumulates the repeated runs (-count N) of one benchmark.
type result struct {
	nsOp      []float64
	allocsOp  []float64
	samplesOp []float64 // the anytime benchmarks' b.ReportMetric output
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkVectorMC/from/mcvec/n256-4   160   1546624 ns/op   2048 B/op   1 allocs/op
//
// The trailing -4 is GOMAXPROCS, not part of the benchmark's identity.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads `go test -bench` output, keyed by benchmark name with
// the GOMAXPROCS suffix stripped, accumulating one entry per run.
func parseBench(r io.Reader) (map[string]*result, error) {
	out := make(map[string]*result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := out[m[1]]
		if res == nil {
			res = &result{}
			out[m[1]] = res
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", m[1], fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				res.nsOp = append(res.nsOp, v)
			case "allocs/op":
				res.allocsOp = append(res.allocsOp, v)
			case "samples/op":
				res.samplesOp = append(res.samplesOp, v)
			}
		}
	}
	return out, sc.Err()
}

// median reduces a benchmark's repeated runs to a robust central value.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// delta is one benchmark's old-vs-new comparison.
type delta struct {
	name     string
	oldNs    float64
	newNs    float64
	ratio    float64 // newNs/oldNs - 1; positive means slower
	regessed bool
}

// compare pairs the benchmarks present in both files and flags every one
// whose median slowed down by more than threshold. Benchmarks present in
// only one file (added or removed by the change) are skipped: the gate
// judges regressions, not coverage.
func compare(old, new map[string]*result, threshold float64) []delta {
	var out []delta
	for name, n := range new {
		o, ok := old[name]
		if !ok {
			continue
		}
		om, nm := median(o.nsOp), median(n.nsOp)
		if math.IsNaN(om) || math.IsNaN(nm) || om == 0 {
			continue
		}
		r := nm/om - 1
		out = append(out, delta{name: name, oldNs: om, newNs: nm, ratio: r, regessed: r > threshold})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fasterAssert is a parsed "A<B" or "A<B@factor" assertion on new-file
// medians: A's median ns/op times factor must stay below B's.
type fasterAssert struct {
	faster, slower string
	factor         float64
}

func parseFaster(spec string) (fasterAssert, error) {
	factor := 1.0
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		f, err := strconv.ParseFloat(strings.TrimSpace(spec[at+1:]), 64)
		if err != nil || f <= 0 {
			return fasterAssert{}, fmt.Errorf("bad -faster spec %q: factor after @ must be a positive number", spec)
		}
		factor, spec = f, spec[:at]
	}
	parts := strings.Split(spec, "<")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fasterAssert{}, fmt.Errorf("bad -faster spec %q: want A<B or A<B@factor", spec)
	}
	return fasterAssert{
		faster: strings.TrimSpace(parts[0]),
		slower: strings.TrimSpace(parts[1]),
		factor: factor,
	}, nil
}

// checkFaster returns an error when the assertion's left benchmark is not
// strictly faster (lower median ns/op, by the asserted factor) than its
// right one.
func checkFaster(results map[string]*result, a fasterAssert) error {
	fr, ok := results[a.faster]
	if !ok {
		return fmt.Errorf("faster assertion: benchmark %q not found", a.faster)
	}
	sr, ok := results[a.slower]
	if !ok {
		return fmt.Errorf("faster assertion: benchmark %q not found", a.slower)
	}
	factor := a.factor
	if factor <= 0 { // zero value: a plain A<B assertion
		factor = 1
	}
	fm, sm := median(fr.nsOp), median(sr.nsOp)
	if !(fm*factor < sm) {
		if factor != 1 {
			return fmt.Errorf("faster assertion failed: %s (%.0f ns/op) not %gx faster than %s (%.0f ns/op)", a.faster, fm, factor, a.slower, sm)
		}
		return fmt.Errorf("faster assertion failed: %s (%.0f ns/op) not faster than %s (%.0f ns/op)", a.faster, fm, a.slower, sm)
	}
	return nil
}

// twinArtifacts are the twin-pair artifacts: the flag naming each output
// file, and the path segment that tells a benchmark from its twin.
var twinArtifacts = []struct{ flag, seg, twinSeg, usage string }{
	{"speedup-json", "mcvec", "mc", "write the mcvec-vs-mc speedup artifact to this path"},
	{"anytime-json", "adaptive", "fixed", "write the adaptive-vs-fixed anytime artifact to this path"},
	{"apply-json", "delta", "clone", "write the delta-vs-clone mutation-commit artifact to this path"},
}

// pair is one benchmark's comparison against its twin.
type pair struct {
	Name        string  `json:"name"`
	Twin        string  `json:"twin"`
	NsPerOp     float64 `json:"ns_per_op"`
	TwinNsPerOp float64 `json:"twin_ns_per_op"`
	Speedup     float64 `json:"speedup"` // TwinNsPerOp / NsPerOp
	// AllocsPerOp is set when the benchmark reports allocs/op, and
	// Samples when both sides report samples/op.
	AllocsPerOp *float64    `json:"allocs_per_op,omitempty"`
	Samples     *samplesCmp `json:"samples,omitempty"`
}

type samplesCmp struct {
	PerOp     float64 `json:"per_op"`
	TwinPerOp float64 `json:"twin_per_op"`
	SavedFrac float64 `json:"saved_frac"` // 1 - PerOp/TwinPerOp
}

// twinName rewrites every exact "from" path segment of a benchmark name to
// "to"; empty when the name has no such segment (so substrings never match).
func twinName(name, from, to string) string {
	segs := strings.Split(name, "/")
	hit := false
	for i, s := range segs {
		if s == from {
			segs[i] = to
			hit = true
		}
	}
	if !hit {
		return ""
	}
	return strings.Join(segs, "/")
}

// buildPairs pairs every benchmark holding the seg path segment with its
// twin holding twinSeg there, sorted by name for a stable artifact.
func buildPairs(results map[string]*result, seg, twinSeg string) []pair {
	var out []pair
	for name, res := range results {
		twin := twinName(name, seg, twinSeg)
		if twin == "" {
			continue
		}
		tr, ok := results[twin]
		if !ok {
			continue
		}
		nm, tm := median(res.nsOp), median(tr.nsOp)
		if math.IsNaN(nm) || math.IsNaN(tm) || nm == 0 {
			continue
		}
		p := pair{Name: name, Twin: twin, NsPerOp: nm, TwinNsPerOp: tm, Speedup: tm / nm}
		if a := median(res.allocsOp); !math.IsNaN(a) {
			p.AllocsPerOp = &a
		}
		if ns, ts := median(res.samplesOp), median(tr.samplesOp); !math.IsNaN(ns) && !math.IsNaN(ts) && ts != 0 {
			p.Samples = &samplesCmp{PerOp: ns, TwinPerOp: ts, SavedFrac: 1 - ns/ts}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// pairTable is one twin-pair artifact's rows for the markdown summary.
type pairTable struct {
	seg, twinSeg string
	pairs        []pair
}

// renderMarkdown formats the gate verdict, the regression table and the
// twin-pair tables for a CI job summary.
func renderMarkdown(w io.Writer, deltas []delta, tables []pairTable, fasterErrs []string, threshold float64) {
	failed := len(fasterErrs)
	for _, d := range deltas {
		if d.regessed {
			failed++
		}
	}
	if failed == 0 {
		fmt.Fprintf(w, "## Bench gate: PASS\n\n")
	} else {
		fmt.Fprintf(w, "## Bench gate: FAIL (%d check(s))\n\n", failed)
	}
	for _, e := range fasterErrs {
		fmt.Fprintf(w, "- ❌ %s\n", e)
	}
	if len(deltas) > 0 {
		fmt.Fprintf(w, "\n| benchmark | old ns/op | new ns/op | delta | gate (>%.0f%%) |\n|---|---:|---:|---:|---|\n", threshold*100)
		for _, d := range deltas {
			verdict := "ok"
			if d.regessed {
				verdict = "REGRESSED"
			}
			fmt.Fprintf(w, "| %s | %.0f | %.0f | %+.1f%% | %s |\n", d.name, d.oldNs, d.newNs, d.ratio*100, verdict)
		}
	}
	for _, t := range tables {
		if len(t.pairs) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n| %s benchmark | ns/op | allocs/op | %s ns/op | speedup | samples/op | budget saved |\n|---|---:|---:|---:|---:|---:|---:|\n",
			t.seg, t.twinSeg)
		for _, p := range t.pairs {
			allocs, samples, saved := "—", "—", "—"
			if p.AllocsPerOp != nil {
				allocs = fmt.Sprintf("%.0f", *p.AllocsPerOp)
			}
			if p.Samples != nil {
				samples, saved = fmt.Sprintf("%.0f", p.Samples.PerOp), fmt.Sprintf("%.0f%%", p.Samples.SavedFrac*100)
			}
			fmt.Fprintf(w, "| %s | %.0f | %s | %.0f | %.2fx | %s | %s |\n",
				p.Name, p.NsPerOp, allocs, p.TwinNsPerOp, p.Speedup, samples, saved)
		}
	}
}

// multiFlag collects repeated -faster flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline bench output (optional; enables the regression gate)")
	newPath := fs.String("new", "", "bench output under test (required)")
	threshold := fs.Float64("threshold", 0.10, "fail when a benchmark's median ns/op regresses by more than this fraction")
	artifactPaths := make([]*string, len(twinArtifacts))
	for i, a := range twinArtifacts {
		artifactPaths[i] = fs.String(a.flag, "", a.usage)
	}
	mdPath := fs.String("markdown", "", "write a markdown summary to this path ('-' for stdout)")
	var fasters multiFlag
	fs.Var(&fasters, "faster", "assert benchmark A is faster than B on the new results, as 'A<B' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(stderr, "benchgate: -new is required")
		return 2
	}
	load := func(path string) (map[string]*result, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parseBench(f)
	}
	newRes, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(newRes) == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmark results in %s\n", *newPath)
		return 2
	}

	var deltas []delta
	if *oldPath != "" {
		oldRes, err := load(*oldPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		deltas = compare(oldRes, newRes, *threshold)
	}

	var fasterErrs []string
	for _, spec := range fasters {
		a, err := parseFaster(spec)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		if err := checkFaster(newRes, a); err != nil {
			fasterErrs = append(fasterErrs, err.Error())
		}
	}

	tables := make([]pairTable, len(twinArtifacts))
	for i, a := range twinArtifacts {
		tables[i] = pairTable{a.seg, a.twinSeg, buildPairs(newRes, a.seg, a.twinSeg)}
		path := *artifactPaths[i]
		if path == "" {
			continue
		}
		buf, err := json.MarshalIndent(struct {
			Benchmarks []pair `json:"benchmarks"`
		}{tables[i].pairs}, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: writing %s: %v\n", path, err)
			return 2
		}
	}

	if *mdPath != "" {
		out := stdout
		if *mdPath != "-" {
			f, err := os.Create(*mdPath)
			if err != nil {
				fmt.Fprintf(stderr, "benchgate: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		renderMarkdown(out, deltas, tables, fasterErrs, *threshold)
	}

	failed := false
	for _, d := range deltas {
		if d.regessed {
			failed = true
			fmt.Fprintf(stderr, "benchgate: %s regressed %.1f%% (%.0f -> %.0f ns/op, threshold %.0f%%)\n",
				d.name, d.ratio*100, d.oldNs, d.newNs, *threshold*100)
		}
	}
	for _, e := range fasterErrs {
		failed = true
		fmt.Fprintf(stderr, "benchgate: %s\n", e)
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmark(s) checked, %d compared against baseline, %d faster assertion(s), all within gates\n",
		len(newRes), len(deltas), len(fasters))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
