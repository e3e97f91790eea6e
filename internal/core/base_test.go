package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// baseFixture is a query on which every Problem 1 method runs, MethodExact
// included (R = 5 keeps E+ at 25 edges or fewer).
type baseFixture struct {
	name string
	g    *ugraph.Graph
	s, t ugraph.NodeID
	opt  Options
}

func baseFixtures() []baseFixture {
	opt := Options{K: 2, Zeta: 0.5, R: 5, L: 8, Z: 300, Seed: 3, Workers: 1}
	r := rng.New(21)
	directed := gen.ErdosRenyi(30, 90, true, r)
	gen.AssignUniform(directed, 0.2, 0.8, r)
	return []baseFixture{
		{name: "undirected", g: buildTestGraph(5), s: 0, t: 39, opt: opt},
		{name: "directed", g: directed, s: 0, t: 29, opt: opt},
	}
}

// Edges the selection stages chose on baseFixtures before Base moved onto
// the elimination vectors. Selection runs before evaluation and draws on
// the selection streams (1 for Solve, 5 for total-budget) and 7 only, so
// moving Base must leave every one of them as is.
var wantBaseFixtureEdges = map[string]string{
	"undirected/topk":             "[{0 39 0.5} {0 1 0.5}]",
	"undirected/hc":               "[{0 39 0.5} {0 1 0.5}]",
	"undirected/degree":           "[{33 13 0.5} {33 1 0.5}]",
	"undirected/betweenness":      "[{33 13 0.5} {33 1 0.5}]",
	"undirected/eigen":            "[{33 13 0.5} {33 7 0.5}]",
	"undirected/mrp":              "[{0 39 0.5}]",
	"undirected/ip":               "[{0 39 0.5} {0 1 0.5}]",
	"undirected/be":               "[{0 39 0.5} {0 1 0.5}]",
	"undirected/exact":            "[{0 39 0.5} {0 7 0.5}]",
	"undirected/total-budget-0.5": "[{0 39 0.5}]",
	"undirected/total-budget-1.5": "[{0 1 0.525} {0 39 0.9749999999999998}]",
	"directed/topk":               "[{0 29 0.5} {0 20 0.5}]",
	"directed/hc":                 "[{0 29 0.5} {3 29 0.5}]",
	"directed/degree":             "[{3 10 0.5} {7 10 0.5}]",
	"directed/betweenness":        "[{19 10 0.5} {19 29 0.5}]",
	"directed/eigen":              "[{0 29 0.5} {4 29 0.5}]",
	"directed/mrp":                "[{0 29 0.5}]",
	"directed/ip":                 "[{0 29 0.5} {0 20 0.5}]",
	"directed/be":                 "[{0 29 0.5} {0 20 0.5}]",
	"directed/exact":              "[{0 29 0.5} {0 20 0.5}]",
	"directed/total-budget-0.5":   "[{0 29 0.5}]",
	"directed/total-budget-1.5":   "[{0 20 0.525} {0 29 0.9749999999999998}]",
}

// elimBase is Base as Algorithm 4's vectors give it: the mean of
// FromRel[t] and ToRel[s] from candidates.Eliminate on the stream-7 mcvec
// sampler.
func elimBase(t *testing.T, g *ugraph.Graph, s, dst ugraph.NodeID, opt Options) float64 {
	t.Helper()
	opt = opt.withDefaults()
	elim, err := opt.elimSampler(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := candidates.Eliminate(g, s, dst, elim, candidates.Options{R: opt.R, H: opt.H, Zeta: opt.Zeta})
	return (res.FromRel[dst] + res.ToRel[s]) / 2
}

// heldOutAfter is After as the evaluation stream gives it when Base costs
// it no call: the first estimate of a fresh sampler on that stream.
func heldOutAfter(t *testing.T, g *ugraph.Graph, s, dst ugraph.NodeID, edges []ugraph.Edge, opt Options, stream int64) float64 {
	t.Helper()
	eval, err := opt.withDefaults().NewSampler(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	return eval.ReliabilityCSR(g.Freeze().WithEdges(edges), s, dst)
}

// TestBaseFromEliminationVectors: when Algorithm 4 runs, Solve (every
// method) and SolveTotalBudget report Base as the mean of the elimination
// vectors' two estimates, sample only After on the evaluation stream, and
// choose the edges they chose when Base was sampled.
func TestBaseFromEliminationVectors(t *testing.T) {
	ctx := context.Background()
	for _, fx := range baseFixtures() {
		want := elimBase(t, fx.g, fx.s, fx.t, fx.opt)
		if want <= 0 || want >= 1 {
			t.Fatalf("%s: elimination Base %v; the fixture needs a reliability strictly inside (0, 1)", fx.name, want)
		}
		for _, m := range Methods() {
			sol, err := Solve(ctx, fx.g, fx.s, fx.t, m, fx.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, m, err)
			}
			if sol.Base != want {
				t.Errorf("%s/%s: Base = %v, want the elimination estimate %v", fx.name, m, sol.Base, want)
			}
			if after := heldOutAfter(t, fx.g, fx.s, fx.t, sol.Edges, fx.opt, 2); sol.After != after || sol.Gain != sol.After-sol.Base {
				t.Errorf("%s/%s: After/Gain = %v/%v, want %v/%v", fx.name, m, sol.After, sol.Gain, after, after-want)
			}
			key := fmt.Sprintf("%s/%s", fx.name, m)
			if got := fmt.Sprint(sol.Edges); got != wantBaseFixtureEdges[key] {
				t.Errorf("%s: Edges = %s, want %s", key, got, wantBaseFixtureEdges[key])
			}
		}
		for _, budget := range []float64{0.5, 1.5} {
			sol, err := SolveTotalBudget(ctx, fx.g, fx.s, fx.t, budget, fx.opt)
			if err != nil {
				t.Fatalf("%s/total-budget %v: %v", fx.name, budget, err)
			}
			// The nominal ζ moves the candidates, not the vectors on G.
			if sol.Base != want {
				t.Errorf("%s/total-budget %v: Base = %v, want the elimination estimate %v", fx.name, budget, sol.Base, want)
			}
			if after := heldOutAfter(t, fx.g, fx.s, fx.t, sol.Edges, fx.opt, 6); sol.After != after {
				t.Errorf("%s/total-budget %v: After = %v, want %v", fx.name, budget, sol.After, after)
			}
			key := fmt.Sprintf("%s/total-budget-%v", fx.name, budget)
			if got := fmt.Sprint(sol.Edges); got != wantBaseFixtureEdges[key] {
				t.Errorf("%s: Edges = %s, want %s", key, got, wantBaseFixtureEdges[key])
			}
		}
	}
}

// TestElimBaseAccuracy: on small graphs where ugraph's exact reliability
// runs, the elimination Base over seeds 1–40 is unbiased (its mean within 3
// standard errors of exact on every graph), and its spread, as the mean
// over graphs of each estimator's standard deviation, is no worse than that
// of the stream-2 RSS Base it replaced at the same Z.
func TestElimBaseAccuracy(t *testing.T) {
	ctx := context.Background()
	const seeds = 40
	var sdElim, sdRSS float64
	shapes := []struct {
		n, m     int
		directed bool
	}{{10, 18, false}, {12, 22, false}, {10, 20, true}, {14, 24, true}, {8, 14, false}}
	for gi, sh := range shapes {
		r := rng.New(int64(gi + 3))
		g := gen.ErdosRenyi(sh.n, sh.m, sh.directed, r)
		gen.AssignUniform(g, 0.2, 0.8, r)
		s, dst := ugraph.NodeID(0), ugraph.NodeID(sh.n-1)
		exact, err := g.ExactReliability(s, dst)
		if err != nil {
			t.Fatal(err)
		}
		var elim, rss []float64
		for seed := int64(1); seed <= seeds; seed++ {
			opt := Options{K: 1, R: 6, L: 5, Seed: seed, Workers: 1}.withDefaults()
			sol, err := Solve(ctx, g, s, dst, MethodDegree, opt)
			if err != nil {
				t.Fatal(err)
			}
			elim = append(elim, sol.Base)
			eval, err := opt.NewSampler(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			rss = append(rss, eval.Reliability(g, s, dst))
		}
		mean, sd := meanSD(elim)
		if se := sd / math.Sqrt(seeds); math.Abs(mean-exact) > 3*se {
			t.Errorf("graph %d: mean elimination Base %.4f is %.1f SE from exact %.4f", gi, mean, math.Abs(mean-exact)/se, exact)
		}
		_, sdR := meanSD(rss)
		sdElim += sd / float64(len(shapes))
		sdRSS += sdR / float64(len(shapes))
	}
	if sdElim > sdRSS {
		t.Errorf("mean sd of the elimination Base %.4f exceeds the RSS Base's %.4f", sdElim, sdRSS)
	}
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// Base and Edges at explicit candidates and at NoElimination, where no
// elimination vectors exist and Base is sampled on the evaluation stream as
// it always was.
var wantSampledBase = map[string]string{
	"explicit/be":                 "0.45948135653554156 0.8116821882357708 [{0 11 0.5} {5 11 0.4}]",
	"explicit/total-budget":       "0.4938655398739894 0.9999999999999998 [{0 11 1}]",
	"no-elimination/be":           "0.45948135653554156 0.8776674489888326 [{0 11 0.5} {7 11 0.5}]",
	"no-elimination/total-budget": "0.4938655398739894 0.9999999999999998 [{0 11 1}]",
}

// TestSampledBaseWithoutElimination: explicit candidates and NoElimination
// have no elimination vectors, so Base stays the first estimate of the
// evaluation stream, bit-identical to what it was, for Solve and
// SolveTotalBudget.
func TestSampledBaseWithoutElimination(t *testing.T) {
	ctx := context.Background()
	r := rng.New(4)
	g := gen.ErdosRenyi(12, 20, false, r)
	gen.AssignUniform(g, 0.2, 0.8, r)
	opt := Options{K: 2, L: 8, Z: 300, Seed: 3, Workers: 1}
	explicit, noElim := opt, opt
	explicit.Candidates = []ugraph.Edge{{U: 0, V: 11}, {U: 0, V: 5, P: 0.7}, {U: 3, V: 11}, {U: 5, V: 11, P: 0.4}}
	noElim.NoElimination = true
	cases := []struct {
		name string
		opt  Options
	}{{"explicit", explicit}, {"no-elimination", noElim}}
	for _, c := range cases {
		sampled := func(stream int64) float64 {
			eval, err := c.opt.withDefaults().NewSampler(ctx, stream)
			if err != nil {
				t.Fatal(err)
			}
			return eval.Reliability(g, 0, 11)
		}
		sol, err := Solve(ctx, g, 0, 11, MethodBE, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := sampled(2); sol.Base != want {
			t.Errorf("%s: Base = %v, want the sampled %v", c.name, sol.Base, want)
		}
		if got, key := fmt.Sprint(sol.Base, sol.After, sol.Edges), c.name+"/be"; got != wantSampledBase[key] {
			t.Errorf("%s: Base After Edges = %s, want %s", key, got, wantSampledBase[key])
		}
		tb, err := SolveTotalBudget(ctx, g, 0, 11, 1.0, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := sampled(6); tb.Base != want {
			t.Errorf("%s/total-budget: Base = %v, want the sampled %v", c.name, tb.Base, want)
		}
		if got, key := fmt.Sprint(tb.Base, tb.After, tb.Edges), c.name+"/total-budget"; got != wantSampledBase[key] {
			t.Errorf("%s: Base After Edges = %s, want %s", key, got, wantSampledBase[key])
		}
	}
}
