package paths

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/candidates"
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// allSimplePaths enumerates every simple s-t path by DFS (test oracle).
func allSimplePaths(g *ugraph.Graph, s, t ugraph.NodeID) []Path {
	var out []Path
	onPath := make([]bool, g.N())
	var nodes []ugraph.NodeID
	var edges []int32
	var dfs func(u ugraph.NodeID, prob float64)
	dfs = func(u ugraph.NodeID, prob float64) {
		if u == t {
			p := Path{Nodes: append([]ugraph.NodeID(nil), nodes...), Edges: append([]int32(nil), edges...), Prob: prob}
			out = append(out, p)
			return
		}
		for _, a := range g.Out(u) {
			if onPath[a.To] || g.Prob(a.EID) <= 0 {
				continue
			}
			onPath[a.To] = true
			nodes = append(nodes, a.To)
			edges = append(edges, a.EID)
			dfs(a.To, prob*g.Prob(a.EID))
			onPath[a.To] = false
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
		}
	}
	onPath[s] = true
	nodes = append(nodes, s)
	dfs(s, 1)
	return out
}

func randomGraph(r *rand.Rand, n, m int, directed bool) *ugraph.Graph {
	g := ugraph.New(n, directed)
	for attempts := 0; attempts < 4*m && g.M() < m; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.85*r.Float64())
	}
	return g
}

func TestMostReliableSimple(t *testing.T) {
	// 0→1→3 has prob 0.9*0.9=0.81; 0→2→3 has 0.99*0.5=0.495;
	// direct 0→3 has 0.7.
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 3, 0.9)
	g.MustAddEdge(0, 2, 0.99)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(0, 3, 0.7)
	p, ok := MostReliable(g, 0, 3)
	if !ok {
		t.Fatal("no path found")
	}
	if math.Abs(p.Prob-0.81) > 1e-12 {
		t.Fatalf("Prob = %v, want 0.81", p.Prob)
	}
	want := []ugraph.NodeID{0, 1, 3}
	if len(p.Nodes) != 3 || p.Nodes[0] != want[0] || p.Nodes[1] != want[1] || p.Nodes[2] != want[2] {
		t.Fatalf("Nodes = %v, want %v", p.Nodes, want)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("Edges = %v", p.Edges)
	}
	if w := p.Weight(); math.Abs(w-(-math.Log(0.81))) > 1e-12 {
		t.Fatalf("Weight = %v", w)
	}
}

func TestMostReliableUnreachable(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if _, ok := MostReliable(g, 0, 2); ok {
		t.Fatal("found path to unreachable node")
	}
	// Zero-probability edges do not count as connectivity.
	g.MustAddEdge(1, 2, 0)
	if _, ok := MostReliable(g, 0, 2); ok {
		t.Fatal("traversed zero-probability edge")
	}
}

// byClass returns ps sorted by classLess.
func byClass(ps []Path) []Path {
	sort.SliceStable(ps, func(i, j int) bool { return classLess(ps[i], ps[j]) })
	return ps
}

// TestTopLMatchesBruteForce pins TopL to every simple path sorted by
// class. Odd trials draw probabilities from a few dyadic values, so exact
// ties are common and the enumeration's order decides which paths make
// the cut.
func TestTopLMatchesBruteForce(t *testing.T) {
	r := rng.New(42)
	dyadic := []float64{0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 7, 14, trial%2 == 0)
		if trial%2 == 1 {
			for eid := int32(0); eid < int32(g.M()); eid++ {
				if err := g.SetProb(eid, dyadic[r.Intn(len(dyadic))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		s, tt := ugraph.NodeID(0), ugraph.NodeID(6)
		all := byClass(allSimplePaths(g, s, tt))
		for _, l := range []int{1, 3, 10} {
			want := all[:min(l, len(all))]
			samePool(t, fmt.Sprintf("trial %d l=%d", trial, l), g, TopL(context.Background(), g, s, tt, l), want)
		}
	}
}

// TestTopLLastULP pins the order where the −log sums the search ranks by
// and the products disagree by one unit in the last place, on paths 0→2
// (edge a) and 0→1→2 (edges b, c), the one-hop path with the smaller sum
// and the smaller product. Within one bin the enumeration's order, led by
// the sums, puts the one-hop path first; across a bin edge the products
// put the two-hop path first.
func TestTopLLastULP(t *testing.T) {
	const b1, c1 = 0.366, 0.328
	e := 0.11635911464691162
	for _, fx := range []struct {
		name    string
		a, b, c float64
		first   int // hops of the path that must come first
	}{
		{"one bin", math.Nextafter(b1*c1, 0), b1, c1, 1},
		{"bin edge", math.Nextafter(e, 0), 0.12016002460559827, 0.9683679329197676, 2},
	} {
		a, b, c := fx.a, fx.b, fx.c
		if -math.Log(a) >= -math.Log(b)-math.Log(c) || a >= b*c {
			t.Fatalf("%s: fixture: the one-hop path no longer has the smaller sum and product", fx.name)
		}
		if sameBin := binOf(a) == binOf(b*c); sameBin != (fx.first == 1) {
			t.Fatalf("%s: fixture: same bin %v", fx.name, sameBin)
		}
		for _, directed := range []bool{true, false} {
			g := ugraph.New(3, directed)
			g.MustAddEdge(0, 2, a)
			g.MustAddEdge(0, 1, b)
			g.MustAddEdge(1, 2, c)
			label := fmt.Sprintf("%s directed=%v", fx.name, directed)
			got := TopL(context.Background(), g, 0, 2, 1)
			if len(got) != 1 || len(got[0].Edges) != fx.first {
				t.Fatalf("%s: top path %v, want the %d-hop one", label, got, fx.first)
			}
			samePool(t, label+" l=1", g, got, referenceTopL(g, 0, 2, 1))
			samePool(t, label+" l=2", g, TopL(context.Background(), g, 0, 2, 2), byClass(allSimplePaths(g, 0, 2)))
		}
	}
}

// TestTopLGridTieBandCapped runs TopL on a 12×12 grid whose edges all
// carry one probability p, so its 705,432 shortest corner-to-corner paths
// tie exactly. At p = 0.5 their probability lies far from the next bin,
// and the enumeration stops after the first l. At p = 0.523341 it lies
// 1.8e-9 below the next bin's lower end, closer than the sums can tell,
// so the enumeration must go on through the tied paths until it stops at
// bandCap. Either way it returns l shortest paths, the same on every call.
// The grid again, with the two edges at the corner s left to a pair set
// (s to both neighbours, ζ = p), checks that TopLPairs still returns what
// TopL returns on G+, past the cap too.
func TestTopLGridTieBandCapped(t *testing.T) {
	const k, l = 12, 30
	for _, tc := range []struct {
		p        float64
		accepted int
	}{{0.5, l}, {0.523341, l + bandCap}} {
		grid := func(skip func(u, v int) bool) *ugraph.Graph {
			g := ugraph.New(k*k, false)
			for v := 0; v < k*k; v++ {
				if v%k+1 < k && !skip(v, v+1) {
					g.MustAddEdge(ugraph.NodeID(v), ugraph.NodeID(v+1), tc.p)
				}
				if v+k < k*k && !skip(v, v+k) {
					g.MustAddEdge(ugraph.NodeID(v), ugraph.NodeID(v+k), tc.p)
				}
			}
			return g
		}
		g := grid(func(u, v int) bool { return false })
		sr := newSearcher(g, nil)
		got := sr.topL(context.Background(), 0, k*k-1, l)
		accepted := len(sr.paths)
		sr.release()
		if accepted != tc.accepted {
			t.Fatalf("p=%v: %d paths accepted, want %d", tc.p, accepted, tc.accepted)
		}
		if len(got) != l {
			t.Fatalf("p=%v: %d paths, want %d", tc.p, len(got), l)
		}
		for i, p := range got {
			if len(p.Edges) != 2*(k-1) || p.Prob != got[0].Prob {
				t.Fatalf("p=%v: path %d: %d hops, p=%v; want a shortest path", tc.p, i, len(p.Edges), p.Prob)
			}
		}
		samePaths(t, fmt.Sprintf("p=%v second call", tc.p), TopL(context.Background(), g, 0, k*k-1, l), got)

		g = grid(func(u, v int) bool { return u == 0 })
		set := candidates.NewPairs(g, []ugraph.NodeID{0}, []ugraph.NodeID{k, 1}, candidates.Options{Zeta: tc.p})
		pairs := TopLPairs(context.Background(), g, set, 0, k*k-1, l)
		if len(pairs) != l || pairs[l-1].Prob != got[l-1].Prob {
			t.Fatalf("p=%v pair set: %d paths, the last p=%v", tc.p, len(pairs), pairs[len(pairs)-1].Prob)
		}
		samePaths(t, fmt.Sprintf("p=%v pair set", tc.p), pairs, TopL(context.Background(), g.WithEdges(set.List()), 0, k*k-1, l))
	}
}

// TestTopLTiesSpreadFirstHops pins the tie order on six tied three-hop
// paths s–{a,b,c}–{x,y}–t, all edges p = 0.5. The tree path, here
// s–c–x–t, comes first; its deviations at s, over the lower edge ID
// first, come before the one at c, so the top three leave s over three
// different edges (node-sequence order would take s–a–x–t, s–a–y–t,
// s–b–x–t). The deviations at the second node follow, in the order of
// the paths they leave.
func TestTopLTiesSpreadFirstHops(t *testing.T) {
	const s, a, b, c, x, y, tt = 0, 1, 2, 3, 4, 5, 6
	g := ugraph.New(7, false)
	for _, e := range [][2]ugraph.NodeID{{s, a}, {s, b}, {s, c}, {a, x}, {a, y}, {b, x}, {b, y}, {c, x}, {c, y}, {x, tt}, {y, tt}} {
		g.MustAddEdge(e[0], e[1], 0.5)
	}
	want := [][]ugraph.NodeID{{s, c, x, tt}, {s, a, x, tt}, {s, b, x, tt}, {s, c, y, tt}, {s, a, y, tt}, {s, b, y, tt}}
	for _, l := range []int{3, 6} {
		got := TopL(context.Background(), g, s, tt, l)
		if len(got) != l {
			t.Fatalf("l=%d: %d paths", l, len(got))
		}
		for i, p := range got {
			if !slices.Equal(p.Nodes, want[i]) {
				t.Fatalf("l=%d: path %d = %v, want %v", l, i, p.Nodes, want[i])
			}
		}
		samePool(t, fmt.Sprintf("l=%d", l), g, got, referenceTopL(g, s, tt, l))
	}
}

// countdown is a context whose Err turns non-nil on its n-th call.
type countdown struct {
	context.Context
	n int
}

func (c *countdown) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestTopLCancelledIsCanonicalPrefix cancels the enumeration after each
// number of accepted paths in turn, and checks that it returns a prefix of
// the full answer: the paths it has proved to come first, however few.
func TestTopLCancelledIsCanonicalPrefix(t *testing.T) {
	dyadic := []float64{0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		g := randomGraph(r, 9, 20, trial%2 == 0)
		if trial%4 >= 2 {
			for eid := int32(0); eid < int32(g.M()); eid++ {
				if err := g.SetProb(eid, dyadic[r.Intn(len(dyadic))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		full := TopL(context.Background(), g, 0, 8, 10)
		for n := 1; n <= 12; n++ {
			got := TopL(&countdown{context.Background(), n}, g, 0, 8, 10)
			if len(got) > len(full) {
				t.Fatalf("trial %d n=%d: cancelled run returned %d paths, full run %d", trial, n, len(got), len(full))
			}
			samePaths(t, fmt.Sprintf("trial %d n=%d", trial, n), got, full[:len(got)])
		}
	}
}

func TestTopLPathsAreSimpleAndOrdered(t *testing.T) {
	r := rng.New(55)
	g := randomGraph(r, 12, 30, false)
	got := TopL(context.Background(), g, 0, 11, 20)
	prev := math.Inf(1)
	for _, p := range got {
		if p.Prob > prev+1e-12 {
			t.Fatalf("paths out of order: %v after %v", p.Prob, prev)
		}
		prev = p.Prob
		seen := map[ugraph.NodeID]bool{}
		for _, v := range p.Nodes {
			if seen[v] {
				t.Fatalf("non-simple path %v", p.Nodes)
			}
			seen[v] = true
		}
		// Edges must connect consecutive nodes and multiply to Prob.
		prob := 1.0
		for i, eid := range p.Edges {
			e := g.Endpoints(eid)
			u, v := p.Nodes[i], p.Nodes[i+1]
			if !(e.U == u && e.V == v) && !(!g.Directed() && e.U == v && e.V == u) {
				t.Fatalf("edge %d does not connect %d-%d: %+v", eid, u, v, e)
			}
			prob *= e.P
		}
		if math.Abs(prob-p.Prob) > 1e-12 {
			t.Fatalf("Prob mismatch: %v vs %v", prob, p.Prob)
		}
	}
}

func TestTopLEdgeCases(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if got := TopL(context.Background(), g, 0, 2, 5); got != nil {
		t.Fatalf("unreachable target returned %v", got)
	}
	if got := TopL(context.Background(), g, 0, 1, 0); got != nil {
		t.Fatalf("l=0 returned %v", got)
	}
	got := TopL(context.Background(), g, 0, 1, 5)
	if len(got) != 1 || got[0].Prob != 0.5 {
		t.Fatalf("single path graph: %v", got)
	}
}

// TestMRPFigure3 checks Algorithm 3 on the Figure 3 example: undirected
// edges A-B and A-t with probability α; candidates sA, sB, Bt with
// probability ζ.
func TestMRPFigure3(t *testing.T) {
	const s, a, b, tt = 0, 1, 2, 3
	build := func(alpha float64) *ugraph.Graph {
		g := ugraph.New(4, false)
		g.MustAddEdge(a, b, alpha)
		g.MustAddEdge(a, tt, alpha)
		return g
	}
	candidates := func(zeta float64) []ugraph.Edge {
		return []ugraph.Edge{{U: s, V: a, P: zeta}, {U: s, V: b, P: zeta}, {U: b, V: tt, P: zeta}}
	}
	// k=1, any (α, ζ): best single red edge is sA giving path prob α·ζ.
	res := ImproveMostReliablePath(context.Background(), build(0.5), candidates(0.7), s, tt, 1)
	if res.BaseProb != 0 {
		t.Fatalf("BaseProb = %v, want 0", res.BaseProb)
	}
	if math.Abs(res.Prob-0.5*0.7) > 1e-12 {
		t.Fatalf("k=1 Prob = %v, want 0.35", res.Prob)
	}
	if len(res.Chosen) != 1 || res.Chosen[0].U != s || res.Chosen[0].V != a {
		t.Fatalf("k=1 Chosen = %v, want {sA}", res.Chosen)
	}
	// k=2, α=0.5, ζ=0.7: path s-B-t with two red edges has prob 0.49 >
	// 0.35, so MRP picks {sB, Bt}.
	res = ImproveMostReliablePath(context.Background(), build(0.5), candidates(0.7), s, tt, 2)
	if math.Abs(res.Prob-0.49) > 1e-12 {
		t.Fatalf("k=2 Prob = %v, want 0.49", res.Prob)
	}
	if len(res.Chosen) != 2 {
		t.Fatalf("k=2 Chosen = %v", res.Chosen)
	}
	// k=2, α=0.9, ζ=0.5: single red path sA·At = 0.45 beats ζ² = 0.25.
	res = ImproveMostReliablePath(context.Background(), build(0.9), candidates(0.5), s, tt, 2)
	if math.Abs(res.Prob-0.45) > 1e-12 {
		t.Fatalf("α=0.9 Prob = %v, want 0.45", res.Prob)
	}
	if len(res.Chosen) != 1 {
		t.Fatalf("α=0.9 Chosen = %v, want one edge", res.Chosen)
	}
}

func TestMRPNoImprovementNeeded(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 2, 0.95)
	g.MustAddEdge(0, 1, 0.5)
	res := ImproveMostReliablePath(context.Background(), g, []ugraph.Edge{{U: 1, V: 2, P: 0.5}}, 0, 2, 3)
	if len(res.Chosen) != 0 {
		t.Fatalf("Chosen = %v, want none (direct edge already best)", res.Chosen)
	}
	if math.Abs(res.Prob-0.95) > 1e-12 || math.Abs(res.BaseProb-0.95) > 1e-12 {
		t.Fatalf("Prob/BaseProb = %v/%v, want 0.95", res.Prob, res.BaseProb)
	}
}

func TestMRPUnreachableEvenWithCandidates(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.5)
	res := ImproveMostReliablePath(context.Background(), g, []ugraph.Edge{{U: 1, V: 2, P: 0.5}}, 0, 3, 2)
	if res.Prob != 0 || len(res.Chosen) != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestMRPRespectsBudget(t *testing.T) {
	// Chain s→a→b→t entirely of candidates: needs 3 red edges. With k=2
	// there is no path at all.
	g := ugraph.New(4, true)
	cand := []ugraph.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.9}}
	res := ImproveMostReliablePath(context.Background(), g, cand, 0, 3, 2)
	if res.Prob != 0 {
		t.Fatalf("budget 2 found prob %v over a 3-red-edge chain", res.Prob)
	}
	res = ImproveMostReliablePath(context.Background(), g, cand, 0, 3, 3)
	if math.Abs(res.Prob-0.729) > 1e-12 || len(res.Chosen) != 3 {
		t.Fatalf("budget 3: %+v", res)
	}
}

func TestMRPDirectedCandidateOrientation(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.9)
	// Candidate points the wrong way in a directed graph: unusable.
	res := ImproveMostReliablePath(context.Background(), g, []ugraph.Edge{{U: 2, V: 1, P: 0.9}}, 0, 2, 1)
	if res.Prob != 0 {
		t.Fatalf("wrong-direction candidate used: %+v", res)
	}
	// Same candidate in an undirected graph is usable.
	ug := ugraph.New(3, false)
	ug.MustAddEdge(0, 1, 0.9)
	res = ImproveMostReliablePath(context.Background(), ug, []ugraph.Edge{{U: 2, V: 1, P: 0.9}}, 0, 2, 1)
	if math.Abs(res.Prob-0.81) > 1e-12 {
		t.Fatalf("undirected candidate: %+v", res)
	}
}

// TestMRPMatchesBruteForce cross-validates Algorithm 3 against exhaustive
// subset enumeration on random instances.
func TestMRPMatchesBruteForce(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 6, 8, trial%2 == 0)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(5)
		var cands []ugraph.Edge
		for attempts := 0; attempts < 30 && len(cands) < 5; attempts++ {
			u := ugraph.NodeID(r.Intn(6))
			v := ugraph.NodeID(r.Intn(6))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, c := range cands {
				if (c.U == u && c.V == v) || (!g.Directed() && c.U == v && c.V == u) {
					dup = true
					break
				}
			}
			if !dup {
				cands = append(cands, ugraph.Edge{U: u, V: v, P: 0.3 + 0.6*r.Float64()})
			}
		}
		const k = 2
		best := 0.0
		for mask := 0; mask < 1<<len(cands); mask++ {
			chosen := []ugraph.Edge{}
			for i := range cands {
				if mask&(1<<i) != 0 {
					chosen = append(chosen, cands[i])
				}
			}
			if len(chosen) > k {
				continue
			}
			if p, ok := MostReliable(g.WithEdges(chosen), s, tt); ok && p.Prob > best {
				best = p.Prob
			}
		}
		res := ImproveMostReliablePath(context.Background(), g, cands, s, tt, k)
		if math.Abs(res.Prob-best) > 1e-9 {
			t.Fatalf("trial %d: layered %v, brute force %v", trial, res.Prob, best)
		}
	}
}
