package ugraph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4, true)
	eid, err := g.AddEdge(0, 1, 0.5)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if eid != 0 {
		t.Fatalf("first edge id = %d, want 0", eid)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) = false after insert")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed HasEdge(1,0) = true, want false")
	}
	if got := g.Prob(eid); got != 0.5 {
		t.Fatalf("Prob = %v, want 0.5", got)
	}
	if g.M() != 1 || g.N() != 4 {
		t.Fatalf("M,N = %d,%d want 1,4", g.M(), g.N())
	}
	e := g.Endpoints(eid)
	if e.U != 0 || e.V != 1 || e.P != 0.5 {
		t.Fatalf("Endpoints = %+v", e)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, false)
	cases := []struct {
		u, v NodeID
		p    float64
	}{
		{0, 0, 0.5},        // self loop
		{-1, 1, 0.5},       // bad source
		{0, 3, 0.5},        // bad target
		{0, 1, -0.1},       // bad probability
		{0, 1, 1.5},        // bad probability
		{0, 1, math.NaN()}, // NaN
	}
	for _, c := range cases {
		if _, err := g.AddEdge(c.u, c.v, c.p); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) succeeded, want error", c.u, c.v, c.p)
		}
	}
	if _, err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatalf("valid AddEdge failed: %v", err)
	}
	if _, err := g.AddEdge(1, 0, 0.4); err == nil {
		t.Error("undirected duplicate (1,0) accepted")
	}
}

func TestUndirectedAdjacencySharesEdgeID(t *testing.T) {
	g := New(3, false)
	eid := g.MustAddEdge(0, 1, 0.3)
	foundFrom0, foundFrom1 := false, false
	for _, a := range g.Out(0) {
		if a.To == 1 && a.EID == eid {
			foundFrom0 = true
		}
	}
	for _, a := range g.Out(1) {
		if a.To == 0 && a.EID == eid {
			foundFrom1 = true
		}
	}
	if !foundFrom0 || !foundFrom1 {
		t.Fatalf("undirected arcs missing shared edge id: %v %v", foundFrom0, foundFrom1)
	}
	if g.M() != 1 {
		t.Fatalf("undirected M = %d, want 1", g.M())
	}
}

func TestInAdjacencyDirected(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 2, 0.9)
	g.MustAddEdge(1, 2, 0.8)
	in := g.In(2)
	if len(in) != 2 {
		t.Fatalf("In(2) has %d arcs, want 2", len(in))
	}
	sources := map[NodeID]bool{}
	for _, a := range in {
		sources[a.To] = true
	}
	if !sources[0] || !sources[1] {
		t.Fatalf("In(2) sources = %v", sources)
	}
}

func TestCloneIsolation(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	c := g.Clone()
	c.MustAddEdge(1, 2, 0.7)
	if err := c.SetProb(0, 0.1); err != nil {
		t.Fatalf("SetProb: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("clone mutation leaked edge into original: M=%d", g.M())
	}
	if g.Prob(0) != 0.5 {
		t.Fatalf("clone SetProb leaked: %v", g.Prob(0))
	}
}

func TestWithEdgesSkipsExisting(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	h := g.WithEdges([]Edge{{U: 1, V: 0, P: 0.9}, {U: 1, V: 2, P: 0.4}})
	if h.M() != 2 {
		t.Fatalf("WithEdges M = %d, want 2", h.M())
	}
	if h.Prob(0) != 0.5 {
		t.Fatalf("existing edge probability overwritten: %v", h.Prob(0))
	}
	if g.M() != 1 {
		t.Fatal("WithEdges mutated receiver")
	}
}

func TestHopDistances(t *testing.T) {
	// Path 0→1→2→3 plus shortcut 0→2.
	g := New(5, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(0, 2, 0.5)
	dist := g.HopDistances(0, -1)
	want := []int32{0, 1, 1, 2, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
	bounded := g.HopDistances(0, 1)
	if bounded[3] != -1 {
		t.Errorf("maxHops=1 reached node 3 at %d", bounded[3])
	}
}

func TestExactReliabilitySeriesParallel(t *testing.T) {
	// Two disjoint 2-edge paths s→a→t and s→b→t, all p=0.5:
	// per-path 0.25, R = 1-(1-0.25)^2 = 0.4375.
	g := New(4, true)
	s, a, b, tt := NodeID(0), NodeID(1), NodeID(2), NodeID(3)
	for _, e := range [][2]NodeID{{s, a}, {a, tt}, {s, b}, {b, tt}} {
		g.MustAddEdge(e[0], e[1], 0.5)
	}
	r, err := g.ExactReliability(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.4375) > 1e-12 {
		t.Fatalf("R = %v, want 0.4375", r)
	}
}

func TestExactReliabilityIdentitySourceTarget(t *testing.T) {
	g := New(2, true)
	r, err := g.ExactReliability(0, 0)
	if err != nil || r != 1 {
		t.Fatalf("R(s,s) = %v, %v; want 1, nil", r, err)
	}
	r, err = g.ExactReliability(0, 1)
	if err != nil || r != 0 {
		t.Fatalf("R over empty graph = %v, %v; want 0, nil", r, err)
	}
}

// TestFigure2NonSubmodularity reproduces the counterexample of Lemma 1
// (Figure 2): edges st, sA, At each with probability 0.5.
func TestFigure2NonSubmodularity(t *testing.T) {
	build := func(edges [][2]NodeID) *Graph {
		g := New(3, true) // 0=s, 1=A, 2=t
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1], 0.5)
		}
		return g
	}
	st := [2]NodeID{0, 2}
	sA := [2]NodeID{0, 1}
	At := [2]NodeID{1, 2}
	rel := func(edges ...[2]NodeID) float64 {
		r, err := build(edges).ExactReliability(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Submodularity check: f(X∪{At})−f(X) vs f(Y∪{At})−f(Y), X={st}, Y={st,sA}.
	fX, fY := rel(st), rel(st, sA)
	fXx, fYx := rel(st, At), rel(st, sA, At)
	if fX != 0.5 || fY != 0.5 {
		t.Fatalf("base reliabilities %v %v, want 0.5 0.5", fX, fY)
	}
	if math.Abs(fXx-0.5) > 1e-12 {
		t.Fatalf("R(X∪{At}) = %v, want 0.5", fXx)
	}
	if math.Abs(fYx-0.625) > 1e-12 {
		t.Fatalf("R(Y∪{At}) = %v, want 0.625", fYx)
	}
	if fXx-fX >= fYx-fY {
		t.Fatal("example should violate submodularity")
	}
	// Supermodularity check with X'={sA}, Y'={sA,st}.
	fX2, fY2 := rel(sA), rel(sA, st)
	fX2x, fY2x := rel(sA, At), rel(sA, st, At)
	if fX2 != 0 || fY2 != 0.5 {
		t.Fatalf("base reliabilities %v %v, want 0 0.5", fX2, fY2)
	}
	if math.Abs(fX2x-0.25) > 1e-12 || math.Abs(fY2x-0.625) > 1e-12 {
		t.Fatalf("got %v %v, want 0.25 0.625", fX2x, fY2x)
	}
	if fX2x-fX2 <= fY2x-fY2 {
		t.Fatal("example should violate supermodularity")
	}
}

// TestTable2Figure3 reproduces Table 2: the example of Figure 3 under three
// (α, ζ) settings, with the three candidate solutions {sA,sB}, {sA,Bt},
// {sB,Bt}. Exact reliability must match the closed forms of Example 1.
func TestTable2Figure3(t *testing.T) {
	const s, a, b, tt = 0, 1, 2, 3
	for _, tc := range []struct{ alpha, zeta float64 }{
		{0.5, 0.7}, {0.5, 0.3}, {0.9, 0.7},
	} {
		base := New(4, false)
		base.MustAddEdge(a, b, tc.alpha)
		base.MustAddEdge(a, tt, tc.alpha)
		solutions := map[string][]Edge{
			"sA,sB": {{U: s, V: a, P: tc.zeta}, {U: s, V: b, P: tc.zeta}},
			"sA,Bt": {{U: s, V: a, P: tc.zeta}, {U: b, V: tt, P: tc.zeta}},
			"sB,Bt": {{U: s, V: b, P: tc.zeta}, {U: b, V: tt, P: tc.zeta}},
		}
		want := map[string]float64{
			"sA,sB": (1 - (1-tc.zeta)*(1-tc.alpha*tc.zeta)) * tc.alpha,
			"sA,Bt": tc.zeta * (1 - (1-tc.alpha)*(1-tc.alpha*tc.zeta)),
			"sB,Bt": tc.zeta * (1 - (1-tc.zeta)*(1-tc.alpha*tc.alpha)),
		}
		for name, sol := range solutions {
			r, err := base.WithEdges(sol).ExactReliability(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r-want[name]) > 1e-12 {
				t.Errorf("α=%v ζ=%v solution %s: R=%v want %v", tc.alpha, tc.zeta, name, r, want[name])
			}
		}
	}
	// Spot-check the printed Table 2 values (3 decimal places).
	base := New(4, false)
	base.MustAddEdge(a, b, 0.5)
	base.MustAddEdge(a, tt, 0.5)
	r, _ := base.WithEdges([]Edge{{U: s, V: b, P: 0.7}, {U: b, V: tt, P: 0.7}}).ExactReliability(s, tt)
	if math.Abs(r-0.5425) > 1e-9 {
		t.Errorf("Table 2 row 1 {sB,Bt}: %v, want 0.5425 (prints as 0.543)", r)
	}
}

func TestExactReliabilityRefusesLargeGraphs(t *testing.T) {
	g := New(40, true)
	for i := 0; i < MaxExactEdges+1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 0.5)
	}
	if _, err := g.ExactReliability(0, 1); err == nil {
		t.Fatal("want error for oversized exact computation")
	}
}

// Property: adding an edge can never decrease exact reliability
// (monotonicity of reachability under edge insertion).
func TestQuickMonotonicityUnderEdgeAddition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(3)
		g := New(n, r.Intn(2) == 0)
		// Sparse random graph with ≤ 10 edges.
		for attempts := 0; attempts < 10; attempts++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, r.Float64())
		}
		s, tt := NodeID(0), NodeID(n-1)
		before, err := g.ExactReliability(s, tt)
		if err != nil {
			return false
		}
		// Add one random missing edge.
		var added bool
		for attempts := 0; attempts < 20 && !added; attempts++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, r.Float64())
			added = true
		}
		after, err := g.ExactReliability(s, tt)
		if err != nil {
			return false
		}
		return after >= before-1e-12
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: exact reliability always lies in [0,1] and equals at least the
// probability of any single s-t path (here: the direct edge, if present).
func TestQuickReliabilityBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		g := New(n, true)
		for attempts := 0; attempts < 9; attempts++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, r.Float64())
		}
		s, tt := NodeID(0), NodeID(n-1)
		rel, err := g.ExactReliability(s, tt)
		if err != nil {
			return false
		}
		if rel < -1e-12 || rel > 1+1e-12 {
			return false
		}
		if eid, ok := g.EdgeID(s, tt); ok && rel < g.Prob(eid)-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(5, true)
	g.MustAddEdge(0, 1, 0.25)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(4, 0, 1)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() || got.Directed() != g.Directed() {
		t.Fatalf("round trip mismatch: %d/%d/%v", got.N(), got.M(), got.Directed())
	}
	for eid := int32(0); int(eid) < g.M(); eid++ {
		if g.Endpoints(eid) != got.Endpoints(eid) {
			t.Fatalf("edge %d mismatch: %+v vs %+v", eid, g.Endpoints(eid), got.Endpoints(eid))
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"ugraph sideways 3 0\n",
		"ugraph directed x 0\n",
		"ugraph directed 3 1\n0 1\n",
		"ugraph directed 3 1\n0 1 2.5\n",
		"ugraph directed 3 2\n0 1 0.5\n", // count mismatch
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", c)
		}
	}
}

func TestDiameter(t *testing.T) {
	g := New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	if d := g.Diameter(0); d != 3 {
		t.Fatalf("Diameter = %d, want 3", d)
	}
}

// rowsOf deep-copies every adjacency row of g, to detect later writes.
func rowsOf(g *Graph) (out, in [][]Arc) {
	for u := NodeID(0); int(u) < g.N(); u++ {
		out = append(out, append([]Arc(nil), g.Out(u)...))
		in = append(in, append([]Arc(nil), g.In(u)...))
	}
	return out, in
}

// requireRows fails unless g's rows still equal the copies rowsOf took.
func requireRows(t *testing.T, label string, g *Graph, out, in [][]Arc) {
	t.Helper()
	for u := NodeID(0); int(u) < g.N(); u++ {
		if !arcsEqual(g.Out(u), out[u]) || !arcsEqual(g.In(u), in[u]) {
			t.Fatalf("%s: row %d changed: out %v (was %v), in %v (was %v)", label, u, g.Out(u), out[u], g.In(u), in[u])
		}
	}
}

// TestWithEdgesMatchesCloneAndAdd pins the pre-sized WithEdges to its
// definition, Clone followed by MustAddEdge per new edge, on random
// directed and undirected graphs whose extras repeat each other (in both
// orientations) and repeat existing edges. It then checks that the result
// shares no row with its parent: adding edges at every node of either
// graph leaves the other's rows and snapshot unchanged.
func TestWithEdgesMatchesCloneAndAdd(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 30; trial++ {
			r := rand.New(rand.NewSource(int64(trial)*2 + int64(b2i(directed))))
			n := 3 + r.Intn(15)
			g := randomGraph(r, n, directed, r.Intn(n*(n-1)/4+1))
			var extra []Edge
			for len(extra) < 1+r.Intn(2*n) {
				switch u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n)); {
				case u == v:
				case r.Intn(4) == 0 && len(extra) > 0:
					e := extra[r.Intn(len(extra))]
					extra = append(extra, Edge{U: e.V, V: e.U, P: 0.25}, e)
				case r.Intn(4) == 0 && g.M() > 0:
					e := g.Endpoints(int32(r.Intn(g.M())))
					e.P = 0.75
					extra = append(extra, e)
				default:
					extra = append(extra, Edge{U: u, V: v, P: float64(r.Intn(101)) / 100})
				}
			}
			want := g.Clone()
			for _, e := range extra {
				if !want.HasEdge(e.U, e.V) {
					want.MustAddEdge(e.U, e.V, e.P)
				}
			}
			parentSnap := g.Freeze()
			parentOut, parentIn := rowsOf(g)

			got := g.WithEdges(extra)
			sameTopology(t, got, want)
			if got.Version() != want.Version() {
				t.Fatalf("Version = %d, want %d", got.Version(), want.Version())
			}
			ge, we := got.Edges(), want.Edges()
			for i := range we {
				if ge[i] != we[i] {
					t.Fatalf("Edges()[%d] = %+v, want %+v", i, ge[i], we[i])
				}
			}
			for _, e := range extra {
				geid, gok := got.EdgeID(e.U, e.V)
				weid, wok := want.EdgeID(e.U, e.V)
				if geid != weid || gok != wok {
					t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d,%v", e.U, e.V, geid, gok, weid, wok)
				}
			}
			assertCSRMatchesGraph(t, got.Freeze(), want)
			if got.Freeze().Epoch() != want.Freeze().Epoch() {
				t.Fatalf("snapshot epoch %d, want %d", got.Freeze().Epoch(), want.Freeze().Epoch())
			}

			// Each side grows in turn; the other's rows and snapshot must
			// stay as they were.
			grow(got)
			requireRows(t, "parent after the child grew", g, parentOut, parentIn)
			if g.Freeze() != parentSnap {
				t.Fatal("the child's growth invalidated the parent's snapshot")
			}
			gotOut, gotIn := rowsOf(got)
			gotSnap := got.Freeze()
			grow(g)
			requireRows(t, "child after the parent grew", got, gotOut, gotIn)
			if got.Freeze() != gotSnap {
				t.Fatal("the parent's growth invalidated the child's snapshot")
			}
		}
	}
}

// grow adds an edge from every node to its next two neighbours (mod N)
// where none exists, appending to most adjacency rows.
func grow(g *Graph) {
	for u := NodeID(0); int(u) < g.N(); u++ {
		for _, v := range []NodeID{(u + 1) % NodeID(g.N()), (u + 2) % NodeID(g.N())} {
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 0.5)
			}
		}
	}

}
