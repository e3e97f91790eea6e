package candidates

import (
	"testing"

	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// figure4Graph reproduces the input graph of Figure 4 (run-through example
// for the proposed algorithm, §5.1): 8 nodes s,A,B,C,D,E,F,G with t as
// target.
//
//	s→A 0.2(ish)... We follow the published edges:
//	s-B 0.8, s-C 0.4(?), ... The exact figure probabilities:
//	sA 0.2? The figure lists: sB 0.8, sC 0.4, sA 0.2, Bt 0.9, CB 0.5,
//	Ct 0.3, plus low-reliability D,E,F,G attachments (0.1, 0.7, 0.5, 0.2).
func figure4Graph() (*ugraph.Graph, ugraph.NodeID, ugraph.NodeID) {
	// Node ids: 0=s 1=A 2=B 3=C 4=t 5=D 6=E 7=F 8=G.
	g := ugraph.New(9, false)
	g.MustAddEdge(0, 1, 0.2) // s-A
	g.MustAddEdge(0, 2, 0.8) // s-B
	g.MustAddEdge(0, 3, 0.4) // s-C
	g.MustAddEdge(2, 4, 0.9) // B-t
	g.MustAddEdge(3, 2, 0.5) // C-B
	g.MustAddEdge(3, 4, 0.3) // C-t
	// Peripheral low-reliability nodes that elimination should drop.
	g.MustAddEdge(5, 6, 0.1)  // D-E
	g.MustAddEdge(0, 5, 0.1)  // s-D weak
	g.MustAddEdge(6, 7, 0.2)  // E-F
	g.MustAddEdge(7, 4, 0.05) // F-t weak
	g.MustAddEdge(8, 7, 0.1)  // G-F
	return g, 0, 4
}

func TestEliminateKeepsQueryEndpoints(t *testing.T) {
	g, s, tt := figure4Graph()
	smp := sampling.NewMonteCarlo(2000, 1)
	res := Eliminate(g, s, tt, smp, Options{R: 3, Zeta: 0.5})
	foundS, foundT := false, false
	for _, v := range res.FromS {
		if v == s {
			foundS = true
		}
	}
	for _, v := range res.ToT {
		if v == tt {
			foundT = true
		}
	}
	if !foundS || !foundT {
		t.Fatalf("C(s)=%v C(t)=%v missing endpoints", res.FromS, res.ToT)
	}
	if len(res.FromS) > 3 || len(res.ToT) > 3 {
		t.Fatalf("r=3 violated: %v / %v", res.FromS, res.ToT)
	}
}

// TestEliminateFigure4Example mirrors Example 2: with r=3 the retained
// nodes are {s,A,B} on the source side and {B,C,t} on the target side;
// D,E,F,G are eliminated.
func TestEliminateFigure4Example(t *testing.T) {
	g, s, tt := figure4Graph()
	smp := sampling.NewMonteCarlo(8000, 2)
	res := Eliminate(g, s, tt, smp, Options{R: 3, Zeta: 0.5})
	from := map[ugraph.NodeID]bool{}
	for _, v := range res.FromS {
		from[v] = true
	}
	to := map[ugraph.NodeID]bool{}
	for _, v := range res.ToT {
		to[v] = true
	}
	// Source side: s(=1.0), B(0.8), C(0.4) or A(0.2)? R(s→B)=0.8+...,
	// R(s→C)=0.4+..., R(s→A)=0.2. Top-3 from s = {s, B, C}.
	if !from[0] || !from[2] {
		t.Fatalf("C(s) = %v must contain s and B", res.FromS)
	}
	// Target side: t, B (0.9), C (0.3+0.5*0.9≈0.65+) — never the weak
	// peripherals.
	if !to[4] || !to[2] {
		t.Fatalf("C(t) = %v must contain t and B", res.ToT)
	}
	for _, peripheral := range []ugraph.NodeID{5, 6, 7, 8} {
		if from[peripheral] || to[peripheral] {
			t.Fatalf("peripheral node %d survived elimination", peripheral)
		}
	}
	// Candidate edges must avoid existing edges and self pairs.
	for _, e := range res.Edges {
		if e.U == e.V {
			t.Fatalf("self candidate %+v", e)
		}
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("existing edge proposed %+v", e)
		}
		if e.P != 0.5 {
			t.Fatalf("candidate probability %v, want ζ=0.5", e.P)
		}
	}
}

func TestEliminateNoDuplicateUndirectedPairs(t *testing.T) {
	g, s, tt := figure4Graph()
	smp := sampling.NewMonteCarlo(4000, 3)
	res := Eliminate(g, s, tt, smp, Options{R: 5, Zeta: 0.5})
	seen := map[[2]ugraph.NodeID]bool{}
	for _, e := range res.Edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := [2]ugraph.NodeID{u, v}
		if seen[key] {
			t.Fatalf("duplicate undirected candidate %v", key)
		}
		seen[key] = true
	}
}

func TestHopConstraint(t *testing.T) {
	// Path graph 0-1-2-3-4-5: with h=2 node 0 can only pair with 2
	// (1 is adjacent, 3+ are too far).
	g := ugraph.New(6, false)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(i+1), 0.9)
	}
	smp := sampling.NewMonteCarlo(4000, 4)
	res := Eliminate(g, 0, 5, smp, Options{R: 6, H: 2, Zeta: 0.5})
	dist0 := g.HopDistances(0, -1)
	for _, e := range res.Edges {
		du := dist0[e.U]
		// All pairs must be within 2 hops of each other.
		dists := g.HopDistances(e.U, -1)
		if dists[e.V] > 2 {
			t.Fatalf("candidate %+v spans %d hops (du=%d)", e, dists[e.V], du)
		}
	}
	// Without the constraint, 0-4 and 0-5 style long pairs appear.
	unconstrained := Eliminate(g, 0, 5, sampling.NewMonteCarlo(4000, 4), Options{R: 6, Zeta: 0.5})
	if len(unconstrained.Edges) <= len(res.Edges) {
		t.Fatalf("h=2 (%d edges) did not reduce the candidate set (%d)", len(res.Edges), len(unconstrained.Edges))
	}
}

func TestAllMissingCountsCompleteGraph(t *testing.T) {
	// 4-node undirected graph with one existing edge: missing = 6-1 = 5.
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	got := AllMissing(g, 0, 0.5)
	if len(got) != 5 {
		t.Fatalf("missing = %d, want 5", len(got))
	}
	// Directed: ordered pairs 12 - 1 existing (0→1).
	gd := ugraph.New(4, true)
	gd.MustAddEdge(0, 1, 0.5)
	if got := AllMissing(gd, 0, 0.5); len(got) != 11 {
		t.Fatalf("directed missing = %d, want 11", len(got))
	}
}

func TestAllMissingHopBound(t *testing.T) {
	// Path 0-1-2-3: h=1 allows only adjacent (existing) pairs → none;
	// h=2 allows 0-2 and 1-3.
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	if got := AllMissing(g, 1, 0.5); len(got) != 0 {
		t.Fatalf("h=1 missing = %v, want none", got)
	}
	got := AllMissing(g, 2, 0.5)
	if len(got) != 2 {
		t.Fatalf("h=2 missing = %v, want 2 pairs", got)
	}
}

func TestEliminateMultiIntersection(t *testing.T) {
	// Two sources on the left of a barbell, two targets on the right.
	g := ugraph.New(8, false)
	g.MustAddEdge(0, 2, 0.9)
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(2, 3, 0.7)
	g.MustAddEdge(4, 5, 0.7)
	g.MustAddEdge(5, 6, 0.9)
	g.MustAddEdge(5, 7, 0.9)
	smp, err := sampling.NewParallel("rss", 4000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := EliminateMultiPairs(g, []ugraph.NodeID{0, 1}, []ugraph.NodeID{6, 7}, smp, Options{R: 4, Zeta: 0.5})
	cands := res.List()
	if len(cands) == 0 {
		t.Fatal("no candidates proposed for multi query")
	}
	for _, e := range cands {
		if g.HasEdge(e.U, e.V) || e.U == e.V {
			t.Fatalf("bad candidate %+v", e)
		}
	}
	// Source members must remain eligible even under intersection.
	from := map[ugraph.NodeID]bool{}
	for _, v := range res.FromS {
		from[v] = true
	}
	if !from[0] || !from[1] {
		t.Fatalf("sources dropped from their own candidate set: %v", res.FromS)
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := ugraph.New(3, false)
	g.MustAddEdge(0, 1, 0.9)
	res := Eliminate(g, 0, 1, sampling.NewMonteCarlo(100, 6), Options{})
	for _, e := range res.Edges {
		if e.P != 0.5 {
			t.Fatalf("default ζ not applied: %+v", e)
		}
	}
}
