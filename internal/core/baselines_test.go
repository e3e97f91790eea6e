package core

import (
	"context"

	"testing"

	"repro/internal/ugraph"
)

// hubInstance: node 1 is a high-centrality hub; candidates connect either
// through the hub or through a peripheral dead end.
func hubInstance() (*ugraph.Graph, []ugraph.Edge) {
	g := ugraph.New(6, false)
	// Star around hub 1 plus a chain to target 5.
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(1, 3, 0.9)
	g.MustAddEdge(1, 4, 0.9)
	g.MustAddEdge(4, 5, 0.9)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, // to the hub
		{U: 0, V: 2, P: 0.5}, // to a leaf
	}
	return g, cands
}

func TestCentralityBaselinePrefersHub(t *testing.T) {
	g, cands := hubInstance()
	opt := Options{K: 1}.withDefaults()
	edges := centralityEdges(context.Background(), g, cands, opt, false)
	if len(edges) != 1 || edges[0].V != 1 {
		t.Fatalf("degree baseline picked %v, want the hub edge 0-1", edges)
	}
	edges = centralityEdges(context.Background(), g, cands, opt, true)
	if len(edges) != 1 || edges[0].V != 1 {
		t.Fatalf("betweenness baseline picked %v, want the hub edge 0-1", edges)
	}
}

func TestEigenBaselinePrefersHub(t *testing.T) {
	g, cands := hubInstance()
	opt := Options{K: 1}.withDefaults()
	edges := eigenEdges(context.Background(), g, cands, opt)
	if len(edges) != 1 || edges[0].V != 1 {
		t.Fatalf("eigen baseline picked %v, want the hub edge 0-1", edges)
	}
}

func TestEigenBaselineDirectedOrientation(t *testing.T) {
	// Directed 4-cycle 1→2→3→4→1 dominates the spectrum (eigenvector
	// uniform over its nodes); the internal chord 1→3 must outrank a
	// candidate between two spectrally irrelevant nodes (0, 5).
	g := ugraph.New(6, true)
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(2, 3, 0.9)
	g.MustAddEdge(3, 4, 0.9)
	g.MustAddEdge(4, 1, 0.9)
	cands := []ugraph.Edge{
		{U: 0, V: 5, P: 0.5}, // zero eigen-score on both ends
		{U: 1, V: 3, P: 0.5}, // chord inside the dominant cycle
	}
	opt := Options{K: 1}.withDefaults()
	edges := eigenEdges(context.Background(), g, cands, opt)
	if len(edges) != 1 || edges[0].U != 1 || edges[0].V != 3 {
		t.Fatalf("eigen picked %v, want the cycle chord 1→3", edges)
	}
}

func TestHillClimbingEmptyCandidates(t *testing.T) {
	g, _ := hubInstance()
	opt := Options{K: 3}.withDefaults()
	smp, err := opt.NewSampler(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := hillClimbing(context.Background(), g, 0, 5, nil, smp, opt); len(got) != 0 {
		t.Fatalf("HC with no candidates returned %v", got)
	}
	if got := individualTopK(context.Background(), g, 0, 5, nil, smp, opt); len(got) != 0 {
		t.Fatalf("top-k with no candidates returned %v", got)
	}
}

func TestSolveWithNoEliminationMode(t *testing.T) {
	g, _ := hubInstance()
	opt := Options{K: 2, Z: 500, Seed: 3, NoElimination: true, H: 2, L: 8}
	sol, err := Solve(context.Background(), g, 0, 5, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.CandidateCount == 0 {
		t.Fatal("NoElimination produced no candidates")
	}
	if len(sol.Edges) > 2 {
		t.Fatalf("budget violated: %v", sol.Edges)
	}
}

func TestPathSelectSingletonL(t *testing.T) {
	// With L=1 the path pool is just the most reliable path of G+, so
	// BE degenerates to choosing that path's candidates (if they fit k).
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	opt.L = 1
	sol, err := Solve(context.Background(), g, ex3S, ex3T, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.PathCount != 1 {
		t.Fatalf("PathCount = %d, want 1", sol.PathCount)
	}
	// The most reliable path in G+ is sBt (0.25): candidates {sB, Bt}.
	got := edgeSet(sol.Edges)
	if len(got) != 2 || !got[[2]ugraph.NodeID{ex3S, ex3B}] || !got[[2]ugraph.NodeID{ex3B, ex3T}] {
		t.Fatalf("L=1 edges = %v, want {sB, Bt}", sol.Edges)
	}
}

func TestMRPEdgesEmptyCandidates(t *testing.T) {
	g, _ := example3Graph()
	opt := ex3Options()
	if got := mrpEdges(context.Background(), g, ex3S, ex3T, nil, opt); len(got) != 0 {
		t.Fatalf("MRP with no candidates returned %v", got)
	}
}
