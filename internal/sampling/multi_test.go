package sampling

import (
	"math"
	"testing"

	"repro/internal/ugraph"
)

func TestMultiSourceReachMatchesUnion(t *testing.T) {
	// Sources 0 and 1 both point at 2 with independent edges: reach(2) =
	// 1-(1-0.5)(1-0.4) = 0.7.
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 2, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	mc := NewMonteCarlo(60000, 21)
	reach := mc.MultiSourceReachCSR(g.Freeze(), []ugraph.NodeID{0, 1})
	if reach[0] != 1 || reach[1] != 1 {
		t.Fatalf("sources not certain: %v", reach)
	}
	if math.Abs(reach[2]-0.7) > 0.01 {
		t.Fatalf("reach(2) = %v, want 0.7", reach[2])
	}
}

func TestMultiSourceReachSingleEqualsFrom(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.6)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.4)
	mc := NewMonteCarlo(40000, 22)
	multi := mc.MultiSourceReachCSR(g.Freeze(), []ugraph.NodeID{0})
	single := mc.ReliabilityFrom(g, 0)
	for v := range multi {
		if math.Abs(multi[v]-single[v]) > 0.02 {
			t.Fatalf("node %d: multi %v vs single %v", v, multi[v], single[v])
		}
	}
}

func TestExpectedPairHopsCertainChain(t *testing.T) {
	// Certain chain 0→1→2: d(0,2) = 2 always.
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	mc := NewMonteCarlo(200, 23)
	got := mc.ExpectedPairHopsCSR(g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{2}, 100)
	if got != 2 {
		t.Fatalf("expected hops = %v, want exactly 2", got)
	}
}

func TestExpectedPairHopsPenalty(t *testing.T) {
	// Single edge with p = 0.5: E[d] = 0.5·1 + 0.5·penalty.
	g := ugraph.New(2, true)
	g.MustAddEdge(0, 1, 0.5)
	mc := NewMonteCarlo(40000, 24)
	got := mc.ExpectedPairHopsCSR(g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1}, 10)
	want := 0.5*1 + 0.5*10
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("expected hops = %v, want %v", got, want)
	}
}

func TestExpectedPairHopsMultiplePairs(t *testing.T) {
	// Two sources, two targets, all edges certain, star around 2.
	g := ugraph.New(5, false)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(2, 4, 1)
	mc := NewMonteCarlo(50, 25)
	got := mc.ExpectedPairHopsCSR(g.Freeze(), []ugraph.NodeID{0, 1}, []ugraph.NodeID{3, 4}, 99)
	if got != 8 { // each of the 4 pairs at distance 2
		t.Fatalf("sum = %v, want 8", got)
	}
}
