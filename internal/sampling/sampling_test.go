package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/ugraph"
)

// randomSmallGraph builds a connected-ish random uncertain graph small
// enough for exact reliability.
func randomSmallGraph(r *rand.Rand, directed bool) *ugraph.Graph {
	n := 5 + r.Intn(3)
	g := ugraph.New(n, directed)
	for attempts := 0; attempts < 14 && g.M() < 12; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.6*r.Float64())
	}
	return g
}

func TestMonteCarloMatchesExact(t *testing.T) {
	r := rng.New(101)
	mc := NewMonteCarlo(40000, 1)
	for trial := 0; trial < 8; trial++ {
		g := randomSmallGraph(r, trial%2 == 0)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		exact, err := g.ExactReliability(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		got := mc.Reliability(g, s, tt)
		if math.Abs(got-exact) > 0.015 {
			t.Errorf("trial %d: MC=%v exact=%v", trial, got, exact)
		}
	}
}

func TestRSSMatchesExact(t *testing.T) {
	r := rng.New(202)
	rs := NewRSS(8000, 2)
	for trial := 0; trial < 8; trial++ {
		g := randomSmallGraph(r, trial%2 == 1)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		exact, err := g.ExactReliability(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Reliability(g, s, tt)
		if math.Abs(got-exact) > 0.015 {
			t.Errorf("trial %d: RSS=%v exact=%v", trial, got, exact)
		}
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if got := NewMonteCarlo(10, 1).Reliability(g, 1, 1); got != 1 {
		t.Fatalf("MC R(v,v) = %v", got)
	}
	if got := NewRSS(10, 1).Reliability(g, 1, 1); got != 1 {
		t.Fatalf("RSS R(v,v) = %v", got)
	}
}

func TestCertainPaths(t *testing.T) {
	// All edges probability 1 → reliability exactly 1, and RSS should
	// detect certainty without any sampling noise.
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if got := NewRSS(10, 3).Reliability(g, 0, 3); got != 1 {
		t.Fatalf("certain path RSS = %v, want exactly 1", got)
	}
	if got := NewMonteCarlo(10, 3).Reliability(g, 0, 3); got != 1 {
		t.Fatalf("certain path MC = %v, want exactly 1", got)
	}
	// Disconnected target → exactly 0.
	if got := NewRSS(10, 3).Reliability(g, 3, 0); got != 0 {
		t.Fatalf("unreachable RSS = %v, want exactly 0", got)
	}
}

func TestReliabilityFromDirectedPath(t *testing.T) {
	// 0 →(0.8) 1 →(0.5) 2; exact vector from 0 is [1, 0.8, 0.4].
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.5)
	for _, s := range []Sampler{NewMonteCarlo(60000, 4), NewRSS(20000, 4)} {
		vec := s.ReliabilityFrom(g, 0)
		want := []float64{1, 0.8, 0.4}
		for i := range want {
			if math.Abs(vec[i]-want[i]) > 0.015 {
				t.Errorf("%s: vec[%d] = %v, want %v", s.Name(), i, vec[i], want[i])
			}
		}
	}
}

func TestReliabilityToDirectedPath(t *testing.T) {
	// 0 →(0.8) 1 →(0.5) 2; reliability to 2 is [0.4, 0.5, 1].
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.5)
	for _, s := range []Sampler{NewMonteCarlo(60000, 5), NewRSS(20000, 5)} {
		vec := s.ReliabilityTo(g, 2)
		want := []float64{0.4, 0.5, 1}
		for i := range want {
			if math.Abs(vec[i]-want[i]) > 0.015 {
				t.Errorf("%s: vec[%d] = %v, want %v", s.Name(), i, vec[i], want[i])
			}
		}
	}
}

func TestUndirectedVectorSymmetry(t *testing.T) {
	// In an undirected graph, ReliabilityFrom and ReliabilityTo estimate
	// the same quantity.
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.7)
	g.MustAddEdge(1, 2, 0.6)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(0, 2, 0.4)
	mc := NewMonteCarlo(40000, 6)
	from := mc.ReliabilityFrom(g, 0)
	to := mc.ReliabilityTo(g, 0)
	for i := range from {
		if math.Abs(from[i]-to[i]) > 0.02 {
			t.Errorf("node %d: from=%v to=%v", i, from[i], to[i])
		}
	}
}

func TestVectorMatchesScalar(t *testing.T) {
	r := rng.New(77)
	g := randomSmallGraph(r, true)
	mc := NewMonteCarlo(40000, 7)
	vec := mc.ReliabilityFrom(g, 0)
	for v := 1; v < g.N(); v++ {
		scalar := mc.Reliability(g, 0, ugraph.NodeID(v))
		if math.Abs(vec[v]-scalar) > 0.02 {
			t.Errorf("node %d: vector=%v scalar=%v", v, vec[v], scalar)
		}
	}
}

// TestRSSVarianceReduction verifies the §5.3 claim: at equal sample size,
// the RSS estimator has lower variance than plain MC.
func TestRSSVarianceReduction(t *testing.T) {
	// A layered graph with many mid-probability edges: high MC variance.
	r := rng.New(88)
	g := ugraph.New(24, true)
	for layer := 0; layer < 5; layer++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				u := ugraph.NodeID(layer*4 + i)
				v := ugraph.NodeID((layer+1)*4 + j)
				if r.Float64() < 0.7 {
					g.MustAddEdge(u, v, 0.15+0.5*r.Float64())
				}
			}
		}
	}
	const z, reps = 300, 60
	var mcEst, rssEst []float64
	for i := 0; i < reps; i++ {
		mcEst = append(mcEst, NewMonteCarlo(z, int64(1000+i)).Reliability(g, 0, 23))
		rssEst = append(rssEst, NewRSS(z, int64(2000+i)).Reliability(g, 0, 23))
	}
	vMC, vRSS := stats.Variance(mcEst), stats.Variance(rssEst)
	if vRSS > vMC {
		t.Errorf("RSS variance %v not below MC variance %v", vRSS, vMC)
	}
	// Both must agree on the mean.
	if math.Abs(stats.Mean(mcEst)-stats.Mean(rssEst)) > 0.05 {
		t.Errorf("estimator means diverge: MC %v RSS %v", stats.Mean(mcEst), stats.Mean(rssEst))
	}
}

func TestRSSUnbiasedOnUndirected(t *testing.T) {
	r := rng.New(99)
	rs := NewRSS(12000, 9)
	for trial := 0; trial < 5; trial++ {
		g := randomSmallGraph(r, false)
		exact, err := g.ExactReliability(0, ugraph.NodeID(g.N()-1))
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Reliability(g, 0, ugraph.NodeID(g.N()-1))
		if math.Abs(got-exact) > 0.02 {
			t.Errorf("trial %d: RSS=%v exact=%v", trial, got, exact)
		}
	}
}

func TestEstimatesWithinUnitInterval(t *testing.T) {
	r := rng.New(111)
	mc := NewMonteCarlo(500, 10)
	rs := NewRSS(500, 10)
	for trial := 0; trial < 20; trial++ {
		g := randomSmallGraph(r, trial%2 == 0)
		s, tt := ugraph.NodeID(r.Intn(g.N())), ugraph.NodeID(r.Intn(g.N()))
		for _, est := range []float64{mc.Reliability(g, s, tt), rs.Reliability(g, s, tt)} {
			if est < 0 || est > 1 {
				t.Fatalf("estimate %v outside [0,1]", est)
			}
		}
	}
}

func TestSetSampleSize(t *testing.T) {
	mc := NewMonteCarlo(100, 1)
	mc.SetSampleSize(250)
	if mc.SampleSize() != 250 {
		t.Fatal("MC SetSampleSize ignored")
	}
	rs := NewRSS(100, 1)
	rs.SetSampleSize(400)
	if rs.SampleSize() != 400 {
		t.Fatal("RSS SetSampleSize ignored")
	}
}
