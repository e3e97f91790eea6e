package datasets

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/ugraph"
)

func TestLoadAllNames(t *testing.T) {
	for _, name := range Names() {
		g, err := Load(name, 0.05, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph (n=%d, m=%d)", name, g.N(), g.M())
		}
		for _, p := range gen.EdgeProbabilities(g) {
			if p <= 0 || p > 1 {
				t.Fatalf("%s: probability %v out of range", name, p)
			}
		}
	}
	if _, err := Load("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, err := Load("lastfm", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("lastfm", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("non-deterministic shape: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for eid := int32(0); int(eid) < a.M(); eid++ {
		if a.Endpoints(eid) != b.Endpoints(eid) {
			t.Fatalf("edge %d differs", eid)
		}
	}
}

func TestDirectedness(t *testing.T) {
	directed := map[string]bool{"intel": true, "astopo": true}
	for _, name := range Names() {
		g, err := Load(name, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.Directed() != directed[name] {
			t.Errorf("%s: directed = %v, want %v (Table 8)", name, g.Directed(), directed[name])
		}
	}
}

func TestIntelLabShape(t *testing.T) {
	g, pos := IntelLab(1)
	if g.N() != 54 || len(pos) != 54 {
		t.Fatalf("intel lab n=%d positions=%d, want 54", g.N(), len(pos))
	}
	probs := gen.EdgeProbabilities(g)
	mean := stats.Mean(probs)
	if mean < 0.2 || mean > 0.5 {
		t.Fatalf("intel mean probability %v, want ≈0.33 (Table 8)", mean)
	}
	for _, p := range probs {
		if p < 0.1 {
			t.Fatalf("link below 0.1 kept: %v", p)
		}
	}
	// Links only between nearby sensors.
	for _, e := range g.Edges() {
		if gen.Dist(pos[e.U], pos[e.V]) > LabRadius {
			t.Fatalf("link spans %v m > radius", gen.Dist(pos[e.U], pos[e.V]))
		}
	}
	// The network must be reasonably connected for the case study.
	reach := 0
	for _, d := range g.HopDistances(0, 54) {
		if d >= 0 {
			reach++
		}
	}
	if reach < 40 {
		t.Fatalf("only %d sensors reachable from sensor 0", reach)
	}
}

func TestProbabilityRegimes(t *testing.T) {
	cases := map[string][2]float64{ // dataset → plausible mean range
		"lastfm":  {0.15, 0.45}, // paper 0.29
		"astopo":  {0.12, 0.40}, // paper 0.23
		"dblp":    {0.05, 0.20}, // paper 0.11
		"twitter": {0.05, 0.25}, // paper 0.14
		"random1": {0.20, 0.40}, // uniform (0,0.6]
	}
	for name, bounds := range cases {
		g, err := Load(name, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		m := stats.Mean(gen.EdgeProbabilities(g))
		if m < bounds[0] || m > bounds[1] {
			t.Errorf("%s: mean probability %v outside [%v, %v]", name, m, bounds[0], bounds[1])
		}
	}
}

func TestDensityOrdering(t *testing.T) {
	r1, err := Load("random1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Load("random2", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.M() <= r1.M() {
		t.Fatalf("random2 (%d edges) not denser than random1 (%d)", r2.M(), r1.M())
	}
}

func TestQueries(t *testing.T) {
	g, err := Load("lastfm", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := Queries(g, 20, 3, 5, 9)
	if len(qs) != 20 {
		t.Fatalf("generated %d queries, want 20", len(qs))
	}
	for _, q := range qs {
		if q.S == q.T {
			t.Fatal("query with s == t")
		}
		dist := g.HopDistances(q.S, 5)
		if d := dist[q.T]; d < 3 || d > 5 {
			t.Fatalf("query distance %d outside [3,5]", d)
		}
	}
}

func TestQueriesAtDistance(t *testing.T) {
	g, err := Load("regular1", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := QueriesAtDistance(g, 10, 4, 11)
	for _, q := range qs {
		dist := g.HopDistances(q.S, 4)
		if dist[q.T] != 4 {
			t.Fatalf("query distance %d, want exactly 4", dist[q.T])
		}
	}
}

func TestMultiQueries(t *testing.T) {
	g, err := Load("dblp", 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := MultiQueries(g, 5, 4, 13)
	if len(qs) == 0 {
		t.Fatal("no multi queries generated")
	}
	for _, q := range qs {
		if len(q.Sources) != 4 || len(q.Targets) != 4 {
			t.Fatalf("set sizes %d/%d, want 4/4", len(q.Sources), len(q.Targets))
		}
		seen := map[ugraph.NodeID]bool{}
		for _, v := range q.Sources {
			if seen[v] {
				t.Fatal("duplicate source")
			}
			seen[v] = true
		}
		for _, v := range q.Targets {
			if seen[v] {
				t.Fatal("source/target overlap or duplicate target")
			}
			seen[v] = true
		}
	}
}

func TestApplyWrites(t *testing.T) {
	load := func() *ugraph.Graph {
		g, err := Load("lastfm", 0.08, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, twin := load(), load()
	m := g.M()
	ApplyWrites(g, 300, 7)
	if d := g.M() - m; d*10 > m || -d*10 > m {
		t.Fatalf("edge count moved from %d to %d; the mix should keep it level", m, g.M())
	}
	if ApplyWrites(twin, 300, 7); !slices.Equal(g.Edges(), twin.Edges()) {
		t.Fatal("the same seed applied different writes")
	}
	if slices.Equal(g.Edges(), load().Edges()) {
		t.Fatal("the writes changed no edge")
	}
}

// TestWriteBatchesCommitAsDeltas: the batches WriteBatches draws leave g
// untouched, every one of them commits as a CSR.Delta layer, and the last
// layer holds the edges ApplyWrites leaves on the graph.
func TestWriteBatchesCommitAsDeltas(t *testing.T) {
	g, err := Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Edges()
	batches := WriteBatches(g, 300, 7)
	if len(batches) != 300 || !slices.Equal(g.Edges(), before) {
		t.Fatalf("%d batches, graph changed %v; want 300 and unchanged", len(batches), !slices.Equal(g.Edges(), before))
	}
	c := g.Freeze()
	for i, b := range batches {
		if len(b) < 1 || len(b) > 4 {
			t.Fatalf("batch %d holds %d edits, want 1-4", i, len(b))
		}
		if c, err = c.Delta(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	ApplyWrites(g, 300, 7)
	got, want := c.Edges(), g.Edges()
	byEnds := func(a, b ugraph.Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	}
	slices.SortFunc(got, byEnds)
	slices.SortFunc(want, byEnds)
	if !slices.Equal(got, want) {
		t.Fatal("the delta layers and ApplyWrites disagree on the final edges")
	}
}
