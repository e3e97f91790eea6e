package ugraph

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// randomTestGraph builds a random graph, exercising rejected inserts
// (self-loops, duplicates, bad probabilities) along the way so the frozen
// snapshot is checked against a construction history with failures in it.
func randomTestGraph(t *testing.T, r *rand.Rand, n, attempts int, directed bool) *Graph {
	t.Helper()
	g := New(n, directed)
	for i := 0; i < attempts; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		var p float64
		switch r.Intn(5) {
		case 0:
			p = 0 // impossible edge: samplers must never traverse it
		case 1:
			p = 1 // certain edge
		default:
			p = r.Float64()
		}
		if _, err := g.AddEdge(u, v, p); err != nil {
			// Self-loop or duplicate: rejected inserts must leave the
			// graph (and its future snapshot) untouched.
			continue
		}
	}
	// Rejected operations for the error paths.
	if _, err := g.AddEdge(0, 0, 0.5); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 1, 1.5); err == nil {
		t.Fatal("probability 1.5 accepted")
	}
	return g
}

func arcsEqual(a, b []Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fullRow is the complete adjacency row of a CSR or view, in the order the
// samplers traverse it.
func fullRow(c *CSR, u NodeID, forward bool) []Arc {
	if forward {
		return c.Out(u)
	}
	return c.In(u)
}

// assertCSRMatchesGraph checks every accessor of the snapshot against the
// mutable graph it mirrors.
func assertCSRMatchesGraph(t *testing.T, c *CSR, g *Graph) {
	t.Helper()
	if c.N() != g.N() || c.M() != g.M() || c.Directed() != g.Directed() {
		t.Fatalf("shape mismatch: CSR (%d,%d,%v) vs Graph (%d,%d,%v)",
			c.N(), c.M(), c.Directed(), g.N(), g.M(), g.Directed())
	}
	for eid := int32(0); int(eid) < g.M(); eid++ {
		if c.Prob(eid) != g.Prob(eid) {
			t.Fatalf("Prob(%d): CSR %v vs Graph %v", eid, c.Prob(eid), g.Prob(eid))
		}
		if c.Endpoints(eid) != g.Endpoints(eid) {
			t.Fatalf("Endpoints(%d): CSR %+v vs Graph %+v", eid, c.Endpoints(eid), g.Endpoints(eid))
		}
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		if got, want := fullRow(c, u, true), g.Out(u); !arcsEqual(got, want) {
			t.Fatalf("Out(%d): CSR %v vs Graph %v", u, got, want)
		}
		if got, want := fullRow(c, u, false), g.In(u); !arcsEqual(got, want) {
			t.Fatalf("In(%d): CSR %v vs Graph %v", u, got, want)
		}
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("Degree(%d): CSR %d vs Graph %d", u, c.Degree(u), g.Degree(u))
		}
		for v := NodeID(0); int(v) < g.N(); v++ {
			ce, cok := c.EdgeID(u, v)
			ge, gok := g.EdgeID(u, v)
			if cok != gok || (cok && ce != ge) {
				t.Fatalf("EdgeID(%d,%d): CSR (%d,%v) vs Graph (%d,%v)", u, v, ce, cok, ge, gok)
			}
			if c.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
	for src := 0; src < g.N(); src += 1 + g.N()/4 {
		for _, maxHops := range []int{-1, 0, 1, 2} {
			cd := c.HopDistances(NodeID(src), maxHops)
			gd := g.HopDistances(NodeID(src), maxHops)
			for v := range cd {
				if cd[v] != gd[v] {
					t.Fatalf("HopDistances(%d,%d)[%d]: CSR %d vs Graph %d", src, maxHops, v, cd[v], gd[v])
				}
			}
		}
	}
}

// TestCSRMatchesGraph is the topology half of the differential suite: for
// random directed and undirected graphs, the frozen snapshot must agree
// with the slice-of-slices graph on every accessor, arc for arc.
func TestCSRMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		directed := trial%2 == 0
		n := 2 + r.Intn(24)
		g := randomTestGraph(t, r, n, 4*n, directed)
		assertCSRMatchesGraph(t, g.Freeze(), g)
	}
}

// TestCSROverlayMatchesClone checks the incremental WithEdges overlay
// against the ground truth: a full clone-and-add via Graph.WithEdges,
// refrozen from scratch. Duplicate extras (against the base and within the
// batch) must be skipped identically.
func TestCSROverlayMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		directed := trial%2 == 1
		n := 3 + r.Intn(20)
		g := randomTestGraph(t, r, n, 3*n, directed)
		var extra []Edge
		for i := 0; i < 1+r.Intn(5); i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u == v {
				continue
			}
			extra = append(extra, Edge{U: u, V: v, P: r.Float64()})
		}
		if r.Intn(2) == 0 && g.M() > 0 {
			// Duplicate of a base edge: must be skipped.
			extra = append(extra, Edge{U: g.Endpoints(0).U, V: g.Endpoints(0).V, P: 0.9})
		}
		clone := g.WithEdges(extra)
		overlay := g.Freeze().WithEdges(extra)
		assertCSRMatchesGraph(t, overlay, clone)

		// Stacking overlays must equal adding both batches to the clone.
		var extra2 []Edge
		for i := 0; i < 2; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u != v {
				extra2 = append(extra2, Edge{U: u, V: v, P: r.Float64()})
			}
		}
		assertCSRMatchesGraph(t, overlay.WithEdges(extra2), clone.WithEdges(extra2))
	}
}

// viewFingerprint renders every accessor a sampler or solver reads from a
// view — rows with aligned probabilities, Prob and EdgeID — as one string.
func viewFingerprint(c *CSR) string {
	var b strings.Builder
	for u := NodeID(0); int(u) < c.N(); u++ {
		fmt.Fprint(&b, c.Out(u), c.OutProbs(u), c.In(u), c.InProbs(u))
		for v := NodeID(0); int(v) < c.N(); v++ {
			eid, ok := c.EdgeID(u, v)
			fmt.Fprint(&b, eid, ok)
		}
	}
	for eid := int32(0); int(eid) < c.EdgeIDBound(); eid++ {
		fmt.Fprint(&b, c.Prob(eid))
	}
	return b.String()
}

// TestWithEdgesConcurrentViews builds and reads views from 8 goroutines
// over one shared flat snapshot and one shared layered snapshot: a view
// copies the rows it adds to and shares every other row with its base,
// including the layered base's own rows, so concurrent views must neither
// race (run under -race) nor see each other's edges. Each view must match
// the same view built serially, and the bases must stay unchanged.
func TestWithEdgesConcurrentViews(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rand.New(rand.NewSource(5))
		const n = 24
		g := randomTestGraph(t, r, n, 3*n, directed)
		flat := g.Freeze()
		e0, e1 := g.Endpoints(0), g.Endpoints(1)
		absent := Edge{U: 0, V: 1, P: 0.3}
		for flat.HasEdge(absent.U, absent.V) {
			absent.V++
		}
		layered, err := flat.Delta([]DeltaEdit{
			{Op: DeltaSetProb, U: e0.U, V: e0.V, P: 0.125},
			{Op: DeltaRemove, U: e1.U, V: e1.V},
			{Op: DeltaAdd, U: absent.U, V: absent.V, P: absent.P},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Candidate sets touch the rows the delta materialized, so views
		// of the layered base privatize shared rows.
		sets := [][]Edge{
			{{U: e0.U, V: absent.V, P: 0.5}},
			{{U: e1.U, V: e1.V, P: 0.75}, {U: absent.U, V: e0.V, P: 0.25}},
		}
		for i := 0; i < 6; i++ {
			sets = append(sets, []Edge{
				{U: NodeID(r.Intn(n)), V: NodeID(n - 1), P: r.Float64()},
				{U: e0.V, V: NodeID(r.Intn(n - 1)), P: r.Float64()},
			})
		}
		for i := range sets {
			for j := range sets[i] {
				if sets[i][j].U == sets[i][j].V {
					sets[i][j].V = (sets[i][j].U + 1) % n
				}
			}
		}
		bases := []*CSR{flat, layered}
		baseWant := make([]string, len(bases))
		want := make([][]string, len(bases))
		for b, base := range bases {
			baseWant[b] = viewFingerprint(base)
			for _, set := range sets {
				want[b] = append(want[b], viewFingerprint(base.WithEdges(set)))
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range sets {
					i := (k + w) % len(sets)
					for b, base := range bases {
						if got := viewFingerprint(base.WithEdges(sets[i])); got != want[b][i] {
							t.Errorf("directed=%v worker %d base %d set %d: view differs from the serial build", directed, w, b, i)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for b, base := range bases {
			if viewFingerprint(base) != baseWant[b] {
				t.Errorf("directed=%v base %d changed under concurrent views", directed, b)
			}
		}
	}
}

// TestFreezeCaching pins the snapshot lifecycle: Freeze is cached until a
// mutation, mutations invalidate it, and already-issued snapshots stay
// valid and unchanged.
func TestFreezeCaching(t *testing.T) {
	g := New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	c1 := g.Freeze()
	if g.Freeze() != c1 {
		t.Fatal("Freeze rebuilt an unchanged snapshot")
	}
	g.MustAddEdge(1, 2, 0.25)
	c2 := g.Freeze()
	if c2 == c1 {
		t.Fatal("Freeze returned a stale snapshot after AddEdge")
	}
	if c1.M() != 1 || c2.M() != 2 {
		t.Fatalf("snapshot M: c1=%d (want 1), c2=%d (want 2)", c1.M(), c2.M())
	}
	if err := g.SetProb(0, 0.75); err != nil {
		t.Fatal(err)
	}
	c3 := g.Freeze()
	if c3 == c2 {
		t.Fatal("Freeze returned a stale snapshot after SetProb")
	}
	if c2.Prob(0) != 0.5 || c3.Prob(0) != 0.75 {
		t.Fatalf("snapshot probs: c2=%v (want 0.5), c3=%v (want 0.75)", c2.Prob(0), c3.Prob(0))
	}
	// Clones start with no cached snapshot and freeze independently.
	if g.Clone().Freeze() == c3 {
		t.Fatal("clone shared the parent's snapshot")
	}
	// A duplicate-only overlay is the same view.
	if c3.WithEdges([]Edge{{U: 0, V: 1, P: 0.9}}) != c3 {
		t.Fatal("duplicate-only WithEdges built a new view")
	}
	if c3.WithEdges(nil) != c3 {
		t.Fatal("empty WithEdges built a new view")
	}
}

// TestCSROverlayValidation pins the MustAddEdge-equivalent panics.
func TestCSROverlayValidation(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	c := g.Freeze()
	for _, bad := range []Edge{
		{U: 0, V: 0, P: 0.5},  // self-loop
		{U: 0, V: 3, P: 0.5},  // out of range
		{U: 0, V: 2, P: -0.1}, // bad probability
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("overlay accepted invalid edge %+v", bad)
				}
			}()
			c.WithEdges([]Edge{bad})
		}()
	}
}
