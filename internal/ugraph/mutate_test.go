package ugraph

import "testing"

// sameTopology asserts g and want agree on every structural accessor the
// samplers and solvers use: sizes, per-edge descriptors, adjacency rows.
func sameTopology(t *testing.T, g, want *Graph) {
	t.Helper()
	if g.N() != want.N() || g.M() != want.M() || g.Directed() != want.Directed() {
		t.Fatalf("shape mismatch: n=%d/%d m=%d/%d", g.N(), want.N(), g.M(), want.M())
	}
	for eid := int32(0); int(eid) < g.M(); eid++ {
		if g.Endpoints(eid) != want.Endpoints(eid) {
			t.Fatalf("edge %d: %+v vs %+v", eid, g.Endpoints(eid), want.Endpoints(eid))
		}
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		gOut, wOut := g.Out(u), want.Out(u)
		if len(gOut) != len(wOut) {
			t.Fatalf("node %d out-degree %d vs %d", u, len(gOut), len(wOut))
		}
		for i := range gOut {
			if gOut[i] != wOut[i] {
				t.Fatalf("node %d arc %d: %+v vs %+v", u, i, gOut[i], wOut[i])
			}
		}
		gIn, wIn := g.In(u), want.In(u)
		if len(gIn) != len(wIn) {
			t.Fatalf("node %d in-degree %d vs %d", u, len(gIn), len(wIn))
		}
		for i := range gIn {
			if gIn[i] != wIn[i] {
				t.Fatalf("node %d in-arc %d: %+v vs %+v", u, i, gIn[i], wIn[i])
			}
		}
	}
	// The endpoint index survived the renumbering.
	for _, e := range g.Edges() {
		eid, ok := g.EdgeID(e.U, e.V)
		if !ok || g.Endpoints(eid) != e {
			t.Fatalf("index lost edge %+v (eid=%d ok=%v)", e, eid, ok)
		}
	}
}

// TestRemoveEdgeCompacts: removing an edge renumbers the IDs above it so
// the graph is indistinguishable from one built without that edge.
func TestRemoveEdgeCompacts(t *testing.T) {
	for _, directed := range []bool{false, true} {
		edges := []Edge{
			{U: 0, V: 1, P: 0.1}, {U: 1, V: 2, P: 0.2}, {U: 0, V: 2, P: 0.3},
			{U: 2, V: 3, P: 0.4}, {U: 3, V: 0, P: 0.5},
		}
		for remove := range edges {
			g := New(4, directed)
			for _, e := range edges {
				g.MustAddEdge(e.U, e.V, e.P)
			}
			if err := g.RemoveEdge(edges[remove].U, edges[remove].V); err != nil {
				t.Fatal(err)
			}
			want := New(4, directed)
			for i, e := range edges {
				if i == remove {
					continue
				}
				want.MustAddEdge(e.U, e.V, e.P)
			}
			sameTopology(t, g, want)
			// Freeze after removal mirrors the from-scratch snapshot.
			c, wc := g.Freeze(), want.Freeze()
			if c.M() != wc.M() {
				t.Fatalf("directed=%v remove=%d: frozen M %d vs %d", directed, remove, c.M(), wc.M())
			}
			for u := NodeID(0); int(u) < c.N(); u++ {
				co, wo := c.Out(u), wc.Out(u)
				if len(co) != len(wo) {
					t.Fatalf("frozen out-degree of %d: %d vs %d", u, len(co), len(wo))
				}
				for i := range co {
					if co[i] != wo[i] || c.OutProbs(u)[i] != wc.OutProbs(u)[i] {
						t.Fatalf("frozen arc mismatch at node %d index %d", u, i)
					}
				}
			}
		}
	}
}

// TestRemoveEdgeErrors: unknown edges and out-of-range endpoints are
// rejected without touching the version.
func TestRemoveEdgeErrors(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	v := g.Version()
	if err := g.RemoveEdge(0, 2); err == nil {
		t.Fatal("removed a non-existent edge")
	}
	if err := g.RemoveEdge(0, 99); err == nil {
		t.Fatal("accepted an out-of-range endpoint")
	}
	if g.Version() != v {
		t.Fatalf("failed removal bumped version %d -> %d", v, g.Version())
	}
	// Undirected removal works against either orientation.
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Fatalf("edge survived removal: m=%d", g.M())
	}
}

// TestVersionAndEpoch: every mutation advances Version, Freeze stamps it
// as the snapshot epoch, Clone preserves it, and overlays inherit their
// base epoch.
func TestVersionAndEpoch(t *testing.T) {
	g := New(4, false)
	if g.Version() != 0 {
		t.Fatalf("fresh graph version %d", g.Version())
	}
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	if g.Version() != 2 {
		t.Fatalf("version after 2 adds: %d", g.Version())
	}
	c1 := g.Freeze()
	if c1.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", c1.Epoch())
	}
	if err := g.SetProb(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if g.Version() != 3 {
		t.Fatalf("version after SetProb: %d", g.Version())
	}
	if c1.Epoch() != 2 {
		t.Fatal("issued snapshot's epoch changed retroactively")
	}
	c2 := g.Freeze()
	if c2.Epoch() != 3 {
		t.Fatalf("new epoch %d, want 3", c2.Epoch())
	}
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.Version() != 4 || g.Freeze().Epoch() != 4 {
		t.Fatalf("version/epoch after removal: %d/%d", g.Version(), g.Freeze().Epoch())
	}
	clone := g.Clone()
	if clone.Version() != g.Version() {
		t.Fatalf("clone version %d, want %d", clone.Version(), g.Version())
	}
	overlay := g.Freeze().WithEdges([]Edge{{U: 2, V: 3, P: 0.4}})
	if overlay.Epoch() != g.Version() {
		t.Fatalf("overlay epoch %d, want base %d", overlay.Epoch(), g.Version())
	}
}

// TestRemoveEdgeLeavesIssuedSnapshotsValid: a snapshot handed out before a
// removal keeps serving the old topology.
func TestRemoveEdgeLeavesIssuedSnapshotsValid(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.7)
	old := g.Freeze()
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if old.M() != 2 || !old.HasEdge(0, 1) {
		t.Fatalf("issued snapshot mutated: m=%d", old.M())
	}
	if g.Freeze().HasEdge(0, 1) {
		t.Fatal("new snapshot still has the removed edge")
	}
}
