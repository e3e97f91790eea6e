package ugraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// applyEditsToGraph replays a delta batch through the mutable Graph API —
// the full-rebuild oracle the layered snapshots must match.
func applyEditsToGraph(t *testing.T, g *Graph, edits []DeltaEdit) {
	t.Helper()
	for _, e := range edits {
		switch e.Op {
		case DeltaAdd:
			if _, err := g.AddEdge(e.U, e.V, e.P); err != nil {
				t.Fatalf("oracle AddEdge(%d,%d,%v): %v", e.U, e.V, e.P, err)
			}
		case DeltaSetProb:
			eid, ok := g.EdgeID(e.U, e.V)
			if !ok {
				t.Fatalf("oracle SetProb(%d,%d): missing edge", e.U, e.V)
			}
			if err := g.SetProb(eid, e.P); err != nil {
				t.Fatalf("oracle SetProb(%d,%d,%v): %v", e.U, e.V, e.P, err)
			}
		case DeltaRemove:
			if err := g.RemoveEdge(e.U, e.V); err != nil {
				t.Fatalf("oracle RemoveEdge(%d,%d): %v", e.U, e.V, err)
			}
		}
	}
}

// requireSameView asserts that the layered snapshot and the rebuilt flat
// snapshot present identical logical views: same size, same per-node arc
// sequences (neighbor and probability; edge IDs intentionally differ), same
// canonical edge list, same epoch.
func requireSameView(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size mismatch: got N=%d M=%d, want N=%d M=%d", got.N(), got.M(), want.N(), want.M())
	}
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch mismatch: got %d want %d", got.Epoch(), want.Epoch())
	}
	for u := int32(0); u < int32(got.N()); u++ {
		requireSameRow(t, fmt.Sprintf("out row %d", u), got.Out(u), got.OutProbs(u), want.Out(u), want.OutProbs(u))
		requireSameRow(t, fmt.Sprintf("in row %d", u), got.In(u), got.InProbs(u), want.In(u), want.InProbs(u))
		if got.Degree(u) != want.Degree(u) {
			t.Fatalf("degree mismatch at %d: got %d want %d", u, got.Degree(u), want.Degree(u))
		}
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		t.Fatalf("edge list length: got %d want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("edge %d: got %+v want %+v", i, ge[i], we[i])
		}
	}
	// Per-edge lookups through the public ID surface must agree with the
	// rows: every live edge resolvable, Prob/Endpoints consistent.
	for _, e := range ge {
		eid, ok := got.EdgeID(e.U, e.V)
		if !ok {
			t.Fatalf("EdgeID(%d,%d) missing on layered snapshot", e.U, e.V)
		}
		if p := got.Prob(eid); p != e.P {
			t.Fatalf("Prob(%d) = %v, want %v", eid, p, e.P)
		}
		ep := got.Endpoints(eid)
		if ep.U != e.U || ep.V != e.V || ep.P != e.P {
			t.Fatalf("Endpoints(%d) = %+v, want %+v", eid, ep, e)
		}
		if int(eid) >= got.EdgeIDBound() {
			t.Fatalf("edge ID %d outside EdgeIDBound %d", eid, got.EdgeIDBound())
		}
	}
}

func requireSameRow(t *testing.T, label string, gotArcs []Arc, gotP []float64, wantArcs []Arc, wantP []float64) {
	t.Helper()
	if len(gotArcs) != len(wantArcs) || len(gotP) != len(wantP) {
		t.Fatalf("%s: length mismatch got %d/%d want %d/%d", label, len(gotArcs), len(gotP), len(wantArcs), len(wantP))
	}
	for i := range gotArcs {
		if gotArcs[i].To != wantArcs[i].To {
			t.Fatalf("%s[%d]: neighbor %d, want %d", label, i, gotArcs[i].To, wantArcs[i].To)
		}
		if gotP[i] != wantP[i] {
			t.Fatalf("%s[%d]: prob %v, want %v", label, i, gotP[i], wantP[i])
		}
	}
}

func randomEdits(r *rand.Rand, g *Graph, k int) []DeltaEdit {
	// Build against a scratch clone so each edit is valid in sequence.
	sc := g.Clone()
	var edits []DeltaEdit
	for len(edits) < k {
		switch r.Intn(3) {
		case 0: // add
			u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
			if u == v || sc.HasEdge(u, v) {
				continue
			}
			p := math.Round(r.Float64()*100) / 100
			sc.MustAddEdge(u, v, p)
			edits = append(edits, DeltaEdit{Op: DeltaAdd, U: u, V: v, P: p})
		case 1: // setprob
			if sc.M() == 0 {
				continue
			}
			e := sc.Edges()[r.Intn(sc.M())]
			p := math.Round(r.Float64()*100) / 100
			eid, _ := sc.EdgeID(e.U, e.V)
			if err := sc.SetProb(eid, p); err != nil {
				continue
			}
			edits = append(edits, DeltaEdit{Op: DeltaSetProb, U: e.U, V: e.V, P: p})
		default: // remove
			if sc.M() == 0 {
				continue
			}
			e := sc.Edges()[r.Intn(sc.M())]
			if err := sc.RemoveEdge(e.U, e.V); err != nil {
				continue
			}
			edits = append(edits, DeltaEdit{Op: DeltaRemove, U: e.U, V: e.V})
		}
	}
	return edits
}

func randomGraph(r *rand.Rand, n int, directed bool, m int) *Graph {
	g := New(n, directed)
	for g.M() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, math.Round(r.Float64()*100)/100)
	}
	return g
}

// TestDeltaMatchesRebuild layers randomized edit batches to several depths
// over random graphs and pins every layer's logical view to a full
// clone-and-refreeze rebuild at the same epoch.
func TestDeltaMatchesRebuild(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 20; trial++ {
			r := rand.New(rand.NewSource(int64(trial)*2 + int64(b2i(directed))))
			g := randomGraph(r, 12+r.Intn(20), directed, 20+r.Intn(40))
			oracle := g.Clone()
			snap := g.Freeze()
			for depth := 1; depth <= 5; depth++ {
				edits := randomEdits(r, oracle, 1+r.Intn(6))
				next, err := snap.Delta(edits)
				if err != nil {
					t.Fatalf("directed=%v trial=%d depth=%d: Delta: %v", directed, trial, depth, err)
				}
				applyEditsToGraph(t, oracle, edits)
				requireSameView(t, next, oracle.Freeze())
				if next.Depth() != depth {
					t.Fatalf("Depth = %d, want %d", next.Depth(), depth)
				}
				if snap.Epoch()+uint64(len(edits)) != next.Epoch() {
					t.Fatalf("epoch advance: %d -> %d over %d edits", snap.Epoch(), next.Epoch(), len(edits))
				}
				// The parent snapshot must be untouched by the commit.
				if depth == 1 {
					requireSameView(t, snap, g.Freeze())
				}
				snap = next
			}
			if snap.DeltaArcs() == 0 {
				t.Fatalf("layered snapshot reports zero delta arcs")
			}
			if snap.DeltaFraction() <= 0 {
				t.Fatalf("layered snapshot reports zero delta fraction")
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDeltaReAddAfterRemove covers ID retirement: removing a base edge and
// re-adding the same endpoints mints a fresh ID and appends the arc at the
// row end, exactly as a rebuild would.
func TestDeltaReAddAfterRemove(t *testing.T) {
	g := New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(0, 2, 0.6)
	g.MustAddEdge(0, 3, 0.7)
	snap := g.Freeze()
	next, err := snap.Delta([]DeltaEdit{
		{Op: DeltaRemove, U: 0, V: 1},
		{Op: DeltaAdd, U: 0, V: 1, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := g.Clone()
	applyEditsToGraph(t, oracle, []DeltaEdit{
		{Op: DeltaRemove, U: 0, V: 1},
		{Op: DeltaAdd, U: 0, V: 1, P: 0.9},
	})
	requireSameView(t, next, oracle.Freeze())
	eid, ok := next.EdgeID(0, 1)
	if !ok || eid < 3 {
		t.Fatalf("re-added edge ID = %d, want a fresh ID >= 3", eid)
	}
	if next.M() != 3 || next.EdgeIDBound() != 4 {
		t.Fatalf("M=%d EdgeIDBound=%d, want 3 and 4", next.M(), next.EdgeIDBound())
	}
	// Add-then-remove inside one batch tombstones the fresh ID.
	next2, err := next.Delta([]DeltaEdit{
		{Op: DeltaAdd, U: 1, V: 2, P: 0.4},
		{Op: DeltaRemove, U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next2.M() != 3 || next2.EdgeIDBound() != 5 {
		t.Fatalf("M=%d EdgeIDBound=%d, want 3 and 5", next2.M(), next2.EdgeIDBound())
	}
	if _, ok := next2.EdgeID(1, 2); ok {
		t.Fatalf("tombstoned add still resolvable")
	}
}

// TestDeltaValidation pins the validation error messages to the mutable
// Graph's, and that a failed batch leaves no observable state.
func TestDeltaValidation(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	snap := g.Freeze()
	cases := []struct {
		name  string
		edits []DeltaEdit
		want  string
		index int
	}{
		{"node-range", []DeltaEdit{{Op: DeltaAdd, U: 0, V: 7, P: 0.5}}, "ugraph: node 7 out of range [0,3)", 0},
		{"self-loop", []DeltaEdit{{Op: DeltaAdd, U: 2, V: 2, P: 0.5}}, "ugraph: self-loop at node 2", 0},
		{"bad-prob", []DeltaEdit{{Op: DeltaAdd, U: 1, V: 2, P: 1.5}}, "ugraph: probability 1.5 outside [0,1]", 0},
		{"dup-base", []DeltaEdit{{Op: DeltaAdd, U: 1, V: 0, P: 0.5}}, "ugraph: duplicate edge (1,0)", 0},
		{"dup-in-batch", []DeltaEdit{
			{Op: DeltaAdd, U: 1, V: 2, P: 0.5},
			{Op: DeltaAdd, U: 2, V: 1, P: 0.5},
		}, "ugraph: duplicate edge (2,1)", 1},
		{"setprob-missing", []DeltaEdit{{Op: DeltaSetProb, U: 1, V: 2, P: 0.5}}, "ugraph: no edge (1,2)", 0},
		{"remove-missing", []DeltaEdit{{Op: DeltaRemove, U: 1, V: 2}}, "ugraph: no edge (1,2) to remove", 0},
		{"remove-twice", []DeltaEdit{
			{Op: DeltaRemove, U: 0, V: 1},
			{Op: DeltaRemove, U: 0, V: 1},
		}, "ugraph: no edge (0,1) to remove", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snap.Delta(tc.edits)
			if err == nil {
				t.Fatalf("Delta accepted invalid batch")
			}
			de, ok := err.(*DeltaError)
			if !ok {
				t.Fatalf("error type %T, want *DeltaError", err)
			}
			if de.Index != tc.index {
				t.Fatalf("failing index = %d, want %d", de.Index, tc.index)
			}
			if de.Error() != tc.want {
				t.Fatalf("error = %q, want %q", de.Error(), tc.want)
			}
			if de.Unwrap() == nil || de.Unwrap().Error() != tc.want {
				t.Fatalf("Unwrap mismatch")
			}
		})
	}
	// The snapshot is untouched by any of the failed batches.
	requireSameView(t, snap, g.Freeze())
	// Removal of a base edge makes the same endpoints addable again within
	// one batch.
	if _, err := snap.Delta([]DeltaEdit{
		{Op: DeltaRemove, U: 0, V: 1},
		{Op: DeltaAdd, U: 0, V: 1, P: 0.25},
	}); err != nil {
		t.Fatalf("remove-then-re-add rejected: %v", err)
	}
}

// TestDeltaWithEdgesOverlay checks candidate overlay views stack correctly
// over a layered snapshot: extra IDs start at EdgeIDBound, duplicate checks
// see the delta (added edges skipped, removed edges overlayable).
func TestDeltaWithEdgesOverlay(t *testing.T) {
	g := New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.6)
	snap, err := g.Freeze().Delta([]DeltaEdit{
		{Op: DeltaAdd, U: 2, V: 3, P: 0.7},
		{Op: DeltaRemove, U: 0, V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := snap.WithEdges([]Edge{
		{U: 2, V: 3, P: 0.9}, // duplicate of a delta add: skipped
		{U: 0, V: 1, P: 0.8}, // removed in the delta: insertable
		{U: 0, V: 3, P: 0.4},
	})
	if view == snap {
		t.Fatalf("no overlay built")
	}
	if got := view.M(); got != 4 {
		t.Fatalf("overlay M = %d, want 4", got)
	}
	eid, ok := view.EdgeID(0, 3)
	if !ok {
		t.Fatalf("overlay edge missing")
	}
	if int(eid) < snap.EdgeIDBound() {
		t.Fatalf("overlay edge ID %d below delta bound %d", eid, snap.EdgeIDBound())
	}
	if p := view.Prob(eid); p != 0.4 {
		t.Fatalf("overlay Prob = %v, want 0.4", p)
	}
	if e := view.Endpoints(eid); e.U != 0 || e.V != 3 {
		t.Fatalf("overlay Endpoints = %+v", e)
	}
	if view.EdgeIDBound() != snap.EdgeIDBound()+2 {
		t.Fatalf("view EdgeIDBound = %d, want %d", view.EdgeIDBound(), snap.EdgeIDBound()+2)
	}
	if _, ok := view.EdgeID(2, 3); !ok {
		t.Fatalf("delta add lost in overlay view")
	}
	// Walking the view must see base + delta + overlay arcs.
	dist := view.HopDistances(0, -1)
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("node %d unreachable in overlay view", v)
		}
	}
}

// TestI32MapGrow exercises the open-addressing map through growth and
// overwrite.
func TestI32MapGrow(t *testing.T) {
	var m i32map
	if _, ok := m.get(0); ok {
		t.Fatalf("zero map reports a key")
	}
	for i := int32(0); i < 1000; i++ {
		m.put(i*7, i)
	}
	for i := int32(0); i < 1000; i++ {
		v, ok := m.get(i * 7)
		if !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", i*7, v, ok)
		}
	}
	if _, ok := m.get(3); ok {
		t.Fatalf("phantom key")
	}
	m.put(14, 99)
	if v, _ := m.get(14); v != 99 {
		t.Fatalf("overwrite lost")
	}
	c := m.clone()
	c.put(14, 1)
	if v, _ := m.get(14); v != 99 {
		t.Fatalf("clone aliases original")
	}
}
