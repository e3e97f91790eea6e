package sampling

// Tests for mcvec's mask views (keyScratch.view, maskView): a vector a
// sampler estimates on a view it carries from call to call, from graph to
// graph and from epoch to epoch must be bit-identical to the vector a
// fresh sampler estimates on its per-pass records.

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ugraph"
)

// keyedVec is the keyed vector of key from src over all z lanes on v, the
// vector a ParallelSampler part covering every word returns.
func keyedVec(v *MCVec, c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, z int) []float64 {
	counts, drawn := v.keyedCounts(c, src, forward, key, 0, laneWords(z), z)
	return vectorOf(counts, drawn)
}

// warmVec is keyedVec on a sampler that takes c's reach for dense, so the
// call runs its chunks on key's view whenever the sampler keeps or builds
// one, on sparse graphs as well.
func warmVec(v *MCVec, c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, z int) []float64 {
	v.ks.shape, v.ks.dense = csrShape{n: c.N(), directed: c.Directed()}, true
	return keyedVec(v, c, src, forward, key, z)
}

// viewOn returns v's view of key on c for calls of z lanes, or nil.
func viewOn(v *MCVec, c *ugraph.CSR, forward bool, key uint64, z int) *maskView {
	for i := range v.ks.views {
		vw := &v.ks.views[i]
		if vw.c == c && vw.id == (viewID{key: key, words: laneWords(z), forward: forward}) {
			return vw
		}
	}
	return nil
}

// drawnRecords counts the records of vw that hold at least one mask.
func drawnRecords(vw *maskView) int {
	n := 0
	for _, r := range vw.recs {
		if r.ep == viewEpoch && r.drawn != 0 {
			n++
		}
	}
	return n
}

// checkWarm estimates key's vectors from a few sources on the warm sampler
// v and on fresh ones, and fails unless every pair is bit-identical.
func checkWarm(t *testing.T, name string, v *MCVec, c *ugraph.CSR, key uint64, z int) {
	t.Helper()
	for _, forward := range []bool{true, false} {
		for _, src := range []ugraph.NodeID{0, ugraph.NodeID(c.N() / 2), ugraph.NodeID(c.N() - 1)} {
			got := warmVec(v, c, src, forward, key, z)
			want := keyedVec(NewMCVec(z, 1), c, src, forward, key, z)
			if !slices.Equal(got, want) {
				t.Fatalf("%s forward=%v src=%d: warm view %v != fresh %v", name, forward, src, got, want)
			}
		}
	}
}

// rebuild returns the flat snapshot of c's logical edge set, as an
// engine's compaction or a solver's replayed Graph freezes it.
func rebuild(c *ugraph.CSR) *ugraph.CSR {
	g := ugraph.New(c.N(), c.Directed())
	for _, e := range c.Edges() {
		g.MustAddEdge(e.U, e.V, e.P)
	}
	return g.Freeze()
}

// TestMaskViewOnSecondUse: a key's first dense call builds no view, its
// second builds one, and a later call reads the masks earlier calls drew.
func TestMaskViewOnSecondUse(t *testing.T) {
	c := mcvecGraph(90, false, 3).Freeze()
	const key, z = 77, 500
	v := NewMCVec(z, 1)
	warmVec(v, c, 0, true, key, z)
	if viewOn(v, c, true, key, z) != nil {
		t.Fatal("a key used once got a view")
	}
	warmVec(v, c, 1, true, key, z)
	vw := viewOn(v, c, true, key, z)
	if vw == nil || drawnRecords(vw) == 0 {
		t.Fatal("a key used twice has no view holding masks")
	}
	if other := warmVec(v, c, 0, true, key+1, z); viewOn(v, c, true, key+1, z) != nil || other == nil {
		t.Fatal("another key used once got a view")
	}
	checkWarm(t, "second use", v, c, key, z)
}

// TestMaskViewEditsBitIdentical: after each of SetProb, AddEdge and
// RemoveEdge, a view derived from the previous epoch's gives the fresh
// vector, on the CSR.Delta epoch and on its flat rebuild, on directed and
// undirected graphs; the derived view starts with the unedited arcs'
// masks.
func TestMaskViewEditsBitIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		c := mcvecGraph(90, directed, 5).Freeze()
		const key, z = 91, 500
		v := NewMCVec(z, 1)
		checkWarm(t, "base", v, c, key, z)
		edges := c.Edges()
		for i, op := range []ugraph.DeltaOp{ugraph.DeltaSetProb, ugraph.DeltaAdd, ugraph.DeltaRemove, ugraph.DeltaSetProb, ugraph.DeltaRemove} {
			e := edges[7*i]
			edit := ugraph.DeltaEdit{Op: op, U: e.U, V: e.V, P: 0.55}
			if op == ugraph.DeltaAdd {
				edit.U, edit.V = freePair(c)
			}
			next, err := c.Delta([]ugraph.DeltaEdit{edit})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				name string
				c    *ugraph.CSR
			}{{"delta", next}, {"flat", rebuild(next)}} {
				name := fmt.Sprintf("directed=%v edit %d (op %d) %s", directed, i, op, step.name)
				warmVec(v, step.c, 0, true, key, z)
				vw := viewOn(v, step.c, true, key, z)
				if vw == nil {
					t.Fatalf("%s: no view", name)
				}
				checkWarm(t, name, v, step.c, key, z)
			}
			c = next
		}
	}
}

// TestMaskViewDerivedCopiesMasks: a view derived after one SetProb starts
// with every other drawn record of the view it derives from, and none for
// the edited edge.
func TestMaskViewDerivedCopiesMasks(t *testing.T) {
	c := mcvecGraph(90, false, 9).Freeze()
	const key, z = 5, 256
	v := NewMCVec(z, 1)
	checkWarm(t, "base", v, c, key, z)
	old := viewOn(v, c, true, key, z)
	before := drawnRecords(old)
	e := c.Edges()[0]
	next, err := c.Delta([]ugraph.DeltaEdit{{Op: ugraph.DeltaSetProb, U: e.U, V: e.V, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	vw := v.ks.view(next, key, true, laneWords(z))
	if vw == nil || vw.c != next {
		t.Fatal("no view derived on the next epoch")
	}
	edited := 0
	for _, u := range []ugraph.NodeID{e.U, e.V} {
		for i, a := range next.Out(u) {
			if a.To == e.U || a.To == e.V {
				if vw.recs[vw.off[u]+int32(i)].drawn != 0 {
					t.Errorf("edited arc %d→%d kept its masks", u, a.To)
				}
				if old.recs[old.off[u]+int32(i)].drawn != 0 {
					edited++
				}
			}
		}
	}
	if got := drawnRecords(vw); got != before-edited {
		t.Errorf("derived view holds %d drawn records, want %d of %d", got, before-edited, before)
	}
}

// freePair returns the first node pair of c with no edge between them.
func freePair(c *ugraph.CSR) (ugraph.NodeID, ugraph.NodeID) {
	for u := ugraph.NodeID(0); int(u) < c.N(); u++ {
		for w := u + 1; int(w) < c.N(); w++ {
			if !c.HasEdge(u, w) && !c.HasEdge(w, u) {
				return u, w
			}
		}
	}
	panic("complete graph")
}

// TestMaskViewAlternatingGraphs: one sampler alternating two graphs of one
// node count under one key (a csrShape match between unrelated graphs),
// and a directed and an undirected graph on the same endpoints, returns
// the fresh vector on every call.
func TestMaskViewAlternatingGraphs(t *testing.T) {
	a := mcvecGraph(90, false, 11).Freeze()
	b := mcvecGraph(90, false, 12).Freeze()
	und := ugraph.New(60, false)
	dir := ugraph.New(60, true)
	for _, e := range mcvecGraph(60, true, 13).Freeze().Edges() {
		if !und.HasEdge(e.U, e.V) {
			und.MustAddEdge(e.U, e.V, e.P)
			dir.MustAddEdge(e.U, e.V, e.P)
		}
	}
	for _, pair := range [][2]*ugraph.CSR{{a, b}, {und.Freeze(), dir.Freeze()}} {
		const key, z = 123, 448
		v := NewMCVec(z, 1)
		for round := range 3 {
			for i, c := range pair {
				checkWarm(t, fmt.Sprintf("round %d graph %d", round, i), v, c, key, z)
			}
		}
		for _, c := range pair {
			if viewOn(v, c, true, key, z) == nil {
				t.Errorf("graph of %d nodes (directed=%v) has no view", c.N(), c.Directed())
			}
		}
	}
}

// TestMaskViewLaneWords: one key at Z = 50 and then at Z = 500 (and back)
// keeps a view per word count, each giving the fresh vector.
func TestMaskViewLaneWords(t *testing.T) {
	c := mcvecGraph(90, true, 17).Freeze()
	const key = 4242
	v := NewMCVec(1, 1)
	for _, z := range []int{50, 500, 50, 500, 130} {
		checkWarm(t, fmt.Sprintf("z=%d", z), v, c, key, z)
		if viewOn(v, c, true, key, z) == nil {
			t.Errorf("z=%d: no view", z)
		}
	}
}

// TestMaskViewWorkersBitIdentical: a ParallelSampler's repeated vectors on
// one call seed, whose pooled samplers keep views and lease any part of a
// call's words, equal a fresh serial sampler's at Workers 1, 2 and 8, on
// each graph of an edit stream.
func TestMaskViewWorkersBitIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		c := mcvecGraph(90, directed, 19).Freeze()
		const callSeed, z = 31, 500
		for step := range 4 {
			for _, w := range []int{1, 2, 8} {
				ps := newParallelT(t, "mcvec", z, 1, w)
				for _, src := range []ugraph.NodeID{0, 10, 20, 30} {
					for _, forward := range []bool{true, false} {
						got := ps.VectorFor(c, src, forward, callSeed)
						want := shardVector(NewMCVec(z, callSeed), c, src, forward)
						if !slices.Equal(got, want) {
							t.Fatalf("directed=%v step %d w=%d src=%d forward=%v: %v != serial %v", directed, step, w, src, forward, got, want)
						}
					}
				}
			}
			e := c.Edges()[3*step]
			next, err := c.Delta([]ugraph.DeltaEdit{{Op: ugraph.DeltaRemove, U: e.U, V: e.V}})
			if err != nil {
				t.Fatal(err)
			}
			c = rebuild(next)
		}
	}
}

// TestMaskViewAboveCap: a graph whose records would pass maxViewBytes
// gets no view and keeps the per-pass records' vectors.
func TestMaskViewAboveCap(t *testing.T) {
	const n = 4000
	edges := maxViewBytes/int(unsafe.Sizeof(keyEdge{}))/2 + 1
	g := ugraph.New(n, false)
	for i := 0; g.M() < edges; i++ {
		u, w := ugraph.NodeID(i%n), ugraph.NodeID((i/n+1+i)%n)
		if u != w && !g.HasEdge(u, w) {
			g.MustAddEdge(u, w, 0.3)
		}
	}
	c := g.Freeze()
	const key, z = 8, 64
	v := NewMCVec(z, 1)
	for src := range ugraph.NodeID(3) {
		got := warmVec(v, c, src, true, key, z)
		if want := keyedVec(NewMCVec(z, 1), c, src, true, key, z); !slices.Equal(got, want) {
			t.Fatalf("src %d: %v != fresh %v", src, got, want)
		}
	}
	for i := range v.ks.views {
		if v.ks.views[i].c != nil {
			t.Fatalf("a graph of %d arcs got a view", 2*c.M())
		}
	}
}

// FuzzMCVecViewEdits carries one sampler's mask views across a random edit
// stream on a random small graph: after each edit (an add, a SetProb or a
// removal as a CSR.Delta epoch, or a flat rebuild of the current epoch)
// the warm sampler's From and To vectors under one key must equal a fresh
// sampler's, and from the key's second use on the warm sampler must hold a
// view of the current graph.
func FuzzMCVecViewEdits(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(200), []byte{0, 1, 200, 1, 2, 128, 2, 3, 255, 0, 3, 60}, []byte{1, 0, 1, 90, 0, 5, 7, 200, 2, 1, 2, 0, 3, 0, 0, 0})
	f.Add(int64(7), uint8(33), uint8(3), []byte{0, 1, 255, 1, 2, 255, 2, 3, 255, 3, 4, 255, 4, 0, 255}, []byte{2, 4, 0, 0, 0, 0, 2, 30, 1, 1, 2, 0})
	f.Add(int64(-3), uint8(20), uint8(90), []byte{5, 1, 10, 1, 6, 250, 6, 2, 99, 2, 9, 180, 9, 5, 77, 3, 1, 140}, []byte{3, 0, 0, 0, 1, 2, 3, 40, 0, 8, 4, 255, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, key int64, nRaw, zRaw uint8, graph, edits []byte) {
		n := 2 + int(nRaw)%30
		z := 1 + int(zRaw)*2
		directed := nRaw%2 == 1
		g := ugraph.New(n, directed)
		for i := 0; i+2 < len(graph); i += 3 {
			u, w := ugraph.NodeID(int(graph[i])%n), ugraph.NodeID(int(graph[i+1])%n)
			if u != w && !g.HasEdge(u, w) && !g.HasEdge(w, u) {
				g.MustAddEdge(u, w, float64(graph[i+2])/255)
			}
		}
		c := g.Freeze()
		v := NewMCVec(z, 1)
		check := func(step int) {
			for _, forward := range []bool{true, false} {
				for _, src := range []ugraph.NodeID{0, ugraph.NodeID(n - 1)} {
					got := warmVec(v, c, src, forward, uint64(key), z)
					want := keyedVec(NewMCVec(z, 1), c, src, forward, uint64(key), z)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d forward=%v src=%d: warm view %v != fresh %v", step, forward, src, got, want)
					}
				}
				if viewOn(v, c, forward, uint64(key), z) == nil {
					t.Fatalf("step %d forward=%v: no view of the current graph", step, forward)
				}
			}
		}
		check(0)
		for i := 0; i+3 < len(edits) && i < 4*16; i += 4 {
			u, w := ugraph.NodeID(int(edits[i+1])%n), ugraph.NodeID(int(edits[i+2])%n)
			p := float64(edits[i+3]) / 255
			var edit ugraph.DeltaEdit
			switch op := edits[i] % 4; {
			case op == 3:
				c = rebuild(c)
				check(i/4 + 1)
				continue
			case op == 0:
				if u == w || c.HasEdge(u, w) || c.HasEdge(w, u) {
					continue
				}
				edit = ugraph.DeltaEdit{Op: ugraph.DeltaAdd, U: u, V: w, P: p}
			default:
				es := c.Edges()
				if len(es) == 0 {
					continue
				}
				e := es[int(edits[i+1])%len(es)]
				edit = ugraph.DeltaEdit{Op: ugraph.DeltaSetProb, U: e.U, V: e.V, P: p}
				if op == 2 {
					edit = ugraph.DeltaEdit{Op: ugraph.DeltaRemove, U: e.U, V: e.V}
				}
			}
			next, err := c.Delta([]ugraph.DeltaEdit{edit})
			if err != nil {
				t.Fatal(err)
			}
			c = next
			check(i/4 + 1)
		}
	})
}
