package repro

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// An epoch is its CSR: a layered snapshot rebuilds its mutable Graph from
// the CSR's canonical edge order, and only the solver paths ask for it.
// These tests pin both halves — the rebuild is indistinguishable from
// cloning the base and replaying every committed mutation, and estimates
// never trigger it.

// randomChainGraph builds a small random uncertain graph for the
// rebuild-vs-replay property.
func randomChainGraph(r *rand.Rand, n, m int, directed bool) *Graph {
	g := NewGraph(n, directed)
	for g.M() < m {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.05+0.9*r.Float64())
	}
	return g
}

// chainModel tracks the live edge set of a random delta chain so every
// generated mutation is valid when it runs, and remembers removed pairs so
// the chain can re-add them.
type chainModel struct {
	directed bool
	live     map[[2]NodeID]bool
	edges    [][2]NodeID // live pairs, in the orientation they were added
	removed  [][2]NodeID
}

func newChainModel(g *Graph) *chainModel {
	m := &chainModel{directed: g.Directed(), live: map[[2]NodeID]bool{}}
	for _, e := range g.Edges() {
		m.add([2]NodeID{e.U, e.V})
	}
	return m
}

func (m *chainModel) key(p [2]NodeID) [2]NodeID {
	if !m.directed && p[0] > p[1] {
		return [2]NodeID{p[1], p[0]}
	}
	return p
}

func (m *chainModel) add(p [2]NodeID) {
	m.live[m.key(p)] = true
	m.edges = append(m.edges, p)
}

func (m *chainModel) remove(i int) [2]NodeID {
	p := m.edges[i]
	delete(m.live, m.key(p))
	m.edges = append(m.edges[:i], m.edges[i+1:]...)
	m.removed = append(m.removed, p)
	return p
}

// chainProb draws an edge probability, hitting the closed ends of [0, 1] now
// and then.
func chainProb(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return r.Float64()
}

// batch draws one valid batch of 1..6 mutations: fresh adds, re-adds of
// removed pairs, re-probes and removals, applied to the model in order.
func (m *chainModel) batch(r *rand.Rand, n int) []Mutation {
	var muts []Mutation
	for size := 1 + r.Intn(6); len(muts) < size; {
		switch op := r.Intn(4); {
		case op == 0 && len(m.removed) > 0:
			i := r.Intn(len(m.removed))
			p := m.removed[i]
			if m.live[m.key(p)] {
				continue
			}
			m.removed = append(m.removed[:i], m.removed[i+1:]...)
			m.add(p)
			muts = append(muts, AddEdge(p[0], p[1], chainProb(r)))
		case op <= 1:
			p := [2]NodeID{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
			if p[0] == p[1] || m.live[m.key(p)] {
				continue
			}
			m.add(p)
			muts = append(muts, AddEdge(p[0], p[1], chainProb(r)))
		case op == 2 && len(m.edges) > 0:
			p := m.edges[r.Intn(len(m.edges))]
			muts = append(muts, SetProb(p[0], p[1], chainProb(r)))
		case op == 3 && len(m.edges) > 0:
			p := m.remove(r.Intn(len(m.edges)))
			muts = append(muts, RemoveEdge(p[0], p[1]))
		}
	}
	return muts
}

// requireSameFrozen requires two graphs to freeze to identical snapshots:
// the same out and in rows (neighbours and edge IDs) with the same
// probabilities, the same canonical edge list and the same version.
func requireSameFrozen(t *testing.T, stage string, got, want *Graph) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("%s: version %d, replay %d", stage, got.Version(), want.Version())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: Edges() differ from the replay", stage)
	}
	gc, wc := got.Freeze(), want.Freeze()
	if gc.N() != wc.N() || gc.M() != wc.M() || gc.Directed() != wc.Directed() || gc.Epoch() != wc.Epoch() {
		t.Fatalf("%s: frozen shape %d/%d/%v/%d, replay %d/%d/%v/%d", stage,
			gc.N(), gc.M(), gc.Directed(), gc.Epoch(), wc.N(), wc.M(), wc.Directed(), wc.Epoch())
	}
	for u := NodeID(0); int(u) < wc.N(); u++ {
		if !reflect.DeepEqual(gc.Out(u), wc.Out(u)) || !reflect.DeepEqual(gc.OutProbs(u), wc.OutProbs(u)) {
			t.Fatalf("%s: out row %d differs from the replay", stage, u)
		}
		if !reflect.DeepEqual(gc.In(u), wc.In(u)) || !reflect.DeepEqual(gc.InProbs(u), wc.InProbs(u)) {
			t.Fatalf("%s: in row %d differs from the replay", stage, u)
		}
	}
}

// TestRebuildMatchesReplay is the property behind engineSnapshot.graph():
// over random delta chains on directed and undirected graphs — adds,
// re-probes, removals and re-adds of removed pairs — the Graph rebuilt
// from a layered epoch's CSR freezes exactly like a clone of the base with
// every committed mutation replayed onto it, and a solve on the layered
// epoch matches a flat-commit oracle engine. Each chain also commits to a
// durable twin, compacted mid-chain on every other chain; reopening it
// replays the WAL and must land on the same frozen graph and solves.
func TestRebuildMatchesReplay(t *testing.T) {
	ctx := context.Background()
	opt := Options{K: 2, Z: 100, Seed: 5, R: 6, L: 6}
	for _, directed := range []bool{false, true} {
		for chain := 0; chain < 20; chain++ {
			r := rand.New(rand.NewSource(int64(1000*chain) + 17))
			const n = 24
			g := randomChainGraph(r, n, 48, directed)
			eng, err := NewEngine(g, WithSolverDefaults(opt), deltaHoldLayers())
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewEngine(g, WithSolverDefaults(opt))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			durable, err := NewEngine(g, WithSolverDefaults(opt), deltaHoldLayers(), WithStorage(dir))
			if err != nil {
				t.Fatal(err)
			}
			replay := g.Clone()
			model := newChainModel(g)
			for b := 0; b < 12; b++ {
				muts := model.batch(r, n)
				if _, err := eng.Apply(ctx, muts...); err != nil {
					t.Fatalf("directed=%v chain %d batch %d: %v", directed, chain, b, err)
				}
				if _, err := flatCommit(oracle, muts...); err != nil {
					t.Fatal(err)
				}
				if _, err := durable.Apply(ctx, muts...); err != nil {
					t.Fatal(err)
				}
				if chain%2 == 1 && b == 5 {
					if err := durable.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				if i, err := applyMutationsTo(replay, muts); err != nil {
					t.Fatalf("replay mutation %d: %v", i, err)
				}
				snap := eng.snap.Load()
				if snap.csr.Depth() != b+1 {
					t.Fatalf("chain depth %d after %d batches", snap.csr.Depth(), b+1)
				}
				rebuilt, err := snap.graph()
				if err != nil {
					t.Fatal(err)
				}
				requireSameFrozen(t, "rebuild", rebuilt, replay)
			}
			durable.Close()
			recovered, err := OpenEngine(dir, WithSolverDefaults(opt))
			if err != nil {
				t.Fatalf("directed=%v chain %d: reopen: %v", directed, chain, err)
			}
			reg, err := recovered.snap.Load().graph()
			if err != nil {
				t.Fatal(err)
			}
			requireSameFrozen(t, "recovery", reg, replay)
			for _, st := range [][2]NodeID{{0, n - 1}, {1, n / 2}} {
				req := Request{S: st[0], T: st[1], Method: MethodBE}
				want, werr := oracle.Solve(ctx, req)
				for name, e := range map[string]*Engine{"layered": eng, "recovered": recovered} {
					got, gerr := e.Solve(ctx, req)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("directed=%v chain %d: %s solve error %v, oracle %v", directed, chain, name, gerr, werr)
					}
					if !sameSolution(got, want) {
						t.Fatalf("directed=%v chain %d: %s solve %+v, oracle %+v", directed, chain, name, got, want)
					}
				}
			}
			eng.Close()
			oracle.Close()
			recovered.Close()
		}
	}
}

// TestOnlySolvesBuildGraph: estimates read a layered epoch's CSR and
// never build its Graph; the first solve builds it, compaction publishes
// that same Graph as the flat epoch, and a flat epoch never rebuilds.
func TestOnlySolvesBuildGraph(t *testing.T) {
	ctx := context.Background()
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(100), WithSeed(3), deltaHoldLayers())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, muts := range deltaTestBatches(t, g) {
		if _, err := eng.Apply(ctx, muts...); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.snap.Load()
	if snap.csr.Depth() == 0 {
		t.Fatal("fixture chain is not layered")
	}
	pairs := []PairQuery{{S: 0, T: 17}, {S: 3, T: 23}}
	for _, w := range []int{0, 2} {
		for _, prec := range []float64{0, 0.05} {
			opt := &Options{Workers: w, Precision: prec}
			if _, err := eng.Run(ctx, Query{Kind: QueryEstimate, S: 0, T: 17, Options: opt}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(ctx, Query{Kind: QueryEstimateMany, Pairs: pairs, Options: opt}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if snap.mat != nil || snap.matErr != nil {
		t.Fatal("an estimate built the layered epoch's Graph")
	}
	if _, err := eng.Solve(ctx, Request{S: 0, T: 17, Options: &Options{K: 1, R: 6, L: 6}}); err != nil && !errors.Is(err, ErrNoPath) {
		t.Fatal(err)
	}
	built := snap.mat
	if built == nil {
		t.Fatal("a solve on a layered epoch did not build its Graph")
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	flat := eng.snap.Load()
	if flat.csr.Depth() != 0 {
		t.Fatal("compaction left the chain layered")
	}
	if got, err := flat.graph(); err != nil || got != built {
		t.Fatalf("flat epoch graph() = %p, %v; want the Graph compaction folded (%p)", got, err, built)
	}
}

// TestConcurrentSolvesBuildGraphOnce: solves racing on one layered
// snapshot share a single rebuilt Graph.
func TestConcurrentSolvesBuildGraphOnce(t *testing.T) {
	ctx := context.Background()
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithSampleSize(100), WithSeed(3), deltaHoldLayers(),
		WithSolverDefaults(Options{K: 1, Z: 100, Seed: 3, R: 6, L: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Apply(ctx, deltaTestBatches(t, g)[0]...); err != nil {
		t.Fatal(err)
	}
	snap := eng.snap.Load()
	const solvers = 8
	seen := make([]*Graph, solvers)
	var wg sync.WaitGroup
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Solve(ctx, Request{S: 0, T: NodeID(10 + i)}); err != nil && !errors.Is(err, ErrNoPath) {
				t.Error(err)
			}
			seen[i], _ = snap.graph()
		}(i)
	}
	wg.Wait()
	if eng.snap.Load() != snap {
		t.Fatal("the snapshot rotated under the solves")
	}
	for i, got := range seen {
		if got == nil || got != seen[0] {
			t.Fatalf("solver %d saw Graph %p, solver 0 saw %p: the epoch was rebuilt more than once", i, got, seen[0])
		}
	}
}
