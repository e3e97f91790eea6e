package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ugraph"
)

// memoStream returns at least 100 query pairs on g that share endpoints:
// for each of 34 base pairs (s_i, t_i), 3–5 hops apart, the pair itself,
// (s_i, t_{i+1}), whose From vector an earlier pair sampled, and
// (s_{i+2}, t_i), whose To vector an earlier pair sampled.
func memoStream(t *testing.T, g *ugraph.Graph) []datasets.Query {
	t.Helper()
	qs := datasets.Queries(g, 34, 3, 5, 1)
	if len(qs) != 34 {
		t.Fatalf("%d base pairs, want 34", len(qs))
	}
	var out []datasets.Query
	for i, q := range qs {
		for _, p := range []datasets.Query{q, {S: q.S, T: qs[(i+1)%len(qs)].T}, {S: qs[(i+2)%len(qs)].S, T: q.T}} {
			if p.S != p.T {
				out = append(out, p)
			}
		}
	}
	if len(out) < 100 {
		t.Fatalf("%d stream pairs, want at least 100", len(out))
	}
	return out
}

// memoRun is one solve of the memo stream; Vectors is left to the caller.
type memoRun struct {
	label string
	opt   Options
	solve func(ctx context.Context, g *ugraph.Graph, q datasets.Query, opt Options) (any, error)
}

func memoRuns() []memoRun {
	single := func(m Method) func(context.Context, *ugraph.Graph, datasets.Query, Options) (any, error) {
		return func(ctx context.Context, g *ugraph.Graph, q datasets.Query, opt Options) (any, error) {
			sol, err := Solve(ctx, g, q.S, q.T, m, opt)
			sol.ElimTime, sol.SelectTime = 0, 0
			return sol, err
		}
	}
	budget := func(ctx context.Context, g *ugraph.Graph, q datasets.Query, opt Options) (any, error) {
		sol, err := SolveTotalBudget(ctx, g, q.S, q.T, 1.0, opt)
		sol.Elapsed = 0
		return sol, err
	}
	// BE and IP at the served defaults share vectors; topk (small pools,
	// so that scoring every candidate stays cheap) and total-budget share
	// vectors at a smaller Z.
	return []memoRun{
		{"be", Options{Workers: 1}, single(MethodBE)},
		{"ip", Options{Workers: 1}, single(MethodIP)},
		{"topk", Options{Workers: 1, R: 5, Z: 50}, single(MethodIndividualTopK)},
		{"total-budget", Options{Workers: 1, Z: 50}, budget},
	}
}

// TestVectorMemoMatchesSampling: solves that take elimination vectors from
// one shared memo are bit-identical to solves that sample them, for each
// method over a stream in which From hits meet To misses and the reverse.
func TestVectorMemoMatchesSampling(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := memoStream(t, g)
	ctx := context.Background()
	var counts MemoCounts
	memo := NewVectorMemo(g, &counts)
	runs := memoRuns()
	cases := make(map[string]map[[2]bool]int)
	for i, q := range stream {
		run := runs[(i/3)%len(runs)]
		opt := run.opt.withDefaults()
		want, werr := run.solve(ctx, g, q, opt)
		memo.mu.Lock()
		_, fromHit := memo.vecs[vectorKey{seed: opt.Seed, z: opt.Z, forward: true, node: q.S}]
		_, toHit := memo.vecs[vectorKey{seed: opt.Seed, z: opt.Z, forward: false, node: q.T}]
		memo.mu.Unlock()
		if cases[run.label] == nil {
			cases[run.label] = make(map[[2]bool]int)
		}
		cases[run.label][[2]bool{fromHit, toHit}]++
		opt.Vectors = memo
		got, gerr := run.solve(ctx, g, q, opt)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %d->%d: memo gave %+v (%v), sampling %+v (%v)", run.label, q.S, q.T, got, gerr, want, werr)
		}
	}
	for _, run := range runs {
		for _, c := range [][2]bool{{true, false}, {false, true}} {
			if cases[run.label][c] == 0 {
				t.Errorf("%s: no pair with From hit %v and To hit %v (%v)", run.label, c[0], c[1], cases[run.label])
			}
		}
	}
	if counts.Hits.Load() == 0 || counts.Hits.Load()+counts.Misses.Load() != uint64(2*len(stream)) {
		t.Errorf("%d hits and %d misses over %d solves", counts.Hits.Load(), counts.Misses.Load(), len(stream))
	}
}

// TestVectorMemoSkipsCancelled: a solve whose context fired during
// elimination stores no vector, so the next solve of the query is the one
// a memo-free solve gives.
func TestVectorMemoSkipsCancelled(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := datasets.Queries(g, 1, 3, 5, 1)[0]
	var counts MemoCounts
	memo := NewVectorMemo(g, &counts)
	opt := Options{Workers: 1, Vectors: memo}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(cancelled, g, q.S, q.T, MethodBE, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: %v", err)
	}
	if len(memo.vecs) != 0 || memo.entries != 0 {
		t.Fatalf("cancelled solve stored %d vectors", len(memo.vecs))
	}
	got, err := Solve(context.Background(), g, q.S, q.T, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Vectors = nil
	want, err := Solve(context.Background(), g, q.S, q.T, MethodBE, opt)
	if err != nil {
		t.Fatal(err)
	}
	got.ElimTime, got.SelectTime, want.ElimTime, want.SelectTime = 0, 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after a cancelled solve: %+v, want %+v", got, want)
	}
}

// TestVectorMemoBypassedByMultiMinMax: multi-min and multi-max BE
// eliminate on a graph that grows round by round, so they never consult
// the memo, and their results equal memo-free ones even when the memo
// holds vectors for every source and target.
func TestVectorMemoBypassedByMultiMinMax(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := datasets.Queries(g, 3, 3, 5, 1)
	var sources, targets []ugraph.NodeID
	var counts MemoCounts
	memo := NewVectorMemo(g, &counts)
	opt := Options{Workers: 1, Z: 200}
	ctx := context.Background()
	for _, q := range qs {
		sources, targets = append(sources, q.S), append(targets, q.T)
		memoOpt := opt
		memoOpt.Vectors = memo
		if _, err := Solve(ctx, g, q.S, q.T, MethodBE, memoOpt); err != nil {
			t.Fatal(err)
		}
	}
	lookups := counts.Misses.Load() + counts.Hits.Load()
	for _, agg := range []Aggregate{AggMin, AggMax} {
		want, err := SolveMulti(ctx, g, sources, targets, agg, MethodBE, opt)
		if err != nil {
			t.Fatal(err)
		}
		memoOpt := opt
		memoOpt.Vectors = memo
		got, err := SolveMulti(ctx, g, sources, targets, agg, MethodBE, memoOpt)
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("multi-%s with the memo: %+v, without: %+v", agg, got, want)
		}
	}
	if n := counts.Misses.Load() + counts.Hits.Load(); n != lookups {
		t.Fatalf("multi solves made %d memo lookups", n-lookups)
	}
}

// TestVectorMemoCap: past maxMemoEntries stored entries, vectors are
// handed out but not stored.
func TestVectorMemoCap(t *testing.T) {
	g := ugraph.New(maxMemoEntries/2+1, false)
	g.MustAddEdge(0, 1, 0.5)
	var counts MemoCounts
	memo := NewVectorMemo(g, &counts)
	opt := Options{Workers: 1, Z: 64}.withDefaults()
	ctx := context.Background()
	for _, node := range []ugraph.NodeID{0, 1, 0, 1} {
		smp, err := opt.elimSampler(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if vec := memo.vector(ctx, smp, node, true, opt); len(vec) != g.N() || vec[node] != 1 {
			t.Fatalf("From(%d) has %d entries, entry %v at the node", node, len(vec), vec[node])
		}
	}
	if len(memo.vecs) != 1 || memo.entries != g.N() {
		t.Fatalf("memo holds %d vectors, %d entries; want 1 vector of %d", len(memo.vecs), memo.entries, g.N())
	}
	if counts.Hits.Load() != 1 || counts.Misses.Load() != 3 {
		t.Fatalf("%d hits, %d misses; want 1 and 3", counts.Hits.Load(), counts.Misses.Load())
	}
}
