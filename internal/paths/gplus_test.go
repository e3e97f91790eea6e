package paths

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datasets"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// TestTopLMatchesReferenceOnServedPools pins TopL on the materialised G+,
// and TopLPairs on G with the pair set, to the reference run on the
// materialised G+ (see samePool), and TopLPairs to TopL there bit for bit,
// on the pools a served BE solve extracts: 20 pairs 3–5
// hops apart on lastfm×0.08 and dblp×0.08 (undirected) and astopo×0.08
// and twitter×0.08 (directed), with E+ as elimination keeps it at the
// engine defaults (r = 100, ζ = 0.5, mcvec at z = 500). The first 5 pairs
// also run at ζ = 0.3 and at h = 2. Each dataset runs as generated, then
// again after half its edges are re-probed to p ∈ [0.1, 0.9) the way a
// served dataset's writer re-probes them.
func TestTopLMatchesReferenceOnServedPools(t *testing.T) {
	configs := []struct {
		name  string
		pairs int
		opt   candidates.Options
	}{
		{"defaults", 20, candidates.Options{R: 100, Zeta: 0.5}},
		{"zeta=0.3", 5, candidates.Options{R: 100, Zeta: 0.3}},
		{"h=2", 5, candidates.Options{R: 100, H: 2, Zeta: 0.5}},
	}
	for _, name := range []string{"lastfm", "astopo", "dblp", "twitter"} {
		g, err := datasets.Load(name, 0.08, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs := datasets.Queries(g, 20, 3, 5, 1)
		if len(qs) != 20 {
			t.Fatalf("%s: %d query pairs, want 20", name, len(qs))
		}
		for _, state := range []string{"generated", "re-probed"} {
			if state == "re-probed" {
				r := rand.New(rand.NewSource(2))
				for eid := int32(0); eid < int32(g.M()); eid++ {
					if r.Intn(2) == 0 {
						continue
					}
					if err := g.SetProb(eid, float64(100+r.Intn(800))/1000); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, cfg := range configs {
				for i, q := range qs[:cfg.pairs] {
					res := candidates.Eliminate(g, q.S, q.T, sampling.NewMCVec(500, 7), cfg.opt)
					plus := g.WithEdges(res.Edges)
					if plus.M() != g.M()+len(res.Edges) {
						t.Fatalf("%s %s pair %d: elimination kept an edge WithEdges skips", name, state, i)
					}
					label := fmt.Sprintf("%s %s %s pair %d (%d->%d, |E+|=%d)", name, state, cfg.name, i, q.S, q.T, len(res.Edges))
					want := referenceTopL(plus, q.S, q.T, 30)
					if len(want) == 0 {
						t.Fatalf("%s: no path", label)
					}
					got := TopL(context.Background(), plus, q.S, q.T, 30)
					samePool(t, label+" TopL", plus, got, want)
					samePaths(t, label+" TopLPairs", TopLPairs(context.Background(), g, res.Pairs, q.S, q.T, 30), got)
				}
			}
		}
	}
}

// TestTopLServedTieBand pins the cut through a tie band on a served pool:
// lastfm×0.08's first served pair, at the engine defaults, has more paths
// of the 30th path's probability than fit in the top 30. TopLPairs at
// l = 30 must return the first 30 of its list at l = 400, so the tied
// paths that make the cut are the first the enumeration meets at any l,
// and a valid top 30 by the reference.
func TestTopLServedTieBand(t *testing.T) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := datasets.Queries(g, 1, 3, 5, 1)[0]
	res := candidates.EliminatePairs(g, q.S, q.T, sampling.NewMCVec(500, 7), candidates.Options{R: 100, Zeta: 0.5})
	const l = 30
	got := TopLPairs(context.Background(), g, res.Pairs, q.S, q.T, l)
	long := TopLPairs(context.Background(), g, res.Pairs, q.S, q.T, 400)
	if len(got) != l || len(long) <= l {
		t.Fatalf("%d and %d paths", len(got), len(long))
	}
	tied := 0
	for _, p := range long {
		if p.Prob == got[l-1].Prob {
			tied++
		}
	}
	inCut := 0
	for _, p := range got {
		if p.Prob == got[l-1].Prob {
			inCut++
		}
	}
	if long[l].Prob != got[l-1].Prob || tied <= inCut {
		t.Fatalf("fixture: the band of p=%v (%d paths, %d in the cut) no longer crosses l", got[l-1].Prob, tied, inCut)
	}
	for i := 1; i < len(long); i++ {
		if classLess(long[i], long[i-1]) {
			t.Fatalf("paths %d and %d out of order: %v, %v", i-1, i, long[i-1], long[i])
		}
	}
	samePaths(t, "prefix", got, long[:l])
	plus := g.WithEdges(res.Pairs.List())
	samePool(t, "reference", plus, got, referenceTopL(plus, q.S, q.T, l))
}

// FuzzTopLWithMatchesReference decodes a small graph, a list of extra
// edges, a pair and l, and checks that TopL on the materialised
// g.WithEdges(extra), G+ with E+ listed, finds what the reference finds
// there. The extra edges keep what WithEdges would add (no self-loops, no
// edge of g, each pair once).
func FuzzTopLWithMatchesReference(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 4, 5, 1, 0, 5, 2, 3})
	f.Add([]byte{7, 1, 0, 1, 2, 1, 2, 1, 2, 3, 3, 0, 3, 0, 3, 6, 2, 5, 6, 1, 6, 5, 2, 1, 4})
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 2, 2, 3, 1, 3, 4, 2, 0, 4, 2, 4, 0, 3, 0, 2, 2})
	dyadic := []float64{0, 0.25, 0.5, 0.75, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%9
		directed := data[1]%2 == 1
		nBase := int(data[2]) % 16
		rest := data[3:]
		edge := func() (ugraph.Edge, bool) {
			if len(rest) < 3 {
				return ugraph.Edge{}, false
			}
			e := ugraph.Edge{
				U: ugraph.NodeID(int(rest[0]) % n),
				V: ugraph.NodeID(int(rest[1]) % n),
				P: dyadic[int(rest[2])%len(dyadic)],
			}
			rest = rest[3:]
			return e, true
		}
		g := ugraph.New(n, directed)
		for i := 0; i < nBase; i++ {
			e, ok := edge()
			if !ok {
				break
			}
			if e.U != e.V && !g.HasEdge(e.U, e.V) {
				g.MustAddEdge(e.U, e.V, e.P)
			}
		}
		var extra []ugraph.Edge
		plus := g.Clone()
		for len(rest) > 3 {
			e, _ := edge()
			if e.U != e.V && !plus.HasEdge(e.U, e.V) {
				plus.MustAddEdge(e.U, e.V, e.P)
				extra = append(extra, e)
			}
		}
		s, tt, l := ugraph.NodeID(0), ugraph.NodeID(n-1), 1
		if len(rest) > 0 {
			l += int(rest[0]) % 12
		}
		label := fmt.Sprintf("n=%d directed=%v base=%v extra=%v l=%d", n, directed, g.Edges(), extra, l)
		plus = g.WithEdges(extra)
		samePool(t, label, plus, TopL(context.Background(), plus, s, tt, l), referenceTopL(plus, s, tt, l))
	})
}

// FuzzTopLPairsMatchesReference decodes a small graph, two candidate
// sides (which may overlap, in any order, and whose pairs may already be
// edges of g), ζ, a hop bound, a pair and l, and checks that TopLPairs over
// candidates.NewPairs finds what the reference finds on the materialised
// g.WithEdges of the listed pairs, and what TopL finds there, bit for bit.
func FuzzTopLPairsMatchesReference(f *testing.F) {
	f.Add([]byte{6, 0, 2, 0, 5, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 4, 5, 1, 4, 0, 1, 2, 3, 4, 3, 4, 5, 2, 9})
	f.Add([]byte{7, 1, 1, 0, 6, 0, 1, 2, 1, 2, 1, 2, 3, 3, 0, 3, 0, 3, 6, 2, 5, 3, 0, 2, 4, 5, 6, 5, 3, 1, 7})
	f.Add([]byte{8, 0, 3, 2, 7, 0, 1, 0, 1, 2, 2, 2, 3, 1, 3, 4, 2, 4, 5, 3, 5, 6, 1, 6, 7, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0, 11})
	dyadic := []float64{0, 0.25, 0.5, 0.75, 1}
	zetas := []float64{0, 0.25, 0.5, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 2 + int(data[0])%9
		directed := data[1]%2 == 1
		zeta := zetas[int(data[2])%len(zetas)]
		h := int(data[3]) % 3
		nBase := int(data[4]) % 16
		rest := data[5:]
		next := func() (int, bool) {
			if len(rest) == 0 {
				return 0, false
			}
			b := int(rest[0])
			rest = rest[1:]
			return b, true
		}
		g := ugraph.New(n, directed)
		for i := 0; i < nBase && len(rest) >= 3; i++ {
			u, _ := next()
			v, _ := next()
			p, _ := next()
			e := ugraph.Edge{U: ugraph.NodeID(u % n), V: ugraph.NodeID(v % n), P: dyadic[p%len(dyadic)]}
			if e.U != e.V && !g.HasEdge(e.U, e.V) {
				g.MustAddEdge(e.U, e.V, e.P)
			}
		}
		side := func() []ugraph.NodeID {
			k, _ := next()
			var out []ugraph.NodeID
			seen := make([]bool, n)
			for k = 1 + k%n; k > 0; k-- {
				b, ok := next()
				if !ok {
					break
				}
				if v := ugraph.NodeID(b % n); !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			return out
		}
		from, to := side(), side()
		l := 1
		if b, ok := next(); ok {
			l += b % 12
		}
		set := candidates.NewPairs(g, from, to, candidates.Options{H: h, Zeta: zeta})
		extra := set.List()
		s, tt := ugraph.NodeID(0), ugraph.NodeID(n-1)
		label := fmt.Sprintf("n=%d directed=%v base=%v from=%v to=%v zeta=%v h=%d extra=%v l=%d", n, directed, g.Edges(), from, to, zeta, h, extra, l)
		plus := g.WithEdges(extra)
		got := TopLPairs(context.Background(), g, set, s, tt, l)
		samePool(t, label, plus, got, referenceTopL(plus, s, tt, l))
		samePaths(t, label+" TopL", got, TopL(context.Background(), plus, s, tt, l))
	})
}

// TestTopLConcurrentCalls runs TopL on a materialised G+, TopLPairs and
// MostReliable from several goroutines at once over graphs of different
// sizes, so pooled searchers move between graphs, callers and forms of E+,
// and checks every answer against the one a lone call gives.
func TestTopLConcurrentCalls(t *testing.T) {
	type query struct {
		g, plus         *ugraph.Graph
		set             *candidates.Pairs
		want, wantPairs []Path
	}
	var qs []query
	for trial := 0; trial < 12; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := 6 + 4*(trial%4)
		g := randomGraph(r, n, 2*n, trial%2 == 0)
		plus := g.Clone()
		for plus.M() < g.M()+n/2 {
			e := ugraph.Edge{U: ugraph.NodeID(r.Intn(n)), V: ugraph.NodeID(r.Intn(n)), P: 0.5}
			if e.U != e.V && !plus.HasEdge(e.U, e.V) {
				plus.MustAddEdge(e.U, e.V, e.P)
			}
		}
		side := func() []ugraph.NodeID {
			var out []ugraph.NodeID
			for _, v := range r.Perm(n)[:1+r.Intn(n)] {
				out = append(out, ugraph.NodeID(v))
			}
			return out
		}
		set := candidates.NewPairs(g, side(), side(), candidates.Options{Zeta: 0.25})
		tt := ugraph.NodeID(n - 1)
		q := query{g: g, plus: plus, set: set,
			want: TopL(context.Background(), plus, 0, tt, 8), wantPairs: TopLPairs(context.Background(), g, set, 0, tt, 8)}
		samePool(t, fmt.Sprintf("query %d", trial), plus, q.want, referenceTopL(plus, 0, tt, 8))
		gp := g.WithEdges(set.List())
		samePool(t, fmt.Sprintf("query %d pair set", trial), gp, q.wantPairs, referenceTopL(gp, 0, tt, 8))
		qs = append(qs, q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 3*4*len(qs)) // every check of every worker can fail
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range qs {
				q := qs[(i+w)%len(qs)]
				tt := ugraph.NodeID(q.g.N() - 1)
				got := TopL(context.Background(), q.plus, 0, tt, 8)
				if fmt.Sprint(got) != fmt.Sprint(q.want) {
					errs <- fmt.Sprintf("worker %d query %d: %v, reference %v", w, (i+w)%len(qs), got, q.want)
				}
				if got := TopLPairs(context.Background(), q.g, q.set, 0, tt, 8); fmt.Sprint(got) != fmt.Sprint(q.wantPairs) {
					errs <- fmt.Sprintf("worker %d query %d: pair set %v, reference %v", w, (i+w)%len(qs), got, q.wantPairs)
				}
				if p, ok := MostReliable(q.g, 0, tt); ok && p.Prob > q.want[0].Prob {
					errs <- fmt.Sprintf("worker %d query %d: MostReliable on G beats G+", w, (i+w)%len(qs))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
