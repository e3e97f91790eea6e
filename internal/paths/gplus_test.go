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
// materialised G+, on the pools a served BE solve extracts: 20 pairs 3–5
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
					samePaths(t, label+" TopL", TopL(context.Background(), plus, q.S, q.T, 30), want)
					samePaths(t, label+" TopLPairs", TopLPairs(context.Background(), g, res.Pairs, q.S, q.T, 30), want)
				}
			}
		}
	}
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
		samePaths(t, label, TopL(context.Background(), plus, s, tt, l), referenceTopL(plus, s, tt, l))
	})
}

// FuzzTopLPairsMatchesReference decodes a small graph, two candidate
// sides (which may overlap, in any order, and whose pairs may already be
// edges of g), ζ, a hop bound, a pair and l, and checks that TopLPairs over
// candidates.NewPairs finds what the reference finds on the materialised
// g.WithEdges of the listed pairs.
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
		samePaths(t, label, TopLPairs(context.Background(), g, set, s, tt, l), referenceTopL(g.WithEdges(extra), s, tt, l))
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
		qs = append(qs, query{g: g, plus: plus, set: set,
			want: referenceTopL(plus, 0, tt, 8), wantPairs: referenceTopL(g.WithEdges(set.List()), 0, tt, 8)})
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
