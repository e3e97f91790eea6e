package candidates

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ugraph"
)

// referenceMissingPairs is the map-based candidate listing that the
// mark-based NewPairs replaced, kept as the oracle for its output and
// order.
func referenceMissingPairs(g *ugraph.Graph, from, to []ugraph.NodeID, opt Options) []ugraph.Edge {
	var out []ugraph.Edge
	inFrom := make(map[ugraph.NodeID]bool, len(from))
	for _, u := range from {
		inFrom[u] = true
	}
	inTo := make(map[ugraph.NodeID]bool, len(to))
	for _, v := range to {
		inTo[v] = true
	}
	for _, u := range from {
		var allowed map[ugraph.NodeID]bool
		if opt.H > 0 {
			allowed = referenceWithinHops(g, u, opt.H)
		}
		for _, v := range to {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if allowed != nil && !allowed[v] {
				continue
			}
			if !g.Directed() && u > v && inFrom[v] && inTo[u] {
				continue
			}
			out = append(out, ugraph.Edge{U: u, V: v, P: opt.Zeta})
		}
	}
	return out
}

// referenceAllMissing is the AllMissing that listed each node's h-hop
// ball from a map and sorted it.
func referenceAllMissing(g *ugraph.Graph, h int, zeta float64) []ugraph.Edge {
	var out []ugraph.Edge
	n := g.N()
	for ui := 0; ui < n; ui++ {
		u := ugraph.NodeID(ui)
		var targets []ugraph.NodeID
		if h > 0 {
			for v := range referenceWithinHops(g, u, h) {
				targets = append(targets, v)
			}
			sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		} else {
			for vi := 0; vi < n; vi++ {
				targets = append(targets, ugraph.NodeID(vi))
			}
		}
		for _, v := range targets {
			if emitMissing(g, u, v) {
				out = append(out, ugraph.Edge{U: u, V: v, P: zeta})
			}
		}
	}
	return out
}

func referenceWithinHops(g *ugraph.Graph, src ugraph.NodeID, h int) map[ugraph.NodeID]bool {
	c := g.Freeze()
	dist := map[ugraph.NodeID]int{src: 0}
	queue := []ugraph.NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] >= h {
			continue
		}
		for _, arcs := range [][]ugraph.Arc{c.Out(u), c.In(u)} {
			for _, a := range arcs {
				if _, ok := dist[a.To]; !ok {
					dist[a.To] = dist[u] + 1
					queue = append(queue, a.To)
				}
			}
		}
	}
	out := make(map[ugraph.NodeID]bool, len(dist))
	for v := range dist {
		out[v] = true
	}
	return out
}

func randomGraph(rnd *rand.Rand, n, m int, directed bool) *ugraph.Graph {
	g := ugraph.New(n, directed)
	for g.M() < m {
		u, v := ugraph.NodeID(rnd.Intn(n)), ugraph.NodeID(rnd.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 0.1+0.8*rnd.Float64())
		}
	}
	return g
}

// randomSide draws k distinct nodes in random order, the shape of a top-r
// side (which need not contain any particular node).
func randomSide(rnd *rand.Rand, n, k int) []ugraph.NodeID {
	side := make([]ugraph.NodeID, 0, k)
	for _, v := range rnd.Perm(n)[:k] {
		side = append(side, ugraph.NodeID(v))
	}
	return side
}

// TestMissingPairsMatchesReference: the mark-based NewPairs, listed, and
// AllMissing emit exactly the reference implementation's edges, in the same
// order, on directed and undirected graphs, with and without the hop
// constraint, including overlapping and disjoint sides.
func TestMissingPairsMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for _, directed := range []bool{false, true} {
		for _, h := range []int{0, 1, 2, 3} {
			for trial := 0; trial < 8; trial++ {
				n := 10 + rnd.Intn(50)
				g := randomGraph(rnd, n, n+rnd.Intn(3*n), directed)
				name := fmt.Sprintf("directed=%v/h=%d/trial=%d", directed, h, trial)
				opt := Options{H: h, Zeta: 0.5}
				from, to := randomSide(rnd, n, 1+rnd.Intn(n)), randomSide(rnd, n, 1+rnd.Intn(n))
				if got, want := NewPairs(g, from, to, opt).List(), referenceMissingPairs(g, from, to, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: NewPairs\n got %v\nwant %v", name, got, want)
				}
				// Identical sides exercise the undirected one-orientation rule.
				if got, want := NewPairs(g, from, from, opt).List(), referenceMissingPairs(g, from, from, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: NewPairs on equal sides\n got %v\nwant %v", name, got, want)
				}
				if got, want := AllMissing(g, h, 0.3), referenceAllMissing(g, h, 0.3); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AllMissing\n got %v\nwant %v", name, got, want)
				}
			}
		}
	}
}

// TestPairsIndexMatchesList: on the sets TestMissingPairsMatchesReference
// draws, candidate k of Pairs is the k-th listed edge both ways round —
// Edge(k) returns it and Rank maps its pair back to k — and Len counts the
// list.
func TestPairsIndexMatchesList(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 16; trial++ {
			n := 2 + rnd.Intn(150)
			g := randomGraph(rnd, n, n+rnd.Intn(2*n), directed)
			from, to := randomSide(rnd, n, 1+rnd.Intn(n)), randomSide(rnd, n, 1+rnd.Intn(n))
			ps := NewPairs(g, from, to, Options{H: trial % 3, Zeta: 0.25})
			list := ps.List()
			if ps.Len() != len(list) {
				t.Fatalf("directed=%v trial %d: Len %d, list %d", directed, trial, ps.Len(), len(list))
			}
			fromIdx, toIdx := map[ugraph.NodeID]int{}, map[ugraph.NodeID]int{}
			for i, u := range from {
				fromIdx[u] = i
			}
			for j, v := range to {
				toIdx[v] = j
			}
			for k, e := range list {
				if got := ps.Edge(k); got != e {
					t.Fatalf("directed=%v trial %d: Edge(%d) = %v, listed %v", directed, trial, k, got, e)
				}
				if got := ps.Rank(fromIdx[e.U], toIdx[e.V]); got != k {
					t.Fatalf("directed=%v trial %d: Rank of %v = %d, want %d", directed, trial, e, got, k)
				}
			}
		}
	}
}
