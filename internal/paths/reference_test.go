package paths

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// referenceTopL is the original top-l enumeration, kept as the oracle the
// production searcher is pinned to: Dijkstra recomputes the log on every
// relaxation, bans edges through a per-spur map and allocates its arrays
// per call.
func referenceTopL(g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	first, ok := referenceDijkstra(g, s, t, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var candidates pq.Heap[Path]
	bannedNode := make([]bool, g.N())
	for len(result) < l {
		prev := result[len(result)-1]
		for i := 0; i+1 < len(prev.Nodes); i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]
			bannedEdge := make(map[int32]bool)
			for _, p := range result {
				if pathHasPrefix(p, rootNodes) {
					bannedEdge[p.Edges[i]] = true
				}
			}
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNode[v] = true
			}
			spurPath, ok := referenceDijkstra(g, spur, t, bannedEdge, bannedNode)
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNode[v] = false
			}
			if !ok {
				continue
			}
			total := joinPaths(g, rootNodes, rootEdges, spurPath)
			key := pathKey(total)
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates.Push(-math.Log(maxProb(total.Prob)), total)
		}
		if candidates.Len() == 0 {
			break
		}
		_, best := candidates.Pop()
		result = append(result, best)
	}
	return result
}

func referenceDijkstra(g *ugraph.Graph, s, t ugraph.NodeID, bannedEdge map[int32]bool, bannedNode []bool) (Path, bool) {
	c := g.Freeze()
	n := g.N()
	dist := make([]float64, n)
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentEdge[i] = -1
	}
	dist[s] = 0
	var h pq.Heap[ugraph.NodeID]
	h.Push(0, s)
	for h.Len() > 0 {
		d, u := h.Pop()
		if done[u] || d > dist[u] {
			continue
		}
		done[u] = true
		if u == t {
			break
		}
		for _, a := range c.Out(u) {
			if done[a.To] {
				continue
			}
			if bannedEdge != nil && bannedEdge[a.EID] {
				continue
			}
			if bannedNode != nil && bannedNode[a.To] {
				continue
			}
			p := c.Prob(a.EID)
			if p <= 0 {
				continue
			}
			nd := d - math.Log(p)
			if nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = int32(u)
				parentEdge[a.To] = a.EID
				h.Push(nd, a.To)
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return Path{}, false
	}
	return reconstruct(g, s, t, parent, parentEdge), true
}

// samePaths fails unless got and want list the same paths in the same
// order with bit-identical probabilities.
func samePaths(t *testing.T, label string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			fmt.Sprint(g.Nodes) != fmt.Sprint(w.Nodes) || fmt.Sprint(g.Edges) != fmt.Sprint(w.Edges) {
			t.Fatalf("%s: path %d = %v %v p=%v, reference %v %v p=%v", label, i, g.Nodes, g.Edges, g.Prob, w.Nodes, w.Edges, w.Prob)
		}
	}
}

// TestTopLMatchesReference pins TopL and MostReliable to the reference on
// seeded random graphs of both orientations. Some edges carry probability
// zero (never traversable), and half the graphs draw probabilities from a
// few dyadic values so equal-weight ties are common and the tie order must
// match too. l runs up to one past the number of simple s-t paths, so
// exhausting the enumeration is covered.
func TestTopLMatchesReference(t *testing.T) {
	dyadic := []float64{0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 120; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		directed := trial%2 == 0
		n := 5 + r.Intn(6)
		g := randomGraph(r, n, n+r.Intn(2*n), directed)
		for eid := int32(0); eid < int32(g.M()); eid++ {
			switch {
			case r.Intn(8) == 0:
				if err := g.SetProb(eid, 0); err != nil {
					t.Fatal(err)
				}
			case trial%4 >= 2:
				if err := g.SetProb(eid, dyadic[r.Intn(len(dyadic))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		s, tt := ugraph.NodeID(r.Intn(n)), ugraph.NodeID(r.Intn(n))
		if s == tt {
			tt = (tt + 1) % ugraph.NodeID(n)
		}
		simple := len(allSimplePaths(g, s, tt))
		for _, l := range []int{1, 3, simple, simple + 1} {
			label := fmt.Sprintf("trial %d (n=%d m=%d directed=%v) %d->%d l=%d", trial, n, g.M(), directed, s, tt, l)
			got := TopL(context.Background(), g, s, tt, l)
			samePaths(t, label, got, referenceTopL(g, s, tt, l))
			if l > simple && len(got) != simple {
				t.Fatalf("%s: %d paths, but the graph has %d simple ones", label, len(got), simple)
			}
		}
		got, gotOK := MostReliable(g, s, tt)
		want, wantOK := referenceDijkstra(g, s, tt, nil, nil)
		if gotOK != wantOK {
			t.Fatalf("trial %d: MostReliable ok=%v, reference %v", trial, gotOK, wantOK)
		}
		if gotOK {
			samePaths(t, fmt.Sprintf("trial %d MostReliable", trial), []Path{got}, []Path{want})
		}
	}
}
