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
			total := joinPaths(g.Prob, rootNodes, rootEdges, spurPath)
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
	return reconstruct(g.Prob, s, t, parent, parentEdge), true
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

// referenceImproveMostReliablePath is ImproveMostReliablePath as it was
// before blue arcs moved onto the packed weighted rows, kept as the oracle
// TestMRPMatchesReference pins it to: it takes math.Log of every arc it
// relaxes and keeps a done flag per state.
func referenceImproveMostReliablePath(ctx context.Context, g *ugraph.Graph, candidates []ugraph.Edge, s, t ugraph.NodeID, k int) MRPResult {
	if k < 0 {
		k = 0
	}
	c := g.Freeze() // blue-edge relaxations walk the flat snapshot
	n := g.N()
	layers := k + 1
	// Red adjacency: candidate edges by source node (both directions for
	// undirected graphs).
	type redArc struct {
		to  ugraph.NodeID
		idx int32
	}
	redOut := make([][]redArc, n)
	for i, e := range candidates {
		if e.P <= 0 {
			continue
		}
		redOut[e.U] = append(redOut[e.U], redArc{to: e.V, idx: int32(i)})
		if !g.Directed() {
			redOut[e.V] = append(redOut[e.V], redArc{to: e.U, idx: int32(i)})
		}
	}
	dist := make([]float64, layers*n)
	parent := make([]int32, layers*n)
	parentRed := make([]int32, layers*n) // candidate index used to arrive, or -1
	done := make([]bool, layers*n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentRed[i] = -1
	}
	state := func(v ugraph.NodeID, layer int) int32 { return int32(layer*n + int(v)) }
	start := state(s, 0)
	dist[start] = 0
	var h pq.Heap[int32]
	h.Push(0, start)
	settled := 0
	for h.Len() > 0 {
		d, st := h.Pop()
		if done[st] || d > dist[st] {
			continue
		}
		done[st] = true
		settled++
		if settled&4095 == 0 && ctx != nil && ctx.Err() != nil {
			return MRPResult{}
		}
		layer := int(st) / n
		u := ugraph.NodeID(int(st) % n)
		for _, a := range c.Out(u) {
			p := c.Prob(a.EID)
			if p <= 0 {
				continue
			}
			ns := state(a.To, layer)
			nd := d - math.Log(p)
			if nd < dist[ns] {
				dist[ns] = nd
				parent[ns] = st
				parentRed[ns] = -1
				h.Push(nd, ns)
			}
		}
		if layer < k {
			for _, ra := range redOut[u] {
				e := candidates[ra.idx]
				ns := state(ra.to, layer+1)
				nd := d - math.Log(e.P)
				if nd < dist[ns] {
					dist[ns] = nd
					parent[ns] = st
					parentRed[ns] = ra.idx
					h.Push(nd, ns)
				}
			}
		}
	}
	res := MRPResult{}
	if !math.IsInf(dist[state(t, 0)], 1) {
		res.BaseProb = math.Exp(-dist[state(t, 0)])
	}
	bestLayer, bestDist := -1, math.Inf(1)
	for layer := 0; layer < layers; layer++ {
		if d := dist[state(t, layer)]; d < bestDist {
			bestDist = d
			bestLayer = layer
		}
	}
	if bestLayer < 0 {
		return res // t unreachable even with every candidate
	}
	res.Prob = math.Exp(-bestDist)
	for st := state(t, bestLayer); st != start && st >= 0; st = parent[st] {
		if idx := parentRed[st]; idx >= 0 {
			res.Chosen = append(res.Chosen, candidates[idx])
		}
	}
	// Reverse for s→t order.
	for i, j := 0, len(res.Chosen)-1; i < j; i, j = i+1, j-1 {
		res.Chosen[i], res.Chosen[j] = res.Chosen[j], res.Chosen[i]
	}
	return res
}

// TestMRPMatchesReference pins ImproveMostReliablePath to the reference on
// seeded random graphs of both orientations, with p = 0 edges and, on half
// the graphs, dyadic probabilities on edges and candidates so equal-weight
// ties are common: the chosen edges and both probabilities must match bit
// for bit.
func TestMRPMatchesReference(t *testing.T) {
	dyadic := []float64{0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		directed := trial%2 == 0
		ties := trial%4 >= 2
		n := 4 + r.Intn(9)
		g := randomGraph(r, n, n+r.Intn(2*n), directed)
		for eid := int32(0); eid < int32(g.M()); eid++ {
			switch {
			case r.Intn(8) == 0:
				if err := g.SetProb(eid, 0); err != nil {
					t.Fatal(err)
				}
			case ties:
				if err := g.SetProb(eid, dyadic[r.Intn(len(dyadic))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var cands []ugraph.Edge
		for i := 0; i < 3*n; i++ {
			u, v := ugraph.NodeID(r.Intn(n)), ugraph.NodeID(r.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			p := 0.05 + 0.9*r.Float64()
			switch {
			case r.Intn(8) == 0:
				p = 0
			case ties:
				p = dyadic[r.Intn(len(dyadic))]
			}
			cands = append(cands, ugraph.Edge{U: u, V: v, P: p})
		}
		s, tt := ugraph.NodeID(r.Intn(n)), ugraph.NodeID(r.Intn(n))
		if s == tt {
			tt = (tt + 1) % ugraph.NodeID(n)
		}
		for _, k := range []int{0, 1, 2, 4} {
			got := ImproveMostReliablePath(context.Background(), g, cands, s, tt, k)
			want := referenceImproveMostReliablePath(context.Background(), g, cands, s, tt, k)
			if fmt.Sprint(got.Chosen) != fmt.Sprint(want.Chosen) ||
				math.Float64bits(got.Prob) != math.Float64bits(want.Prob) ||
				math.Float64bits(got.BaseProb) != math.Float64bits(want.BaseProb) {
				t.Fatalf("trial %d (n=%d directed=%v) %d->%d k=%d: %+v, reference %+v", trial, n, directed, s, tt, k, got, want)
			}
		}
	}
}
