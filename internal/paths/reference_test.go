package paths

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// referenceTopL is the oracle the production enumeration is pinned to.
// The original Yen-style enumeration finds the first l paths by −log of
// their probability: Dijkstra recomputes the log on every relaxation, bans
// edges through a per-spur map, allocates its arrays per call and drops
// repeated spur paths through a seen-set. An exhaustive depth-first search
// then lists every simple path whose weight lies within band of the l-th
// path's, pruned by exact distances to t, so paths tied with the l-th are
// all present however many there are (Yen itself would need a spur round
// per tied path: thousands on some served pools). The union is sorted by
// referenceLess and cut at l.
func referenceTopL(g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	yen := referenceYen(g, s, t, l)
	if len(yen) < l {
		// Yen ran out of simple paths: it found them all.
		sort.SliceStable(yen, func(i, j int) bool { return referenceLess(yen[i], yen[j]) })
		return yen
	}
	limit := band(-math.Log(maxProb(yen[l-1].Prob)))
	found := map[string]Path{}
	for _, p := range yen {
		found[pathKey(p)] = p
	}
	for _, p := range referenceWithin(g, s, t, limit) {
		found[pathKey(p)] = p
	}
	all := make([]Path, 0, len(found))
	for _, p := range found {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return referenceLess(all[i], all[j]) })
	return all[:l]
}

// referenceYen returns the first l paths of Yen's enumeration, keyed by
// −log of their probability.
func referenceYen(g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
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

// referenceWithin lists every simple s-t path of weight Σ −log p at most
// limit, by depth-first search from s pruned by each node's exact distance
// to t.
func referenceWithin(g *ugraph.Graph, s, t ugraph.NodeID, limit float64) []Path {
	c := g.Freeze()
	toT := make([]float64, g.N())
	for v := range toT {
		toT[v] = math.Inf(1)
	}
	toT[t] = 0
	var h pq.Heap[ugraph.NodeID]
	h.Push(0, t)
	for h.Len() > 0 {
		d, v := h.Pop()
		if d > toT[v] {
			continue
		}
		for _, a := range c.In(v) {
			if p := c.Prob(a.EID); p > 0 {
				if nd := d - math.Log(p); nd < toT[a.To] {
					toT[a.To] = nd
					h.Push(nd, a.To)
				}
			}
		}
	}
	var out []Path
	onPath := make([]bool, g.N())
	nodes := []ugraph.NodeID{s}
	var edges []int32
	var dfs func(u ugraph.NodeID, w float64)
	dfs = func(u ugraph.NodeID, w float64) {
		if u == t {
			prob := 1.0
			for _, eid := range edges {
				prob *= g.Prob(eid)
			}
			out = append(out, Path{Nodes: slices.Clone(nodes), Edges: slices.Clone(edges), Prob: prob})
			return
		}
		onPath[u] = true
		for _, a := range c.Out(u) {
			p := c.Prob(a.EID)
			if onPath[a.To] || p <= 0 {
				continue
			}
			if nw := w - math.Log(p); nw+toT[a.To] <= limit {
				nodes, edges = append(nodes, a.To), append(edges, a.EID)
				dfs(a.To, nw)
				nodes, edges = nodes[:len(nodes)-1], edges[:len(edges)-1]
			}
		}
		onPath[u] = false
	}
	dfs(s, 0)
	return out
}

// classLess is the order TopL ranks by before its own tie order: the
// probability's bin (binOf) descending. Paths of one bin are one class.
func classLess(a, b Path) bool { return binOf(a.Prob) > binOf(b.Prob) }

// referenceLess orders the reference's paths by classLess, then by
// probability, hop count and node sequence, only so that the reference is
// deterministic: within a class TopL keeps its enumeration's order, which
// the reference does not model.
func referenceLess(a, b Path) bool {
	switch {
	case classLess(a, b) || classLess(b, a):
		return classLess(a, b)
	case a.Prob != b.Prob:
		return a.Prob > b.Prob
	case len(a.Nodes) != len(b.Nodes):
		return len(a.Nodes) < len(b.Nodes)
	}
	return slices.Compare(a.Nodes, b.Nodes) < 0
}

func maxProb(p float64) float64 {
	if p <= 0 {
		return math.SmallestNonzeroFloat64
	}
	return p
}

func pathHasPrefix(p Path, prefix []ugraph.NodeID) bool {
	if len(p.Nodes) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p.Nodes[i] != v {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	buf := make([]byte, 0, len(p.Nodes)*4)
	for _, v := range p.Nodes {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

func joinPaths(prob func(int32) float64, rootNodes []ugraph.NodeID, rootEdges []int32, spur Path) Path {
	nodes := make([]ugraph.NodeID, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	edges := make([]int32, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	p := 1.0
	for _, eid := range edges {
		p *= prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: p}
}

func reconstruct(prob func(int32) float64, s, t ugraph.NodeID, parent, parentEdge []int32) Path {
	var nodes []ugraph.NodeID
	var edges []int32
	for v := t; ; {
		nodes = append(nodes, v)
		if v == s {
			break
		}
		edges = append(edges, parentEdge[v])
		v = ugraph.NodeID(parent[v])
	}
	slices.Reverse(nodes)
	slices.Reverse(edges)
	p := 1.0
	for _, eid := range edges {
		p *= prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: p}
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

// samePool fails unless got is the answer want is, up to the order within
// a class and which tied paths fill its last class: the same classes in
// the same order; for every class want holds whole (all but its last),
// the same paths; and throughout, distinct simple paths of g between
// want's ends, each edge joining its nodes and the product of the edges'
// probabilities, in path order, equal to Prob bit for bit.
func samePool(t *testing.T, label string, g *ugraph.Graph, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, reference %d", label, len(got), len(want))
	}
	key := func(p Path) string { return fmt.Sprint(p.Nodes, p.Edges) }
	seen := map[string]bool{}
	for i := range want {
		p, w := got[i], want[i]
		if classLess(p, w) || classLess(w, p) {
			t.Fatalf("%s: path %d = %v p=%v, reference %v p=%v", label, i, p.Nodes, p.Prob, w.Nodes, w.Prob)
		}
		if p.Nodes[0] != w.Nodes[0] || p.Nodes[len(p.Nodes)-1] != w.Nodes[len(w.Nodes)-1] {
			t.Fatalf("%s: path %d = %v, reference %v: other ends", label, i, p.Nodes, w.Nodes)
		}
		on := map[ugraph.NodeID]bool{}
		prob := 1.0
		for j, v := range p.Nodes {
			if on[v] {
				t.Fatalf("%s: path %d = %v is not simple", label, i, p.Nodes)
			}
			on[v] = true
			if j == len(p.Edges) {
				break
			}
			e, u := g.Endpoints(p.Edges[j]), p.Nodes[j+1]
			if !(e.U == v && e.V == u) && !(!g.Directed() && e.U == u && e.V == v) {
				t.Fatalf("%s: path %d = %v %v: edge %d does not join %d-%d", label, i, p.Nodes, p.Edges, p.Edges[j], v, u)
			}
			prob *= g.Prob(p.Edges[j])
		}
		if math.Float64bits(prob) != math.Float64bits(p.Prob) {
			t.Fatalf("%s: path %d = %v has p=%v, product %v", label, i, p.Nodes, p.Prob, prob)
		}
		if seen[key(p)] {
			t.Fatalf("%s: path %d = %v repeats", label, i, p.Nodes)
		}
		seen[key(p)] = true
	}
	whole := len(want)
	for whole > 0 && !classLess(want[whole-1], want[len(want)-1]) {
		whole--
	}
	inWant := map[string]bool{}
	for _, p := range want[:whole] {
		inWant[key(p)] = true
	}
	for i, p := range got[:whole] {
		if !inWant[key(p)] {
			t.Fatalf("%s: path %d = %v %v p=%v is not in the reference's classes", label, i, p.Nodes, p.Edges, p.Prob)
		}
	}
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

// TestTopLMatchesReference pins TopL and MostReliable to the reference, and
// TopL to every simple path sorted by class, on seeded random graphs of
// both orientations. Some edges carry probability zero (never
// traversable), and half the graphs draw probabilities from a few dyadic
// values so exact ties are common and classes are cut at l. l runs
// up to one past the number of simple s-t paths, so exhausting the
// enumeration is covered.
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
		all := byClass(allSimplePaths(g, s, tt))
		simple := len(all)
		for _, l := range []int{1, 3, simple, simple + 1} {
			label := fmt.Sprintf("trial %d (n=%d m=%d directed=%v) %d->%d l=%d", trial, n, g.M(), directed, s, tt, l)
			got := TopL(context.Background(), g, s, tt, l)
			samePool(t, label, g, got, referenceTopL(g, s, tt, l))
			samePool(t, label+" brute force", g, got, all[:min(l, simple)])
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
