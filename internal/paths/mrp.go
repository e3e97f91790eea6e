package paths

import (
	"context"
	"math"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// MRPResult is the outcome of ImproveMostReliablePath.
type MRPResult struct {
	// Chosen is the set of candidate ("red") edges on the best path; it
	// is empty when no addition improves the most reliable path.
	Chosen []ugraph.Edge
	// Prob is the probability of the most reliable s-t path after adding
	// Chosen (zero when t stays unreachable even with all candidates).
	Prob float64
	// BaseProb is the probability of the most reliable path without any
	// additions.
	BaseProb float64
}

// ImproveMostReliablePath solves the restricted Problem 2 exactly in
// polynomial time (Theorem 3 / Algorithm 3): pick at most k edges from
// candidates — each carrying its own probability (a fixed ζ in the basic
// problem) — so that the probability of the most reliable path from s to t
// in the augmented graph is maximized.
//
// Instead of materializing k+1 graph copies as in the paper's constructive
// proof, the implementation runs one Dijkstra over the implicit layered
// graph whose states are (node, #red edges used): blue (existing) edges
// stay within a layer, red (candidate) edges move one layer up. This is the
// same construction with the same O(k·(m+|candidates|)·log(k·n)) behaviour.
//
// The layered Dijkstra polls ctx every few thousand settled states; a
// cancelled context returns the zero MRPResult (the search holds no usable
// partial answer — a prefix of the layered relaxation proves nothing about
// the optimum).
func ImproveMostReliablePath(ctx context.Context, g *ugraph.Graph, candidates []ugraph.Edge, s, t ugraph.NodeID, k int) MRPResult {
	if k < 0 {
		k = 0
	}
	var blue rows // blue arcs carry w = −log p, +Inf when p = 0
	blue.pack(g.Freeze(), g.N(), weights(nil, g), (*ugraph.CSR).Out)
	n := g.N()
	layers := k + 1
	// Red adjacency: candidate edges by source node (both directions for
	// undirected graphs), each with its weight −log P.
	type redArc struct {
		to  ugraph.NodeID
		idx int32
		w   float64
	}
	redOut := make([][]redArc, n)
	for i, e := range candidates {
		if e.P <= 0 {
			continue
		}
		w := -math.Log(e.P)
		redOut[e.U] = append(redOut[e.U], redArc{to: e.V, idx: int32(i), w: w})
		if !g.Directed() {
			redOut[e.V] = append(redOut[e.V], redArc{to: e.U, idx: int32(i), w: w})
		}
	}
	dist := make([]float64, layers*n)
	parent := make([]int32, layers*n)
	parentRed := make([]int32, layers*n) // candidate index used to arrive, or -1
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
		// Weights are non-negative, so a settled state is never offered a
		// shorter distance: only stale heap entries fail this test.
		if d > dist[st] {
			continue
		}
		settled++
		if settled&4095 == 0 && ctx != nil && ctx.Err() != nil {
			return MRPResult{}
		}
		layer := int(st) / n
		u := ugraph.NodeID(int(st) % n)
		for _, a := range blue.row(u) {
			ns := state(a.to, layer)
			if nd := d + a.w; nd < dist[ns] {
				dist[ns] = nd
				parent[ns] = st
				parentRed[ns] = -1
				h.Push(nd, ns)
			}
		}
		if layer < k {
			for _, ra := range redOut[u] {
				ns := state(ra.to, layer+1)
				if nd := d + ra.w; nd < dist[ns] {
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
