// Package paths implements the path machinery of §4-5 of the paper: most
// reliable paths via Dijkstra over −log p weights, top-l most reliable
// simple path enumeration (used in place of Eppstein's algorithm; exact,
// loopless, Yen-style deviation search), and the layered-graph polynomial
// algorithm for the restricted "improve the most reliable path" problem
// (Algorithm 3, Theorem 3).
package paths

import (
	"context"
	"math"
	"runtime"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// Path is a simple s-t path in an uncertain graph.
type Path struct {
	Nodes []ugraph.NodeID
	Edges []int32 // edge IDs; len(Edges) == len(Nodes)-1
	Prob  float64 // product of edge probabilities
}

// Weight returns the path's additive weight Σ −log p(e) = −log Prob; lower
// is more reliable.
func (p Path) Weight() float64 {
	if p.Prob <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p.Prob)
}

// MostReliable returns the most reliable path from s to t (Equation 5), or
// ok=false if t is unreachable through positive-probability edges.
func MostReliable(g *ugraph.Graph, s, t ugraph.NodeID) (Path, bool) {
	return newSearcher(g).search(s, t)
}

// searcher runs repeated most-reliable-path searches against one frozen
// snapshot — the Yen-style top-l enumeration re-runs the search once per
// deviation. Everything a search needs is built once per searcher: the
// log-probability of every edge, the bans, and the Dijkstra arrays, which
// each search leaves dirty only at the nodes it touched.
type searcher struct {
	g  *ugraph.Graph
	c  *ugraph.CSR
	lp []float64 // lp[eid] = log p(eid); -Inf when p <= 0

	// bannedEdge and bannedNode exclude edges and nodes from the next
	// search; callers set and clear them around each call (s itself is
	// never banned).
	bannedEdge []bool
	bannedNode []bool

	// dist is +Inf and done false except at the nodes in touched, the
	// ones the last search reached. parent and parentEdge are only read
	// along the path a search reconstructs, every node of which that
	// search reached, so they are never reset.
	dist       []float64
	done       []bool
	touched    []ugraph.NodeID
	parent     []int32 // predecessor node
	parentEdge []int32 // edge used to arrive
	h          pq.Heap[ugraph.NodeID]
}

func newSearcher(g *ugraph.Graph) *searcher {
	c := g.Freeze()
	n := g.N()
	m := c.EdgeIDBound()
	sr := &searcher{
		g:          g,
		c:          c,
		lp:         make([]float64, m),
		bannedEdge: make([]bool, m),
		bannedNode: make([]bool, n),
		dist:       make([]float64, n),
		done:       make([]bool, n),
		parent:     make([]int32, n),
		parentEdge: make([]int32, n),
	}
	for eid := range sr.lp {
		if p := c.Prob(int32(eid)); p > 0 {
			sr.lp[eid] = math.Log(p)
		} else {
			sr.lp[eid] = math.Inf(-1)
		}
	}
	for i := range sr.dist {
		sr.dist[i] = math.Inf(1)
	}
	return sr
}

// search runs a most-reliable-path Dijkstra from s to t over −log p
// weights, skipping the banned edges and nodes.
func (sr *searcher) search(s, t ugraph.NodeID) (Path, bool) {
	for _, v := range sr.touched {
		sr.dist[v] = math.Inf(1)
		sr.done[v] = false
	}
	sr.touched = append(sr.touched[:0], s)
	dist, done := sr.dist, sr.done
	dist[s] = 0
	h := &sr.h
	h.Reset()
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
		for _, a := range sr.c.Out(u) {
			if done[a.To] || sr.bannedEdge[a.EID] || sr.bannedNode[a.To] {
				continue
			}
			lp := sr.lp[a.EID]
			if math.IsInf(lp, -1) {
				continue
			}
			nd := d - lp
			if nd < dist[a.To] {
				if math.IsInf(dist[a.To], 1) {
					sr.touched = append(sr.touched, a.To)
				}
				dist[a.To] = nd
				sr.parent[a.To] = int32(u)
				sr.parentEdge[a.To] = a.EID
				h.Push(nd, a.To)
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return Path{}, false
	}
	return reconstruct(sr.g, s, t, sr.parent, sr.parentEdge), true
}

func reconstruct(g *ugraph.Graph, s, t ugraph.NodeID, parent, parentEdge []int32) Path {
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
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	prob := 1.0
	for _, eid := range edges {
		prob *= g.Prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: prob}
}

// TopL returns up to l most reliable simple paths from s to t in decreasing
// probability order (ties broken arbitrarily), the path set P of §5.1.2.
// It uses Yen's deviation algorithm with most-reliable-path Dijkstra as the
// subroutine; the output is exact. Extraction polls ctx between paths: a
// cancelled context stops the enumeration and returns the (still exact,
// still sorted) prefix found so far.
func TopL(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g)
	first, ok := sr.search(s, t)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var candidates pq.Heap[Path]
	for len(result) < l {
		if ctx != nil {
			// Each deviation round is a scheduling point, like a
			// sampler's block check: requests served beside a long search
			// get the processor between rounds, not at a preemption tick.
			runtime.Gosched()
			if ctx.Err() != nil {
				break
			}
		}
		prev := result[len(result)-1]
		for i := 0; i+1 < len(prev.Nodes); i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]
			setBans(sr, result, rootNodes, true)
			spurPath, ok := sr.search(spur, t)
			setBans(sr, result, rootNodes, false)
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

// setBans bans (or, with ban false, clears) what Yen's spur search from
// rootNodes' last node must avoid: the root's other nodes, and the next
// edge of every accepted path that shares the root.
func setBans(sr *searcher, result []Path, rootNodes []ugraph.NodeID, ban bool) {
	i := len(rootNodes) - 1
	for _, p := range result {
		if pathHasPrefix(p, rootNodes) {
			sr.bannedEdge[p.Edges[i]] = ban
		}
	}
	for _, v := range rootNodes[:i] {
		sr.bannedNode[v] = ban
	}
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

func joinPaths(g *ugraph.Graph, rootNodes []ugraph.NodeID, rootEdges []int32, spur Path) Path {
	nodes := make([]ugraph.NodeID, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	edges := make([]int32, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	prob := 1.0
	for _, eid := range edges {
		prob *= g.Prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: prob}
}
