// Package candidates implements the reliability-based search space
// elimination of §5.1 (Algorithm 4): given an s-t query it selects the
// top-r nodes most reliable from s and to t, and proposes as candidate
// edges the missing pairs between the two sets — optionally constrained to
// endpoints at most h hops apart in the input topology (§2.1 Remarks).
package candidates

import (
	"repro/internal/pq"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// Options configures the elimination.
type Options struct {
	// R is the number of candidate nodes retained on each side (top-r by
	// reliability). Values <= 0 default to 100.
	R int
	// H is the maximum hop distance (in the input graph, ignoring edge
	// direction) between the endpoints of a new edge; <= 0 disables the
	// constraint (equivalent to h = diameter).
	H int
	// Zeta is the probability assigned to candidate edges.
	Zeta float64
}

func (o Options) withDefaults() Options {
	if o.R <= 0 {
		o.R = 100
	}
	if o.Zeta <= 0 {
		o.Zeta = 0.5
	}
	return o
}

// Result is the outcome of the elimination step.
type Result struct {
	// FromS and ToT are C(s) and C(t): the top-r nodes by reliability
	// from s / to t (always containing s resp. t).
	FromS, ToT []ugraph.NodeID
	// Edges is the relevant candidate edge set E+, each with probability
	// Zeta.
	Edges []ugraph.Edge
	// FromRel and ToRel are the full reliability vectors used for the
	// selection (indexed by node).
	FromRel, ToRel []float64
}

// Eliminate runs Algorithm 4 for a single s-t query using the given
// reliability sampler.
func Eliminate(g *ugraph.Graph, s, t ugraph.NodeID, smp sampling.Sampler, opt Options) Result {
	opt = opt.withDefaults()
	fromRel := smp.ReliabilityFrom(g, s)
	toRel := smp.ReliabilityTo(g, t)
	return eliminateWith(g, fromRel, toRel, opt)
}

// EliminateMulti runs the §6 generalization for source set S and target set
// T: a node is kept on the source side if it is among the top-r most
// reliable from every s ∈ S (the paper's "u ∈ C(s) ∀s ∈ S"), and
// symmetrically for the target side. The reliability vectors returned are
// the element-wise minima over the respective sets, so downstream ranking
// favours nodes reliable with respect to the whole set. All member
// vectors are evaluated in one batch per side.
func EliminateMulti(g *ugraph.Graph, sources, targets []ugraph.NodeID, smp sampling.BatchSampler, opt Options) Result {
	opt = opt.withDefaults()
	fromRel := intersectTopR(g, sources, opt.R, smp.ReliabilityFromMany(g, sources))
	toRel := intersectTopR(g, targets, opt.R, smp.ReliabilityToMany(g, targets))
	return eliminateWith(g, fromRel, toRel, opt)
}

// intersectTopR folds the per-member reliability vectors into the
// element-wise minimum restricted to nodes appearing in every member's
// top-r (others are zeroed).
func intersectTopR(g *ugraph.Graph, set []ugraph.NodeID, r int, vecs [][]float64) []float64 {
	min := make([]float64, g.N())
	inAll := make([]int, g.N())
	for i := range min {
		min[i] = 1
	}
	for mi, member := range set {
		rel := vecs[mi]
		for _, v := range topR(rel, r, member) {
			inAll[v]++
		}
		for i, x := range rel {
			if x < min[i] {
				min[i] = x
			}
		}
	}
	for i := range min {
		if inAll[i] < len(set) {
			min[i] = 0
		}
	}
	// Set members stay eligible.
	for _, member := range set {
		if min[member] == 0 {
			min[member] = 1
		}
	}
	return min
}

func eliminateWith(g *ugraph.Graph, fromRel, toRel []float64, opt Options) Result {
	res := Result{FromRel: fromRel, ToRel: toRel}
	// Anchor membership: any node with positive score competes; ties at
	// zero are excluded to keep the candidate set meaningful.
	res.FromS = topRPositive(fromRel, opt.R)
	res.ToT = topRPositive(toRel, opt.R)
	res.Edges = missingPairs(g, res.FromS, res.ToT, opt)
	return res
}

func topR(rel []float64, r int, always ugraph.NodeID) []ugraph.NodeID {
	sel := pq.NewTopK[ugraph.NodeID](r)
	for v, x := range rel {
		if x > 0 {
			sel.Offer(x, ugraph.NodeID(v))
		}
	}
	items := sel.Items()
	out := make([]ugraph.NodeID, 0, len(items)+1)
	seen := false
	for _, it := range items {
		if it.Value == always {
			seen = true
		}
		out = append(out, it.Value)
	}
	if !seen {
		out = append(out, always)
	}
	return out
}

func topRPositive(rel []float64, r int) []ugraph.NodeID {
	sel := pq.NewTopK[ugraph.NodeID](r)
	for v, x := range rel {
		if x > 0 {
			sel.Offer(x, ugraph.NodeID(v))
		}
	}
	items := sel.Items()
	out := make([]ugraph.NodeID, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// missingPairs emits the candidate edges C(s)×C(t) \ (E ∪ self-pairs),
// subject to the h-hop constraint. For undirected graphs a pair eligible in
// both orientations is emitted once. Membership, adjacency and the hop
// ball are node-indexed marks over the frozen CSR: each u stamps its
// neighbours (and, for h > 0, its h-hop ball) once, and every pair then
// costs two array reads.
func missingPairs(g *ugraph.Graph, from, to []ugraph.NodeID, opt Options) []ugraph.Edge {
	var out []ugraph.Edge
	c := g.Freeze()
	n := g.N()
	inFrom := make([]bool, n)
	for _, u := range from {
		inFrom[u] = true
	}
	inTo := make([]bool, n)
	for _, v := range to {
		inTo[v] = true
	}
	adj := make([]int32, n) // adj[v] == stamp: the edge (u, v) exists
	var ball hopBall
	if opt.H > 0 {
		ball = newHopBall(n)
	}
	for i, u := range from {
		stamp := int32(i + 1)
		for _, a := range c.Out(u) {
			adj[a.To] = stamp
		}
		if opt.H > 0 {
			ball.fill(c, u, opt.H, stamp)
		}
		for _, v := range to {
			if u == v || adj[v] == stamp {
				continue
			}
			if opt.H > 0 && ball.mark[v] != stamp {
				continue
			}
			if !g.Directed() && u > v && inFrom[v] && inTo[u] {
				continue // the (v,u) orientation is emitted instead
			}
			out = append(out, ugraph.Edge{U: u, V: v, P: opt.Zeta})
		}
	}
	return out
}

// hopBall marks the nodes within h hops of a source, ignoring edge
// direction, with a per-source stamp, so one allocation serves many
// sources against the same frozen topology.
type hopBall struct {
	mark, dist []int32 // dist[v] is valid where mark[v] is the current stamp
	queue      []ugraph.NodeID
}

func newHopBall(n int) hopBall {
	return hopBall{mark: make([]int32, n), dist: make([]int32, n)}
}

// fill sets mark[v] = stamp for every v within h hops of src, by BFS over
// both arc directions of c. stamp must differ from every earlier one.
func (b *hopBall) fill(c *ugraph.CSR, src ugraph.NodeID, h int, stamp int32) {
	b.mark[src], b.dist[src] = stamp, 0
	b.queue = append(b.queue[:0], src)
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		if int(b.dist[u]) >= h {
			continue
		}
		b.visit(c.Out(u), b.dist[u]+1, stamp)
		if c.Directed() {
			b.visit(c.In(u), b.dist[u]+1, stamp)
		}
	}
}

func (b *hopBall) visit(arcs []ugraph.Arc, d, stamp int32) {
	for _, a := range arcs {
		if b.mark[a.To] != stamp {
			b.mark[a.To], b.dist[a.To] = stamp, d
			b.queue = append(b.queue, a.To)
		}
	}
}

// AllMissing enumerates every missing edge whose endpoints are at most h
// hops apart (h <= 0: all missing pairs), each with probability zeta. This
// is the unreduced search space used by the no-elimination baselines of
// Table 4; it is O(n²) in dense settings, so callers keep graphs small.
func AllMissing(g *ugraph.Graph, h int, zeta float64) []ugraph.Edge {
	var out []ugraph.Edge
	n := g.N()
	c := g.Freeze()
	var ball hopBall
	if h > 0 {
		ball = newHopBall(n)
	}
	for ui := 0; ui < n; ui++ {
		u := ugraph.NodeID(ui)
		stamp := int32(ui + 1)
		if h > 0 {
			ball.fill(c, u, h, stamp)
		}
		for vi := 0; vi < n; vi++ {
			v := ugraph.NodeID(vi)
			if h > 0 && ball.mark[v] != stamp {
				continue
			}
			if emitMissing(g, u, v) {
				out = append(out, ugraph.Edge{U: u, V: v, P: zeta})
			}
		}
	}
	return out
}

func emitMissing(g *ugraph.Graph, u, v ugraph.NodeID) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	if !g.Directed() && u > v {
		return false // one orientation per undirected pair
	}
	return true
}
