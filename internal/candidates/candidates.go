// Package candidates implements the reliability-based search space
// elimination of §5.1 (Algorithm 4): given an s-t query it selects the
// top-r nodes most reliable from s and to t, and proposes as candidate
// edges the missing pairs between the two sets — optionally constrained to
// endpoints at most h hops apart in the input topology (§2.1 Remarks).
package candidates

import (
	"math/bits"
	"sort"

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
	// Pairs is the relevant candidate edge set E+ in implicit form, nil
	// when E+ did not come from elimination.
	Pairs *Pairs
	// Edges is E+ listed, each edge with probability Zeta, in Pairs'
	// candidate order. EliminatePairs and EliminateMultiPairs leave it nil.
	Edges []ugraph.Edge
	// FromRel and ToRel are the full reliability vectors used for the
	// selection (indexed by node).
	FromRel, ToRel []float64
}

// Len returns |E+|.
func (r Result) Len() int {
	if r.Pairs != nil {
		return r.Pairs.Len()
	}
	return len(r.Edges)
}

// List returns E+ as a list: Edges when it is set, else Pairs listed.
func (r Result) List() []ugraph.Edge {
	if r.Edges == nil && r.Pairs != nil {
		return r.Pairs.List()
	}
	return r.Edges
}

// Eliminate runs Algorithm 4 for a single s-t query using the given
// reliability sampler, and lists E+ in Edges.
func Eliminate(g *ugraph.Graph, s, t ugraph.NodeID, smp sampling.Sampler, opt Options) Result {
	return listed(EliminatePairs(g, s, t, smp, opt))
}

// EliminatePairs is Eliminate with E+ left implicit in Pairs, for callers
// that never need it as a list.
func EliminatePairs(g *ugraph.Graph, s, t ugraph.NodeID, smp sampling.Sampler, opt Options) Result {
	fromRel := smp.ReliabilityFrom(g, s)
	toRel := smp.ReliabilityTo(g, t)
	return EliminateVectors(g, fromRel, toRel, opt)
}

// EliminateVectors is EliminatePairs on vectors already sampled: fromRel
// from s and toRel to t, as a sampler's ReliabilityFrom and ReliabilityTo
// return them. The Result holds both, unmodified.
func EliminateVectors(g *ugraph.Graph, fromRel, toRel []float64, opt Options) Result {
	return eliminateWith(g, fromRel, toRel, opt.withDefaults())
}

// EliminateMultiPairs runs the §6 generalization for source set S and
// target set T: a node is kept on the source side if it is among the top-r
// most reliable from every s ∈ S (the paper's "u ∈ C(s) ∀s ∈ S"), and
// symmetrically for the target side. The reliability vectors returned are
// the element-wise minima over the respective sets, so downstream ranking
// favours nodes reliable with respect to the whole set. All member
// vectors are evaluated in one batch per side. E+ is left implicit in
// Pairs; List() lists it.
func EliminateMultiPairs(g *ugraph.Graph, sources, targets []ugraph.NodeID, smp sampling.BatchSampler, opt Options) Result {
	opt = opt.withDefaults()
	fromRel := intersectTopR(g, sources, opt.R, smp.ReliabilityFromMany(g, sources))
	toRel := intersectTopR(g, targets, opt.R, smp.ReliabilityToMany(g, targets))
	return eliminateWith(g, fromRel, toRel, opt)
}

// listed fills r.Edges from r.Pairs.
func listed(r Result) Result {
	r.Edges = r.Pairs.List()
	return r
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
	res.Pairs = NewPairs(g, res.FromS, res.ToT, opt)
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

// Pairs is Algorithm 4's candidate edge set E+ left implicit: the pairs
// (FromS[i], ToT[j]) that NewPairs admits, each a new edge of
// probability Zeta. Candidate k is the k-th admitted pair in row-major
// order of (i, j): the k-th edge List returns, and edge g.M()+k of
// G+ = g.WithEdges(List()), which adds every one of them.
type Pairs struct {
	FromS, ToT []ugraph.NodeID
	Zeta       float64
	// bits holds a bit per pair, rows of stride words: pair (i, j) is
	// admitted iff bit j%64 of bits[i*stride+j/64] is set. before[w] counts
	// the admitted pairs in bits[:w], before[len(bits)] all of them.
	stride int
	bits   []uint64
	before []int32
}

// NewPairs builds the candidate set from × to \ (E ∪ self-pairs) on g,
// subject to the h-hop constraint, each pair an edge of probability
// opt.Zeta; elimination calls it with C(s) and C(t). from and to must each
// hold distinct nodes. For undirected graphs a pair eligible in both
// orientations is admitted once, as (u, v) with u < v. Membership,
// adjacency and the hop ball are node-indexed marks over the frozen CSR:
// each u stamps its neighbours (and, for h > 0, its h-hop ball) once, and
// every pair then costs two array reads.
func NewPairs(g *ugraph.Graph, from, to []ugraph.NodeID, opt Options) *Pairs {
	stride := (len(to) + 63) / 64
	ps := &Pairs{FromS: from, ToT: to, Zeta: opt.Zeta, stride: stride, bits: make([]uint64, len(from)*stride)}
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
		row := ps.Row(i)
		for j, v := range to {
			if u == v || adj[v] == stamp {
				continue
			}
			if opt.H > 0 && ball.mark[v] != stamp {
				continue
			}
			if !g.Directed() && u > v && inFrom[v] && inTo[u] {
				continue // the (v,u) orientation is admitted instead
			}
			row[j/64] |= 1 << (j % 64)
		}
	}
	ps.before = make([]int32, len(ps.bits)+1)
	for w, word := range ps.bits {
		ps.before[w+1] = ps.before[w] + int32(bits.OnesCount64(word))
	}
	return ps
}

// Len returns |E+|, the number of admitted pairs.
func (ps *Pairs) Len() int { return int(ps.before[len(ps.bits)]) }

// Row returns row i of the pair bits, one bit per ToT[j] (bit j%64 of word
// j/64), set where the pair (i, j) is admitted. It has (len(ToT)+63)/64
// words, and its bits past len(ToT) are zero.
func (ps *Pairs) Row(i int) []uint64 { return ps.bits[i*ps.stride : (i+1)*ps.stride] }

// Rank returns the candidate index k of the admitted pair (i, j).
func (ps *Pairs) Rank(i, j int) int {
	w := i*ps.stride + j/64
	return int(ps.before[w]) + bits.OnesCount64(ps.bits[w]&(1<<(j%64)-1))
}

// Edge returns candidate k as the edge (FromS[i], ToT[j], Zeta).
func (ps *Pairs) Edge(k int) ugraph.Edge {
	// The word holding candidate k is the last w with before[w] <= k.
	w := sort.Search(len(ps.bits), func(w int) bool { return int(ps.before[w+1]) > k })
	word := ps.bits[w]
	for r := k - int(ps.before[w]); r > 0; r-- {
		word &= word - 1 // drop an admitted pair before k
	}
	return ps.edge(w, bits.TrailingZeros64(word))
}

// edge returns the pair of bit b of word w as an edge.
func (ps *Pairs) edge(w, b int) ugraph.Edge {
	return ugraph.Edge{U: ps.FromS[w/ps.stride], V: ps.ToT[(w%ps.stride)*64+b], P: ps.Zeta}
}

// List returns E+ as edges, in candidate order.
func (ps *Pairs) List() []ugraph.Edge {
	var out []ugraph.Edge
	if k := ps.Len(); k > 0 {
		out = make([]ugraph.Edge, 0, k)
	}
	for w, word := range ps.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, ps.edge(w, bits.TrailingZeros64(word)))
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
