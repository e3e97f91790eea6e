// Package ugraph implements the uncertain-graph substrate of the library: a
// directed or undirected graph G = (V, E, p) where every edge e carries an
// independent existence probability p(e) ∈ [0, 1], following the
// possible-world semantics of §2.1 of the paper.
//
// The package provides construction, lookup, traversal primitives (BFS hop
// distances), exact s-t reliability by conditioning over possible worlds
// (tractable for small graphs; used by tests and by the exact-solution
// competitor of Table 11), and plain-text edge-list I/O.
//
// Two representations coexist. The mutable Graph (slice-of-slices
// adjacency) serves construction and solver edge-insertion; Freeze
// produces an immutable CSR snapshot — flat arc arrays with arc-aligned
// probabilities — that the sampling hot loops traverse. The snapshot is
// cached per graph version and shared by all readers; CSR.Delta commits
// edits as a delta layer over it, and CSR.WithEdges adds candidate edges
// the same way for a cheap evaluation view. See the CSR type for the
// lifecycle and concurrency contract.
package ugraph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node; nodes are the dense range [0, N).
type NodeID = int32

// Arc is one directional adjacency entry. Undirected edges appear as two
// arcs (one per endpoint) sharing the same edge ID, so samplers flip a
// single coin per undirected edge.
type Arc struct {
	To  NodeID
	EID int32
}

// Edge describes an edge by endpoints and probability, used for I/O and for
// the solvers' returned edge sets.
type Edge struct {
	U, V NodeID
	P    float64
}

// Graph is an uncertain graph. The zero value is not usable; construct with
// New.
type Graph struct {
	directed bool
	n        int
	p        []float64 // probability per edge ID
	ends     []Edge    // endpoints per edge ID (U→V for directed)
	out      [][]Arc   // out-adjacency
	in       [][]Arc   // in-adjacency (directed only; nil when undirected)
	index    map[int64]int32

	// version counts mutations (AddEdge, SetProb, RemoveEdge) since New;
	// Clone preserves it. Freeze stamps the snapshot with the version as
	// its epoch, so two graphs that went through the same construction
	// history freeze to snapshots with equal epochs.
	version uint64

	// frozen caches the CSR snapshot handed out by Freeze; any mutation
	// clears it. Snapshots already obtained stay valid — they never alias
	// the mutable slices above.
	frozen atomic.Pointer[CSR]
}

// New returns an empty uncertain graph over n nodes.
func New(n int, directed bool) *Graph {
	g := &Graph{
		directed: directed,
		n:        n,
		out:      make([][]Arc, n),
		index:    make(map[int64]int32),
	}
	if directed {
		g.in = make([][]Arc, n)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (an undirected edge counts once).
func (g *Graph) M() int { return len(g.p) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Version returns the graph's mutation counter: the number of AddEdge,
// SetProb and RemoveEdge calls applied since New. Freeze stamps it on the
// snapshot as CSR.Epoch.
func (g *Graph) Version() uint64 { return g.version }

// RestoreVersion overrides the mutation counter. It exists for durable
// recovery: a graph rebuilt from a checkpoint plus WAL replay must freeze
// to the exact epoch the committed state had, not to however many
// constructor calls the rebuild used. Any cached frozen snapshot is
// invalidated, so the next Freeze stamps v as the epoch.
func (g *Graph) RestoreVersion(v uint64) {
	g.version = v
	g.frozen.Store(nil)
}

// mutate records one mutation: the version advances and the cached frozen
// snapshot is invalidated (snapshots already handed out stay valid).
func (g *Graph) mutate() {
	g.version++
	g.frozen.Store(nil)
}

func (g *Graph) key(u, v NodeID) int64 {
	if !g.directed && u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(uint32(v))
}

func (g *Graph) checkNode(u NodeID) error {
	if u < 0 || int(u) >= g.n {
		return fmt.Errorf("ugraph: node %d out of range [0,%d)", u, g.n)
	}
	return nil
}

// AddEdge inserts edge (u, v) with probability p and returns its edge ID.
// Self-loops, duplicate edges, out-of-range endpoints and probabilities
// outside [0, 1] are rejected.
func (g *Graph) AddEdge(u, v NodeID, p float64) (int32, error) {
	if err := g.checkNode(u); err != nil {
		return -1, err
	}
	if err := g.checkNode(v); err != nil {
		return -1, err
	}
	if u == v {
		return -1, fmt.Errorf("ugraph: self-loop at node %d", u)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return -1, fmt.Errorf("ugraph: probability %v outside [0,1]", p)
	}
	key := g.key(u, v)
	if _, dup := g.index[key]; dup {
		return -1, fmt.Errorf("ugraph: duplicate edge (%d,%d)", u, v)
	}
	g.mutate()
	eid := int32(len(g.p))
	g.p = append(g.p, p)
	g.ends = append(g.ends, Edge{U: u, V: v, P: p})
	g.index[key] = eid
	g.out[u] = append(g.out[u], Arc{To: v, EID: eid})
	if g.directed {
		g.in[v] = append(g.in[v], Arc{To: u, EID: eid})
	} else {
		g.out[v] = append(g.out[v], Arc{To: u, EID: eid})
	}
	return eid, nil
}

// MustAddEdge is AddEdge for construction code paths where the inputs are
// known valid (generators, tests); it panics on error.
func (g *Graph) MustAddEdge(u, v NodeID, p float64) int32 {
	eid, err := g.AddEdge(u, v, p)
	if err != nil {
		panic(err)
	}
	return eid
}

// HasEdge reports whether edge (u, v) exists. For undirected graphs the
// orientation is ignored.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.index[g.key(u, v)]
	return ok
}

// EdgeID returns the edge ID of (u, v), if present.
func (g *Graph) EdgeID(u, v NodeID) (int32, bool) {
	eid, ok := g.index[g.key(u, v)]
	return eid, ok
}

// Prob returns the existence probability of edge eid.
func (g *Graph) Prob(eid int32) float64 { return g.p[eid] }

// SetProb updates the existence probability of edge eid.
func (g *Graph) SetProb(eid int32, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("ugraph: probability %v outside [0,1]", p)
	}
	g.mutate()
	g.p[eid] = p
	g.ends[eid].P = p
	return nil
}

// RemoveEdge deletes edge (u, v); for undirected graphs the orientation is
// ignored. Edge IDs stay dense: every edge with an ID above the removed one
// is renumbered down by one (a full adjacency sweep, O(N + M)), so callers
// holding edge IDs across a removal must re-resolve them via EdgeID.
// Snapshots already issued by Freeze are unaffected.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	key := g.key(u, v)
	eid, ok := g.index[key]
	if !ok {
		return fmt.Errorf("ugraph: no edge (%d,%d) to remove", u, v)
	}
	g.mutate()
	delete(g.index, key)
	g.p = append(g.p[:eid], g.p[eid+1:]...)
	g.ends = append(g.ends[:eid], g.ends[eid+1:]...)
	for k, id := range g.index {
		if id > eid {
			g.index[k] = id - 1
		}
	}
	compactRows(g.out, eid)
	if g.directed {
		compactRows(g.in, eid)
	}
	return nil
}

// compactRows drops every arc with the removed edge ID and renumbers the
// IDs above it, preserving per-row arc order.
func compactRows(rows [][]Arc, removed int32) {
	for u, row := range rows {
		w := row[:0]
		for _, a := range row {
			if a.EID == removed {
				continue
			}
			if a.EID > removed {
				a.EID--
			}
			w = append(w, a)
		}
		rows[u] = w
	}
}

// Endpoints returns the edge descriptor of eid (U→V for directed edges).
func (g *Graph) Endpoints(eid int32) Edge {
	e := g.ends[eid]
	e.P = g.p[eid]
	return e
}

// Out returns the out-adjacency of u. Callers must not modify the slice.
// For undirected graphs this covers all incident edges.
func (g *Graph) Out(u NodeID) []Arc { return g.out[u] }

// In returns the in-adjacency of u: the arcs over which u can be reached.
// For undirected graphs this is the same as Out.
func (g *Graph) In(u NodeID) []Arc {
	if g.directed {
		return g.in[u]
	}
	return g.out[u]
}

// Degree returns the out-degree of u (total incident degree if undirected).
func (g *Graph) Degree(u NodeID) int { return len(g.out[u]) }

// Edges returns a copy of all edge descriptors, indexed by edge ID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.ends))
	copy(out, g.ends)
	for i := range out {
		out[i].P = g.p[i]
	}
	return out
}

// Clone returns a deep copy of g; the copy can be mutated (e.g. by adding
// shortcut edges) without affecting the original.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		directed: g.directed,
		n:        g.n,
		p:        append([]float64(nil), g.p...),
		ends:     append([]Edge(nil), g.ends...),
		out:      make([][]Arc, g.n),
		index:    make(map[int64]int32, len(g.index)),
		version:  g.version,
	}
	for u := range g.out {
		c.out[u] = append([]Arc(nil), g.out[u]...)
	}
	if g.directed {
		c.in = make([][]Arc, g.n)
		for u := range g.in {
			c.in[u] = append([]Arc(nil), g.in[u]...)
		}
	}
	for k, v := range g.index {
		c.index[k] = v
	}
	return c
}

// WithEdges returns a clone of g with the given new edges added at the
// probabilities they carry. Edges already present are skipped silently, so
// solvers can pass tentative solutions without pre-filtering. The result
// is exactly Clone followed by MustAddEdge per new edge — same edge IDs,
// arc order and Version — but every slice, the index and each adjacency
// row are sized for the extra arcs up front, so adding them never grows
// one. The rows are carved from one backing array per direction and share
// nothing with g's.
func (g *Graph) WithEdges(extra []Edge) *Graph {
	// room[u] counts the arcs row u may gain. Repeats and edges already
	// present are counted too (they only cost spare room); out-of-range
	// endpoints are left to MustAddEdge to report.
	room := make([]int32, g.n)
	var inRoom []int32
	if g.directed {
		inRoom = make([]int32, g.n)
	}
	for _, e := range extra {
		if e.U < 0 || int(e.U) >= g.n || e.V < 0 || int(e.V) >= g.n {
			continue
		}
		room[e.U]++
		if g.directed {
			inRoom[e.V]++
		} else {
			room[e.V]++
		}
	}
	m := len(g.p)
	c := &Graph{
		directed: g.directed,
		n:        g.n,
		p:        append(make([]float64, 0, m+len(extra)), g.p...),
		ends:     append(make([]Edge, 0, m+len(extra)), g.ends...),
		out:      copyRows(g.out, room),
		index:    make(map[int64]int32, len(g.index)+len(extra)),
		version:  g.version,
	}
	if g.directed {
		c.in = copyRows(g.in, inRoom)
	}
	for k, v := range g.index {
		c.index[k] = v
	}
	for _, e := range extra {
		if c.HasEdge(e.U, e.V) {
			continue
		}
		c.MustAddEdge(e.U, e.V, e.P)
	}
	return c
}

// copyRows returns a deep copy of rows in which row u has room for room[u]
// more arcs. The rows share one backing array, each capped at its own
// end, so an append beyond a row's room reallocates that row alone.
func copyRows(rows [][]Arc, room []int32) [][]Arc {
	total := 0
	for u, r := range rows {
		total += len(r) + int(room[u])
	}
	slab := make([]Arc, total)
	out := make([][]Arc, len(rows))
	for u, r := range rows {
		n := len(r) + int(room[u])
		if n == 0 {
			continue
		}
		out[u] = slab[:copy(slab, r):n]
		slab = slab[n:]
	}
	return out
}

// HopDistances runs a BFS over the underlying (deterministic) topology from
// src following out-arcs, ignoring probabilities, and returns hop counts
// (-1 for unreachable nodes). maxHops < 0 means unbounded.
func (g *Graph) HopDistances(src NodeID, maxHops int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if maxHops >= 0 && int(dist[u]) >= maxHops {
			continue
		}
		for _, a := range g.out[u] {
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// Diameter returns the longest finite shortest-path hop distance over a
// sample of sources (all nodes if sample <= 0 or >= N). It is used by the
// dataset validators and by the h = diameter equivalence remark in §2.1.
func (g *Graph) Diameter(sample int) int {
	step := 1
	if sample > 0 && sample < g.n {
		step = g.n / sample
		if step < 1 {
			step = 1
		}
	}
	best := 0
	for u := 0; u < g.n; u += step {
		dist := g.HopDistances(NodeID(u), -1)
		for _, d := range dist {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}
