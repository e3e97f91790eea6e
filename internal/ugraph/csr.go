package ugraph

// CSR is a frozen, cache-friendly snapshot of a Graph: the slice-of-slices
// adjacency is flattened into one contiguous arc array per direction with
// int32 offsets, so the samplers' BFS inner loops walk sequential memory
// instead of chasing per-node slice headers. A CSR is immutable — every
// method is safe for concurrent use by any number of goroutines — and is
// obtained from Graph.Freeze (a cached full snapshot), from CSR.Delta (a
// committed epoch) or from CSR.WithEdges (a candidate view). Delta and
// WithEdges share one representation: a delta layer (see delta.go) over
// the flat base arrays, holding copies of only the rows its edits touch.
//
// Arc order is preserved exactly from the source Graph (insertion order per
// node, added arcs at the end of their rows), so a sampler consuming
// randomness while traversing a CSR draws the same coin sequence as the
// historical slice-of-slices traversal: estimates are bit-identical at the
// same seed.
type CSR struct {
	directed bool
	n        int
	epoch    uint64    // Graph.Version at freeze time; WithEdges views inherit it
	p        []float64 // probability per base edge ID
	ends     []Edge    // endpoints per base edge ID
	outArcs  []Arc     // concatenated out-adjacency rows
	outP     []float64 // outP[i] == p[outArcs[i].EID]: arc-aligned probabilities
	outOff   []int32   // len n+1; row u is outArcs[outOff[u]:outOff[u+1]]
	inArcs   []Arc     // directed only; nil when undirected
	inP      []float64
	inOff    []int32

	// d carries the delta layer of a layered snapshot or a WithEdges view
	// (see delta.go); nil for flat snapshots, so the walk entry points pay
	// one predictable nil check on the flat fast path.
	d *deltaState
}

// Freeze returns an immutable CSR snapshot of g, building it on first use
// and caching it until the next mutation (AddEdge or SetProb invalidate the
// cache; snapshots already handed out stay valid and unchanged). Freeze is
// safe to call from concurrent readers; mutating g concurrently with Freeze
// or with traversals is not (the same single-writer contract as every other
// Graph method).
func (g *Graph) Freeze() *CSR {
	if c := g.frozen.Load(); c != nil {
		return c
	}
	c := newCSR(g)
	// Two racing freezers may both build; the CAS keeps one winner so
	// steady-state callers share a single snapshot (and allocate nothing).
	if !g.frozen.CompareAndSwap(nil, c) {
		if w := g.frozen.Load(); w != nil {
			return w
		}
	}
	return c
}

func newCSR(g *Graph) *CSR {
	c := &CSR{
		directed: g.directed,
		n:        g.n,
		epoch:    g.version,
		p:        append([]float64(nil), g.p...),
		ends:     append([]Edge(nil), g.ends...),
	}
	c.outArcs, c.outP, c.outOff = flattenRows(g.out, g.p)
	if g.directed {
		c.inArcs, c.inP, c.inOff = flattenRows(g.in, g.p)
	}
	return c
}

// flattenRows concatenates the adjacency rows and duplicates each arc's
// edge probability alongside it: the samplers' coin flips then read the
// probability from the stream they are already traversing instead of a
// random access into the per-edge array.
func flattenRows(rows [][]Arc, p []float64) ([]Arc, []float64, []int32) {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	arcs := make([]Arc, 0, total)
	probs := make([]float64, 0, total)
	off := make([]int32, len(rows)+1)
	for u, row := range rows {
		arcs = append(arcs, row...)
		for _, a := range row {
			probs = append(probs, p[a.EID])
		}
		off[u+1] = int32(len(arcs))
	}
	return arcs, probs, off
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// M returns the number of live edges. On layered snapshots and WithEdges
// views this is the logical count (base minus removed plus added); edge IDs
// may exceed it — size per-edge scratch with EdgeIDBound.
func (c *CSR) M() int {
	if c.d != nil {
		return c.d.m
	}
	return len(c.p)
}

// Directed reports whether the snapshot is of a directed graph.
func (c *CSR) Directed() bool { return c.directed }

// Epoch returns the source graph's Version at freeze time — the identity
// of this snapshot in an epoch-versioned serving tier (see repro.Engine).
// WithEdges views report the epoch of the snapshot they were built on:
// they are ephemeral per-candidate scratch, not new graph states.
func (c *CSR) Epoch() uint64 { return c.epoch }

// Prob returns the existence probability of edge eid.
func (c *CSR) Prob(eid int32) float64 {
	if c.d != nil {
		return c.deltaProb(eid)
	}
	return c.p[eid]
}

// Endpoints returns the edge descriptor of eid.
func (c *CSR) Endpoints(eid int32) Edge {
	if c.d != nil {
		return c.deltaEndpoints(eid)
	}
	return c.ends[eid]
}

// Out returns the out-adjacency row of u, in the arc order of the
// equivalent mutable Graph. Callers must not modify the slice.
func (c *CSR) Out(u NodeID) []Arc {
	if c.d == nil {
		return c.outArcs[c.outOff[u]:c.outOff[u+1]]
	}
	return c.deltaOut(u)
}

// OutProbs returns the probabilities aligned with Out(u): OutProbs(u)[i]
// is the existence probability of Out(u)[i]. Sampler inner loops read this
// instead of Prob to stay on the adjacency stream.
func (c *CSR) OutProbs(u NodeID) []float64 {
	if c.d == nil {
		return c.outP[c.outOff[u]:c.outOff[u+1]]
	}
	return c.deltaOutProbs(u)
}

// In returns the in-adjacency row of u (arcs over which u is reached). For
// undirected graphs this is Out(u).
func (c *CSR) In(u NodeID) []Arc {
	if c.directed {
		if c.d == nil {
			return c.inArcs[c.inOff[u]:c.inOff[u+1]]
		}
		return c.deltaIn(u)
	}
	return c.Out(u)
}

// InProbs returns the probabilities aligned with In(u).
func (c *CSR) InProbs(u NodeID) []float64 {
	if c.directed {
		if c.d == nil {
			return c.inP[c.inOff[u]:c.inOff[u+1]]
		}
		return c.deltaInProbs(u)
	}
	return c.OutProbs(u)
}

// Degree returns the out-degree of u (total incident degree if undirected).
func (c *CSR) Degree(u NodeID) int { return len(c.Out(u)) }

// HasEdge reports whether edge (u, v) exists in the snapshot. For
// undirected graphs the orientation is ignored. It scans the adjacency row
// of u — O(degree), used by construction paths, not by sampling inner
// loops.
func (c *CSR) HasEdge(u, v NodeID) bool {
	_, ok := c.EdgeID(u, v)
	return ok
}

// EdgeID returns the edge ID of (u, v), if present.
func (c *CSR) EdgeID(u, v NodeID) (int32, bool) {
	if u < 0 || int(u) >= c.n || v < 0 || int(v) >= c.n {
		return -1, false
	}
	for _, a := range c.Out(u) {
		if a.To == v {
			return a.EID, true
		}
	}
	return -1, false
}

// WithEdges returns a view of c with the given new edges added at the
// probabilities they carry: a delta layer over c's flat arrays that copies
// only the rows of the extras' endpoints, so candidate-evaluation loops can
// build one view per candidate instead of cloning and re-flattening the
// whole graph. The view keeps c's epoch. Edges already present, in c or
// earlier in extra, are skipped silently, and invalid edges (self-loops,
// out-of-range endpoints, probabilities outside [0, 1]) panic, both
// mirroring Graph.WithEdges; so the view has the edge IDs and arc order of
// the equivalent clone. When nothing is added, WithEdges returns c.
func (c *CSR) WithEdges(extra []Edge) *CSR {
	v := c
	for _, e := range extra {
		if _, dup := v.EdgeID(e.U, e.V); dup {
			continue
		}
		if v == c {
			v = c.layer(c.epoch)
		}
		if err := v.deltaAdd(e.U, e.V, e.P); err != nil {
			panic(err)
		}
	}
	return v
}

// HopDistances runs a BFS over the frozen topology from src following
// out-arcs, ignoring probabilities, and returns hop counts (-1 for
// unreachable nodes). maxHops < 0 means unbounded. It mirrors
// Graph.HopDistances node for node.
func (c *CSR) HopDistances(src NodeID, maxHops int) []int32 {
	dist := make([]int32, c.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, c.n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if maxHops >= 0 && int(dist[u]) >= maxHops {
			continue
		}
		for _, a := range c.Out(u) {
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}
