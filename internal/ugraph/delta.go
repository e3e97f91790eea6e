package ugraph

import (
	"fmt"
	"math"
)

// Delta layers: a CSR can carry a persistent layer (deltaState) recording
// an ordered batch of edge mutations over a flat base snapshot, instead of
// re-flattening the whole graph per commit. Delta commits a batch as a new
// epoch; WithEdges adds candidate edges the same way for a scratch view
// that keeps its snapshot's epoch. The layered snapshot
// shares the base's flat arrays and materializes only the adjacency rows the
// batch touched — exactly the rows a full rebuild would have produced, in
// the same arc order — so every walk entry point (Out/OutProbs/In/InProbs)
// traverses identical (neighbor, probability) sequences and sampling stays
// bit-identical to a clone-and-refreeze at the same epoch. Stacking a delta
// on a delta merges the parent layer into the child — the bookkeeping is
// copied (O(parent edits)) but materialized rows are inherited
// copy-on-write, so the per-layer cost tracks the rows this batch touches —
// keeping reads one indirection deep regardless of chain depth; the chain
// depth and materialized-arc counters drive the engine's compaction policy.
//
// Edge-ID discipline: base edges keep their base IDs, removed IDs are
// retired (never reused), and added edges draw fresh IDs from idBase
// upward. IDs are therefore sparse on layered snapshots — EdgeIDBound, not
// M, bounds per-edge scratch arrays. A full rebuild renumbers IDs densely
// instead; that is invisible to sampling, which only needs a consistent
// edge-identity partition per snapshot (coins are memoized per ID within
// one sample, never compared across snapshots).

// DeltaOp is the operation of one DeltaEdit.
type DeltaOp uint8

const (
	// DeltaAdd inserts a new edge (U, V) with probability P.
	DeltaAdd DeltaOp = iota
	// DeltaSetProb updates the probability of existing edge (U, V) to P.
	DeltaSetProb
	// DeltaRemove deletes existing edge (U, V).
	DeltaRemove
)

// DeltaEdit is one primitive edit in a Delta batch, addressing edges by
// endpoints (for undirected graphs orientation is ignored), mirroring the
// mutation surface of the serving tier.
type DeltaEdit struct {
	Op   DeltaOp
	U, V NodeID
	P    float64
}

// DeltaError reports which edit of a Delta batch failed validation.
type DeltaError struct {
	Index int // position in the edits slice
	Err   error
}

func (e *DeltaError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying validation error for errors.Is/As.
func (e *DeltaError) Unwrap() error { return e.Err }

// deltaState is the persistent layer of a delta snapshot or WithEdges
// view. It is immutable once Delta or WithEdges returns (the same freeze
// contract as the CSR arrays); a further layer copies its bookkeeping and
// shares its rows copy-on-write.
type deltaState struct {
	depth    int    // layers committed since the flat base (flat = 0)
	idBase   int32  // len(base p): added edges draw IDs idBase, idBase+1, ...
	m        int    // logical edge count (base - removed + live adds)
	arcs     int    // total arcs across materialized rows (compaction metric)
	adds     []Edge // added edges by ID-idBase; P=NaN tombstones a later removal
	addsLive int    // adds not tombstoned
	removed  i32map // base edge ID -> 1 for removed base edges
	probOv   i32map // base edge ID -> index into ovP for re-probed base edges
	ovP      []float64

	outRows    i32map // node -> index into outRowArcs/outRowP
	outRowArcs [][]Arc
	outRowP    [][]float64
	outOwned   []bool // row owned by this layer (false = shared with parent)
	inRows     i32map // directed only
	inRowArcs  [][]Arc
	inRowP     [][]float64
	inOwned    []bool
}

// Delta returns a new persistent snapshot layered over c with the edits
// applied in order, at epoch c.Epoch() + len(edits) (one version tick per
// edit, matching the mutable Graph's counter). The commit cost is
// O(edits · degree + existing delta size) — independent of graph size —
// and c itself is unchanged (readers pinned to it are unaffected).
//
// The batch is all-or-nothing: the first invalid edit aborts with a
// *DeltaError naming its index, wrapping the same validation error the
// mutable Graph would have produced (out-of-range endpoint, self-loop,
// probability outside [0,1], duplicate add, missing edge).
func (c *CSR) Delta(edits []DeltaEdit) (*CSR, error) {
	v := c.layer(c.epoch + uint64(len(edits)))
	for i, e := range edits {
		if err := v.applyEdit(e); err != nil {
			return nil, &DeltaError{Index: i, Err: err}
		}
	}
	d := v.d
	d.arcs = 0
	for _, r := range d.outRowArcs {
		d.arcs += len(r)
	}
	for _, r := range d.inRowArcs {
		d.arcs += len(r)
	}
	return v, nil
}

// layer returns an empty child layer of c at the given epoch, sharing c's
// flat arrays; Delta and WithEdges then apply their edits to it.
func (c *CSR) layer(epoch uint64) *CSR {
	return &CSR{
		directed: c.directed,
		n:        c.n,
		epoch:    epoch,
		p:        c.p,
		ends:     c.ends,
		outArcs:  c.outArcs,
		outP:     c.outP,
		outOff:   c.outOff,
		inArcs:   c.inArcs,
		inP:      c.inP,
		inOff:    c.inOff,
		d:        cloneDeltaState(c),
	}
}

// cloneDeltaState starts the child layer: the parent's delta merged in so
// reads stay one probe deep, or a fresh empty layer over a flat snapshot.
// The small per-edit structures (adds, overrides, row index maps) are deep
// copied — they are O(delta edits). Materialized rows are the heavy part,
// so they are inherited copy-on-write: the child shares the parent's row
// slices (header copy only) and matOutRow/matInRow privatize a row the
// first time an edit in this layer touches it. Rows the parent owns stay
// immutable once Delta returns, so sharing is safe.
func cloneDeltaState(c *CSR) *deltaState {
	if c.d == nil {
		return &deltaState{depth: 1, idBase: int32(len(c.p)), m: len(c.p)}
	}
	p := c.d
	return &deltaState{
		depth:      p.depth + 1,
		idBase:     p.idBase,
		m:          p.m,
		adds:       append([]Edge(nil), p.adds...),
		addsLive:   p.addsLive,
		removed:    p.removed.clone(),
		probOv:     p.probOv.clone(),
		ovP:        append([]float64(nil), p.ovP...),
		outRows:    p.outRows.clone(),
		outRowArcs: append([][]Arc(nil), p.outRowArcs...),
		outRowP:    append([][]float64(nil), p.outRowP...),
		outOwned:   make([]bool, len(p.outRowArcs)),
		inRows:     p.inRows.clone(),
		inRowArcs:  append([][]Arc(nil), p.inRowArcs...),
		inRowP:     append([][]float64(nil), p.inRowP...),
		inOwned:    make([]bool, len(p.inRowArcs)),
	}
}

func (v *CSR) applyEdit(e DeltaEdit) error {
	switch e.Op {
	case DeltaAdd:
		return v.deltaAdd(e.U, e.V, e.P)
	case DeltaSetProb:
		return v.deltaSetProb(e.U, e.V, e.P)
	case DeltaRemove:
		return v.deltaRemove(e.U, e.V)
	}
	return fmt.Errorf("ugraph: unknown delta op %d", e.Op)
}

func (v *CSR) checkDeltaNode(u NodeID) error {
	if u < 0 || int(u) >= v.n {
		return fmt.Errorf("ugraph: node %d out of range [0,%d)", u, v.n)
	}
	return nil
}

// deltaAdd mirrors Graph.AddEdge's validation order and row-append order:
// the new arc lands at the end of both endpoint rows (out row of u plus out
// row of v undirected, in row of v directed), which is exactly where a
// rebuild's AddEdge would have appended it.
func (v *CSR) deltaAdd(u, w NodeID, p float64) error {
	if err := v.checkDeltaNode(u); err != nil {
		return err
	}
	if err := v.checkDeltaNode(w); err != nil {
		return err
	}
	if u == w {
		return fmt.Errorf("ugraph: self-loop at node %d", u)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("ugraph: probability %v outside [0,1]", p)
	}
	if _, dup := v.EdgeID(u, w); dup {
		return fmt.Errorf("ugraph: duplicate edge (%d,%d)", u, w)
	}
	d := v.d
	eid := d.idBase + int32(len(d.adds))
	d.adds = append(d.adds, Edge{U: u, V: w, P: p})
	d.addsLive++
	d.m++
	i := v.matOutRow(u)
	d.outRowArcs[i] = append(d.outRowArcs[i], Arc{To: w, EID: eid})
	d.outRowP[i] = append(d.outRowP[i], p)
	if v.directed {
		j := v.matInRow(w)
		d.inRowArcs[j] = append(d.inRowArcs[j], Arc{To: u, EID: eid})
		d.inRowP[j] = append(d.inRowP[j], p)
	} else {
		j := v.matOutRow(w)
		d.outRowArcs[j] = append(d.outRowArcs[j], Arc{To: u, EID: eid})
		d.outRowP[j] = append(d.outRowP[j], p)
	}
	return nil
}

func (v *CSR) deltaSetProb(u, w NodeID, p float64) error {
	if err := v.checkDeltaNode(u); err != nil {
		return err
	}
	if err := v.checkDeltaNode(w); err != nil {
		return err
	}
	eid, ok := v.EdgeID(u, w)
	if !ok {
		return fmt.Errorf("ugraph: no edge (%d,%d)", u, w)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("ugraph: probability %v outside [0,1]", p)
	}
	d := v.d
	if eid >= d.idBase {
		d.adds[eid-d.idBase].P = p
	} else if i, hit := d.probOv.get(eid); hit {
		d.ovP[i] = p
	} else {
		d.probOv.put(eid, int32(len(d.ovP)))
		d.ovP = append(d.ovP, p)
	}
	v.reprobeRow(v.matOutRow(u), eid, p, false)
	if v.directed {
		v.reprobeRow(v.matInRow(w), eid, p, true)
	} else {
		v.reprobeRow(v.matOutRow(w), eid, p, false)
	}
	return nil
}

func (v *CSR) deltaRemove(u, w NodeID) error {
	if err := v.checkDeltaNode(u); err != nil {
		return err
	}
	if err := v.checkDeltaNode(w); err != nil {
		return err
	}
	eid, ok := v.EdgeID(u, w)
	if !ok {
		return fmt.Errorf("ugraph: no edge (%d,%d) to remove", u, w)
	}
	d := v.d
	if eid >= d.idBase {
		d.adds[eid-d.idBase].P = math.NaN() // tombstone; the ID is retired
		d.addsLive--
	} else {
		d.removed.put(eid, 1)
	}
	d.m--
	v.dropFromRow(v.matOutRow(u), eid, false)
	if v.directed {
		v.dropFromRow(v.matInRow(w), eid, true)
	} else {
		v.dropFromRow(v.matOutRow(w), eid, false)
	}
	return nil
}

// matOutRow materializes the out row of u in the (private, still-building)
// delta layer: an exact copy of the current view's row, returned by index.
// Rows untouched by any layer of the chain are pristine base slices, so the
// copy source is either a parent-materialized row (already folded in by
// cloneDeltaState) or the flat base row.
func (v *CSR) matOutRow(u NodeID) int32 {
	d := v.d
	if i, ok := d.outRows.get(int32(u)); ok {
		if !d.outOwned[i] {
			// Inherited from the parent layer: privatize before the first
			// in-place edit so the parent's published rows stay immutable.
			d.outRowArcs[i] = append([]Arc(nil), d.outRowArcs[i]...)
			d.outRowP[i] = append([]float64(nil), d.outRowP[i]...)
			d.outOwned[i] = true
		}
		return i
	}
	lo, hi := v.outOff[u], v.outOff[u+1]
	i := int32(len(d.outRowArcs))
	d.outRowArcs = append(d.outRowArcs, append([]Arc(nil), v.outArcs[lo:hi]...))
	d.outRowP = append(d.outRowP, append([]float64(nil), v.outP[lo:hi]...))
	d.outOwned = append(d.outOwned, true)
	d.outRows.put(int32(u), i)
	return i
}

func (v *CSR) matInRow(u NodeID) int32 {
	d := v.d
	if i, ok := d.inRows.get(int32(u)); ok {
		if !d.inOwned[i] {
			d.inRowArcs[i] = append([]Arc(nil), d.inRowArcs[i]...)
			d.inRowP[i] = append([]float64(nil), d.inRowP[i]...)
			d.inOwned[i] = true
		}
		return i
	}
	lo, hi := v.inOff[u], v.inOff[u+1]
	i := int32(len(d.inRowArcs))
	d.inRowArcs = append(d.inRowArcs, append([]Arc(nil), v.inArcs[lo:hi]...))
	d.inRowP = append(d.inRowP, append([]float64(nil), v.inP[lo:hi]...))
	d.inOwned = append(d.inOwned, true)
	d.inRows.put(int32(u), i)
	return i
}

// reprobeRow rewrites the aligned probability of every arc carrying eid in
// the materialized row (arc order untouched, matching a rebuild where
// flattenRows re-reads the updated p array).
func (v *CSR) reprobeRow(i int32, eid int32, p float64, in bool) {
	var arcs []Arc
	var probs []float64
	if in {
		arcs, probs = v.d.inRowArcs[i], v.d.inRowP[i]
	} else {
		arcs, probs = v.d.outRowArcs[i], v.d.outRowP[i]
	}
	for k, a := range arcs {
		if a.EID == eid {
			probs[k] = p
		}
	}
}

// dropFromRow deletes every arc carrying eid from the materialized row,
// preserving the survivors' order — the same compaction Graph.RemoveEdge's
// row sweep performs.
func (v *CSR) dropFromRow(i int32, eid int32, in bool) {
	d := v.d
	var arcs []Arc
	var probs []float64
	if in {
		arcs, probs = d.inRowArcs[i], d.inRowP[i]
	} else {
		arcs, probs = d.outRowArcs[i], d.outRowP[i]
	}
	w := 0
	for k := range arcs {
		if arcs[k].EID != eid {
			arcs[w], probs[w] = arcs[k], probs[k]
			w++
		}
	}
	if in {
		d.inRowArcs[i], d.inRowP[i] = arcs[:w], probs[:w]
	} else {
		d.outRowArcs[i], d.outRowP[i] = arcs[:w], probs[:w]
	}
}

// deltaOut is the layered-row probe behind Out; the flat fast path stays in
// the inlinable Out body.
func (c *CSR) deltaOut(u NodeID) []Arc {
	if i, ok := c.d.outRows.get(int32(u)); ok {
		return c.d.outRowArcs[i]
	}
	return c.outArcs[c.outOff[u]:c.outOff[u+1]]
}

func (c *CSR) deltaOutProbs(u NodeID) []float64 {
	if i, ok := c.d.outRows.get(int32(u)); ok {
		return c.d.outRowP[i]
	}
	return c.outP[c.outOff[u]:c.outOff[u+1]]
}

func (c *CSR) deltaIn(u NodeID) []Arc {
	if i, ok := c.d.inRows.get(int32(u)); ok {
		return c.d.inRowArcs[i]
	}
	return c.inArcs[c.inOff[u]:c.inOff[u+1]]
}

func (c *CSR) deltaInProbs(u NodeID) []float64 {
	if i, ok := c.d.inRows.get(int32(u)); ok {
		return c.d.inRowP[i]
	}
	return c.inP[c.inOff[u]:c.inOff[u+1]]
}

// deltaProb resolves Prob on a layered snapshot: adds, re-probed base
// edges, then the base array.
func (c *CSR) deltaProb(eid int32) float64 {
	d := c.d
	if eid >= d.idBase {
		return d.adds[eid-d.idBase].P
	}
	if i, ok := d.probOv.get(eid); ok {
		return d.ovP[i]
	}
	return c.p[eid]
}

func (c *CSR) deltaEndpoints(eid int32) Edge {
	d := c.d
	if eid >= d.idBase {
		return d.adds[eid-d.idBase]
	}
	e := c.ends[eid]
	if i, ok := d.probOv.get(eid); ok {
		e.P = d.ovP[i]
	}
	return e
}

// Depth returns the number of delta layers committed over the flat base
// snapshot (0 for a flat snapshot). The engine's compaction policy bounds
// it. Depth, DeltaArcs and DeltaFraction describe committed epochs; on a
// WithEdges view, which is scratch, they carry no meaning.
func (c *CSR) Depth() int {
	if c.d == nil {
		return 0
	}
	return c.d.depth
}

// DeltaArcs returns the total arc count across the materialized delta rows
// (0 for a flat snapshot) — the read-side weight of the delta layer that,
// as a fraction of the base arc array, triggers compaction.
func (c *CSR) DeltaArcs() int {
	if c.d == nil {
		return 0
	}
	return c.d.arcs
}

// DeltaFraction returns DeltaArcs as a fraction of the base arc array (0
// for a flat snapshot).
func (c *CSR) DeltaFraction() float64 {
	if c.d == nil || len(c.outArcs) == 0 {
		return 0
	}
	return float64(c.d.arcs) / float64(len(c.outArcs))
}

// EdgeIDBound returns the exclusive upper bound on edge IDs present in the
// snapshot, the next ID an add would draw. Per-edge scratch (coin memos,
// RSS strata status) must size to this, not to M: layered snapshots retire
// removed IDs without reuse, so IDs are sparse and the bound exceeds the
// live edge count.
func (c *CSR) EdgeIDBound() int {
	if c.d != nil {
		return int(c.d.idBase) + len(c.d.adds)
	}
	return len(c.p)
}

// Edges returns the snapshot's logical edge set in canonical order —
// surviving base edges in base-ID order (re-probed values applied), then
// surviving adds in commit order; a WithEdges view lists its extras among
// the adds, after the base edges. This is the order a checkpoint
// serializes and a rebuild replays, so two snapshots of the same logical
// epoch return identical slices whether flat or layered.
func (c *CSR) Edges() []Edge {
	if c.d == nil {
		out := make([]Edge, len(c.ends))
		copy(out, c.ends)
		for i := range out {
			out[i].P = c.p[i]
		}
		return out
	}
	d := c.d
	out := make([]Edge, 0, d.m)
	for eid := int32(0); eid < d.idBase; eid++ {
		if _, rm := d.removed.get(eid); rm {
			continue
		}
		e := c.ends[eid]
		if i, ok := d.probOv.get(eid); ok {
			e.P = d.ovP[i]
		} else {
			e.P = c.p[eid]
		}
		out = append(out, e)
	}
	for _, e := range d.adds {
		if !math.IsNaN(e.P) {
			out = append(out, e)
		}
	}
	return out
}

// i32map is a small open-addressing int32 -> int32 map (linear probing,
// power-of-two capacity, -1 empty slots). The delta read path probes it
// once per node pop, so it avoids the hashing and bucket chasing of a Go
// map; keys are node IDs or edge IDs, both non-negative. The zero value is
// an empty map that allocates on its first put, so a layer pays nothing
// for the maps its edits never touch.
type i32map struct {
	keys []int32
	vals []int32
	n    int
}

func (m *i32map) slot(k int32) uint32 {
	return (uint32(k) * 2654435769) & uint32(len(m.keys)-1)
}

func (m *i32map) get(k int32) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	for i := m.slot(k); ; i = (i + 1) & uint32(len(m.keys)-1) {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case -1:
			return 0, false
		}
	}
}

func (m *i32map) put(k, v int32) {
	if (m.n+1)*3 > len(m.keys)*2 {
		m.grow()
	}
	for i := m.slot(k); ; i = (i + 1) & uint32(len(m.keys)-1) {
		switch m.keys[i] {
		case k:
			m.vals[i] = v
			return
		case -1:
			m.keys[i], m.vals[i] = k, v
			m.n++
			return
		}
	}
}

func (m *i32map) grow() {
	old := *m
	size := max(8, 2*len(old.keys))
	m.keys = make([]int32, size)
	m.vals = make([]int32, size)
	for i := range m.keys {
		m.keys[i] = -1
	}
	m.n = 0
	for i, k := range old.keys {
		if k != -1 {
			m.put(k, old.vals[i])
		}
	}
}

func (m *i32map) clone() i32map {
	return i32map{
		keys: append([]int32(nil), m.keys...),
		vals: append([]int32(nil), m.vals...),
		n:    m.n,
	}
}
