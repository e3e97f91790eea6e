package paths

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"

	"repro/internal/candidates"
	"repro/internal/pq"
	"repro/internal/ugraph"
)

// TopL returns up to l most reliable simple s-t paths in g, the path set P
// of §5.1.2, in the package's order (see the package doc): probability
// bin descending, then the order the enumeration meets them in. That order
// also decides which of several equally reliable paths take the last
// places. To search G+ = G ∪ E+ with E+ listed, pass g.WithEdges(E+).
//
// The output is exact; see topL for the method. Extraction polls ctx once
// per path it accepts: a cancelled context stops the enumeration and
// returns the prefix of the answer it has proved so far, which may be
// shorter than the paths it has met. One limit applies: when the l-th
// path's probability lies below the next bin by less than the sums can
// resolve, every path whose sum could still reach that bin must be
// accepted, and only bandCap of them past the l-th are; past that the
// paths met first fill the last places.
func TopL(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g, nil)
	defer sr.release()
	return sr.topL(ctx, s, t, l)
}

// TopLPairs is TopL over G ∪ E+ with an elimination's candidate set left
// implicit: it returns what TopL returns on g.WithEdges(set.List()),
// candidate k being edge g.M()+k, bit for bit, without listing E+ or
// building that graph, past bandCap too. Its searches relax candidate arcs
// as pairArcs describes, skipping those whose relaxation cannot succeed;
// they scan a node's candidate arcs in another order than G+'s rows hold
// them, and ties between deviations are decided by edge ID, never by scan
// order. set must have been built on g.
func TopLPairs(ctx context.Context, g *ugraph.Graph, set *candidates.Pairs, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	sr := newSearcher(g, set)
	defer sr.release()
	return sr.topL(ctx, s, t, l)
}

// Band tolerance: a path's key, a −log sum, and the −log of its product
// lie within bandRel (relative) plus bandAbs of each other. They disagree
// in their last bits, by far less than this; the absolute term covers sums
// near 0, where a product of many near-1 probabilities rounds by more than
// the relative term.
const (
	bandRel = 1e-9
	bandAbs = 1e-12
)

// bandCap bounds the paths accepted past the first l, and so the time and
// memory that paths just below a bin's lower end can take (see TopL).
const bandCap = 1 << 14

// band widens w by the band tolerance.
func band(w float64) float64 { return w + bandRel*w + bandAbs }

// binBits is the number of leading significant bits of a probability the
// order compares: paths whose probabilities agree in them tie, and keep
// the enumeration's order. It leaves a bin far wider than the band
// tolerance, so the l-th path rarely lies close enough below the next bin
// to make the enumeration go on past it. binLog bounds the width of a bin
// in −log terms.
const binBits = 20

var binLog = -math.Log1p(-math.Ldexp(1, 1-binBits))

// binOf returns p with its significand cut to binBits bits, toward zero,
// a monotone map onto the lower ends of the bins.
func binOf(p float64) float64 {
	return math.Float64frombits(math.Float64bits(p) &^ (1<<(53-binBits) - 1))
}

// beats returns the key past which no path can lie in a bin above c: the
// −log of the next bin's lower end, widened by band twice, once for the
// sum a key is and once for the product a bin is cut from.
func beats(c float64) float64 {
	return band(band(-math.Log(math.Float64frombits(math.Float64bits(c) + 1<<(53-binBits)))))
}

// step is one node of a stored path, with the edge to the next node; the
// last step, at t, has e = −1.
type step struct {
	v ugraph.NodeID
	e int32
}

// accepted is a path the enumeration has popped: steps[off : off+hops+1],
// with its probability, the product of its edges' probabilities in path
// order.
type accepted struct {
	off, hops int32
	prob      float64
}

// deviation is a candidate entry: the simple paths that follow accepted
// path from up to position at, leave it over the sidetrack arc eid into y,
// and go on to t. It stands for the most reliable of them, whose
// continuation from y is the tree path (spur = treeSpur), not known yet
// (lazySpur: the tree path revisits the root, and the entry's key is a
// lower bound), or a searched continuation stored at spurs[spur:].
type deviation struct {
	from, at, eid int32
	y             ugraph.NodeID
	spur          int32
}

const (
	treeSpur = -1
	lazySpur = -2
)

// enumeration is the top-l state a searcher keeps for reuse.
type enumeration struct {
	t              ugraph.NodeID
	l              int
	in             rows      // in-arcs of a directed G, for the tree
	toT            []float64 // weight of the most reliable v-t path, +Inf if none
	succ, succEdge []int32   // its first hop; succEdge[t] = −1
	// toOrder and fromOrder index ToT and FromS by toT ascending (see byToT).
	toOrder, fromOrder []int32
	onRoot             []bool // nodes of the root being deviated from
	steps, spurs       []step
	paths              []accepted
	devs               devHeap
	// worst keeps the l smallest keys of exact entries seen, negated, so
	// its top is the l-th; limit bounds the key of any path in the answer
	// from it, +Inf until l are seen. best keeps the l highest bins of
	// accepted paths, so its top is the l-th; stop is beats of it.
	worst, best pq.Heap[struct{}]
	limit, stop float64
	order       []int32 // emit's selection of the first l
}

// topL enumerates simple s-t paths by sidetrack deviation (Martins,
// Pascoal & Santos 1999; Kurz & Mutzel 2016). One reverse Dijkstra from t
// builds the most-reliable tree to t. The first path is the tree path from
// s. Every accepted path P, at each position i after the one it deviated
// at, offers one deviation per arc (P[i], y) other than its own: root
// P[0..i], that arc, then the most reliable continuation from y that avoids
// the root. The deviations of all accepted paths partition the simple
// paths not yet accepted, so each path is met once, with no seen-set.
// A deviation is keyed by rootW + w + toT[y]. When y's tree path avoids the
// root, that key is exact and the path reads off the tree in O(hops);
// otherwise it is a lower bound, and the continuation is found (see
// resolve) only when the entry reaches the top of the heap.
//
// Entries pop in key order, and equal keys as devHeap orders them: the
// deviation nearest s first, so paths tied with one already accepted
// branch off it as early as they can. Paths rank by bin, then by the order
// they are accepted in, which therefore depends on the graph and the pair
// alone. Once l paths are accepted, the l-th highest bin among them being
// c, the enumeration stops at the first key past beats(c): no path left
// can reach a higher bin, and one left in bin c ranks after every accepted
// path. It also stops at the first key past the limit, which no path of
// the answer exceeds, or once bandCap paths past the l-th are accepted.
// It then sorts the accepted paths and keeps the first l. Entries past the
// limit are never queued.
func (sr *searcher) topL(ctx context.Context, s, t ugraph.NodeID, l int) []Path {
	sr.tree(t)
	if math.IsInf(sr.toT[s], 1) {
		return nil
	}
	if sr.set != nil {
		sr.toOrder = sr.byToT(sr.toOrder, sr.set.ToT)
		if !sr.g.Directed() {
			sr.fromOrder = sr.byToT(sr.fromOrder, sr.set.FromS)
		}
	}
	sr.l, sr.limit, sr.stop = l, math.Inf(1), math.Inf(1)
	sr.onRoot = resize(sr.onRoot, sr.g.N())
	clear(sr.onRoot)
	sr.steps, sr.spurs, sr.paths = sr.steps[:0], sr.spurs[:0], sr.paths[:0]
	sr.devs.Reset()
	sr.worst.Reset()
	sr.best.Reset()

	sr.record(sr.toT[s])
	sr.appendTree(s)
	sr.accept(0, -1)

	proved := math.Inf(1) // no path left unaccepted has a smaller key
	for sr.devs.Len() > 0 && len(sr.paths)-l < bandCap {
		key, d := sr.devs.Peek()
		if key > sr.limit || key > sr.stop {
			break
		}
		sr.devs.Pop()
		if d.spur == lazySpur {
			sr.resolve(d)
			continue
		}
		if ctx != nil {
			// Each accepted path is a scheduling point, like a sampler's
			// block check: requests served beside a long enumeration get
			// the processor between paths, not at a preemption tick.
			runtime.Gosched()
			if ctx.Err() != nil {
				proved = key
				break
			}
		}
		sr.accept(sr.follow(d), d.at)
	}
	return sr.emit(proved)
}

// follow appends the path an exact deviation stands for to steps and
// returns its offset there.
func (sr *searcher) follow(d deviation) int32 {
	off := int32(len(sr.steps))
	from := sr.paths[d.from]
	sr.steps = append(sr.steps, sr.steps[from.off:from.off+d.at+1]...)
	sr.steps[off+d.at].e = d.eid
	if d.spur == treeSpur {
		sr.appendTree(d.y)
		return off
	}
	end := d.spur
	for sr.spurs[end].e >= 0 {
		end++
	}
	sr.steps = append(sr.steps, sr.spurs[d.spur:end+1]...)
	return off
}

// tree grows the reverse most-reliable tree to t: toT[v] is the weight of
// the most reliable v-t path, and succ[v], succEdge[v] its first hop.
func (sr *searcher) tree(t ugraph.NodeID) {
	g, n := sr.g, sr.g.N()
	in := &sr.out
	if g.Directed() {
		sr.in.pack(g.Freeze(), n, sr.w, (*ugraph.CSR).In)
		in = &sr.in
	}
	dist := sr.dist
	dist[t] = 0
	sr.touched = append(sr.touched[:0], t)
	h := &sr.h
	h.Reset()
	h.Push(0, t)
	if sr.set != nil {
		sr.pairArcs.reset()
	}
	for h.Len() > 0 {
		d, v := h.Pop()
		if d > dist[v] {
			continue
		}
		for _, a := range in.row(v) {
			if nd := d + a.w; nd < dist[a.to] {
				sr.reach(v, a.to, a.eid, nd)
			}
		}
		if sr.set != nil {
			sr.relaxPairsIn(v, d)
		}
	}
	// The search's arrays become the tree's, and a fresh all-+Inf array
	// takes dist's place.
	sr.t = t
	sr.toT, sr.dist = dist, fillInf(resize(sr.toT, n))
	sr.succ, sr.parent = sr.parent, resize(sr.succ, n)
	sr.succEdge, sr.parentEdge = sr.parentEdge, resize(sr.succEdge, n)
	sr.succEdge[t] = -1
}

// appendTree appends the tree path from v to t to steps.
func (sr *searcher) appendTree(v ugraph.NodeID) {
	for {
		e := sr.succEdge[v]
		sr.steps = append(sr.steps, step{v, e})
		if e < 0 {
			return
		}
		v = ugraph.NodeID(sr.succ[v])
	}
}

// record notes the key of an exact entry or accepted path.
func (sr *searcher) record(key float64) {
	sr.worst.Push(-key, struct{}{})
	if sr.worst.Len() > sr.l {
		sr.worst.Pop()
	}
	if sr.worst.Len() == sr.l {
		// l paths have keys of at most -w, so the l-th bin is at least
		// the bin of exp(−band(-w)), and a path in the answer has a
		// probability no lower than that bin's lower end.
		w, _ := sr.worst.Peek()
		sr.limit = band(band(-w) + binLog)
	}
}

// accept stores the path just appended at steps[off:], notes its bin (see
// topL), and queues its deviations: at each position i past at, the one
// where it left its parent (−1 for the tree path from s), a sidetrack from
// the root path[:i+1] over every arc but the path's own.
func (sr *searcher) accept(off, at int32) {
	path := sr.steps[off:]
	hops := int32(len(path) - 1)
	prob := 1.0
	for _, st := range path[:hops] {
		prob *= sr.prob(st.e)
	}
	from := int32(len(sr.paths))
	sr.paths = append(sr.paths, accepted{off: off, hops: hops, prob: prob})
	sr.best.Push(binOf(prob), struct{}{})
	if sr.best.Len() > sr.l {
		sr.best.Pop()
	}
	if sr.best.Len() == sr.l {
		c, _ := sr.best.Peek()
		sr.stop = beats(c)
	}
	rootW := 0.0
	for i := int32(0); i < hops; i++ {
		sr.onRoot[path[i].v] = true
		if i > at {
			sr.sidetracks(path[i].v, path[i+1].v, rootW, &sr.limit, func(y ugraph.NodeID, eid int32, key float64) {
				sr.queue(from, i, y, eid, key)
			})
		}
		rootW += sr.weightOf(path[i].e)
	}
	for _, st := range path[:hops] {
		sr.onRoot[st.v] = false
	}
}

// sidetracks calls f for every arc (u, y) but the one into next whose head
// is off the root and whose key rootW + w + toT[y] is within *lim, which f
// may lower. Candidate arcs are scanned by toT ascending, so the scan
// stops at the first past the limit, and their edge IDs are ranked only
// for the arcs passed to f.
func (sr *searcher) sidetracks(u, next ugraph.NodeID, rootW float64, lim *float64, f func(y ugraph.NodeID, eid int32, key float64)) {
	within := func(y ugraph.NodeID, key float64) bool {
		return y != next && !sr.onRoot[y] && key <= *lim && !math.IsInf(key, 1)
	}
	for _, a := range sr.out.row(u) {
		if key := rootW + a.w + sr.toT[a.to]; within(a.to, key) {
			f(a.to, a.eid, key)
		}
	}
	p := &sr.pairArcs
	base := rootW + p.w
	if sr.set == nil || math.IsInf(base, 1) {
		return
	}
	if i := int(p.fromIdx[u]); i >= 0 {
		for _, j := range sr.toOrder {
			y := p.set.ToT[j]
			key := base + sr.toT[y]
			if key > *lim {
				break
			}
			if p.admitted(i, int(j)) && within(y, key) {
				f(y, p.origM+int32(p.set.Rank(i, int(j))), key)
			}
		}
	}
	if j := int(p.toIdx[u]); j >= 0 && !sr.g.Directed() {
		for _, i := range sr.fromOrder {
			y := p.set.FromS[i]
			key := base + sr.toT[y]
			if key > *lim {
				break
			}
			if p.admitted(int(i), j) && within(y, key) {
				f(y, p.origM+int32(p.set.Rank(int(i), j)), key)
			}
		}
	}
}

// byToT returns order holding the indices into nodes of the nodes that
// reach t, by toT ascending, so a scan for sidetracks within the limit
// stops at the first one past it.
func (sr *searcher) byToT(order []int32, nodes []ugraph.NodeID) []int32 {
	order = order[:0]
	for i, v := range nodes {
		if !math.IsInf(sr.toT[v], 1) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(sr.toT[nodes[a]], sr.toT[nodes[b]]) })
	return order
}

// queue queues the deviation of path from at position at over arc eid into
// y, at key, exact if y's tree path avoids the root and lazy otherwise.
func (sr *searcher) queue(from, at int32, y ugraph.NodeID, eid int32, key float64) {
	d := deviation{from: from, at: at, eid: eid, y: y, spur: lazySpur}
	if sr.clear(y) {
		d.spur = treeSpur
		sr.record(key)
	}
	sr.devs.Push(key, d)
}

// clear reports whether the tree path from y, after y, avoids the root.
func (sr *searcher) clear(y ugraph.NodeID) bool {
	for v := y; sr.succEdge[v] >= 0; {
		if v = ugraph.NodeID(sr.succ[v]); sr.onRoot[v] {
			return false
		}
	}
	return true
}

// resolve finds the continuation of a lazy deviation, from y to t
// avoiding the root, and queues the deviation again with its exact key,
// or drops it when that key is past the limit. It first looks one arc
// past y: the least w + toT[z] over arcs (y, z) off the root bounds every
// continuation, and is its weight when some z attaining it has a tree path
// clear of the root and y; of those, the arc with the lowest edge ID is
// taken, so the choice does not hang on the order arcs are scanned in.
// Only when none has does it search from y with the root banned.
func (sr *searcher) resolve(d deviation) {
	from := sr.paths[d.from]
	root := sr.steps[from.off : from.off+d.at+1]
	base := 0.0
	for _, st := range root[:d.at] {
		base += sr.weightOf(st.e)
	}
	base += sr.weightOf(d.eid)
	for _, st := range root {
		sr.onRoot[st.v] = true
	}
	sr.onRoot[d.y] = true
	best, z, ze, hit := sr.limit, ugraph.NodeID(-1), int32(-1), false
	sr.sidetracks(d.y, -1, base, &best, func(y ugraph.NodeID, eid int32, key float64) {
		if key < best || !hit {
			best, z, hit = key, -1, true
		}
		if (z < 0 || eid < ze) && sr.clear(y) {
			z, ze = y, eid
		}
	})
	for _, st := range root {
		sr.onRoot[st.v] = false
	}
	sr.onRoot[d.y] = false
	if !hit {
		return
	}
	d.spur = int32(len(sr.spurs))
	if z >= 0 {
		sr.spurs = append(sr.spurs, step{d.y, ze})
		for v := z; ; v = ugraph.NodeID(sr.succ[v]) {
			sr.spurs = append(sr.spurs, step{v, sr.succEdge[v]})
			if sr.succEdge[v] < 0 {
				break
			}
		}
		sr.record(best)
		sr.devs.Push(best, d)
		return
	}
	for _, st := range root {
		sr.dist[st.v] = math.Inf(-1)
	}
	dt, ok := sr.search(d.y, sr.t)
	for _, st := range root {
		sr.dist[st.v] = math.Inf(1)
	}
	key := base + dt
	if !ok || key > sr.limit {
		return
	}
	sr.spurs = append(sr.spurs, step{sr.t, -1})
	for v := sr.t; v != d.y; {
		u := ugraph.NodeID(sr.parent[v])
		sr.spurs = append(sr.spurs, step{u, sr.parentEdge[v]})
		v = u
	}
	slices.Reverse(sr.spurs[d.spur:])
	sr.record(key)
	sr.devs.Push(key, d)
}

// compare orders accepted paths a and b: bin descending, then the order
// they were accepted in.
func (sr *searcher) compare(a, b int32) int {
	if c := cmp.Compare(binOf(sr.paths[b].prob), binOf(sr.paths[a].prob)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// devHeap is the candidate heap: a binary min-heap of deviations by key,
// and among equal keys by position (nearest s first), then by the path
// they leave (the one accepted first), then by edge ID. That order is
// total, so entries pop in it whatever order they were pushed in. It is
// pq.Heap with the tie order written out: with the order given to pq.Heap
// as a function, ties cost an indirect call at every level of every pop,
// and BenchmarkTopLTieBand, whose l-th path ties with thousands, took
// 450–465 µs against 296–356 µs here (3 alternating runs).
type devHeap struct {
	items []devItem
}

type devItem struct {
	key float64
	d   deviation
}

// before reports whether a leaves the heap before b.
func (a *devItem) before(b *devItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.d.at != b.d.at {
		return a.d.at < b.d.at
	}
	if a.d.from != b.d.from {
		return a.d.from < b.d.from
	}
	return a.d.eid < b.d.eid
}

func (h *devHeap) Len() int { return len(h.items) }

func (h *devHeap) Reset() { h.items = h.items[:0] }

func (h *devHeap) Peek() (float64, deviation) { return h.items[0].key, h.items[0].d }

func (h *devHeap) Push(key float64, d deviation) {
	h.items = append(h.items, devItem{key, d})
	it := h.items
	for i := len(it) - 1; i > 0; {
		up := (i - 1) / 2
		if !it[i].before(&it[up]) {
			break
		}
		it[i], it[up] = it[up], it[i]
		i = up
	}
}

func (h *devHeap) Pop() (float64, deviation) {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	it := h.items[:n]
	h.items = it
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && it[c+1].before(&it[c]) {
			c++
		}
		if !it[c].before(&it[i]) {
			break
		}
		it[i], it[c] = it[c], it[i]
		i = c
	}
	return top.key, top.d
}

// emit returns the first l accepted paths in compare's order, of those no
// path left unaccepted can precede: every such path has a key of at least
// proved, +Inf when the enumeration ran to its end.
func (sr *searcher) emit(proved float64) []Path {
	sel := sr.order[:0]
	for i, p := range sr.paths {
		if math.IsInf(proved, 1) || beats(binOf(p.prob)) < proved {
			sel = append(sel, int32(i))
		}
	}
	sr.order = sel
	slices.SortFunc(sel, sr.compare)
	sel = sel[:min(sr.l, len(sel))]
	size := 0
	for _, i := range sel {
		size += int(sr.paths[i].hops)
	}
	nodes := make([]ugraph.NodeID, size+len(sel))
	edges := make([]int32, size)
	out := make([]Path, len(sel))
	for k, i := range sel {
		p := sr.paths[i]
		path := sr.steps[p.off : p.off+p.hops+1]
		pn, pe := nodes[:p.hops+1:p.hops+1], edges[:p.hops:p.hops]
		nodes, edges = nodes[p.hops+1:], edges[p.hops:]
		for j, st := range path {
			pn[j] = st.v
			if st.e >= 0 {
				pe[j] = st.e
			}
		}
		out[k] = Path{Nodes: pn, Edges: pe, Prob: p.prob}
	}
	return out
}
