package sampling

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// This file holds MCVec's keyed From/To vectors (see the MCVec doc): lane
// word j of edge {x, y} under call key K is the mask keyedMask draws at
// (edgeHash(K, x, y), j). A bitset BFS carries one word where the reach is
// sparse (keyedWord) and up to vecWords words where it is dense
// (keyedChunk).

// vector takes the call's key from the sampler's stream and estimates the
// keyed vector over all z lanes.
func (v *MCVec) vector(c *ugraph.CSR, src ugraph.NodeID, forward bool) []float64 {
	key := v.r.Uint64()
	counts, drawn := v.keyedCounts(c, src, forward, key, 0, laneWords(v.z), v.z)
	return vectorOf(counts, drawn)
}

// vectorKey is the key of the keyed vector a sampler seeded with seed
// estimates first: the first word of its mask stream.
func vectorKey(seed int64) uint64 {
	r := rng.NewMask64(seed)
	return r.Uint64()
}

// laneWords is the number of lane words a z-world budget spans.
func laneWords(z int) int {
	if z <= 0 {
		return 0
	}
	return (z + laneBlock - 1) / laneBlock
}

// wordLanes is the lane mask of word j of a z-world budget: full, except
// for the z%64 tail of the last word.
func wordLanes(j, z int) uint64 {
	if rest := z - j*laneBlock; rest < laneBlock {
		return fullLanes >> (laneBlock - rest)
	}
	return fullLanes
}

// vectorOf turns per-node lane counts over drawn worlds into reliabilities.
func vectorOf(counts []uint32, drawn int) []float64 {
	out := make([]float64, len(counts))
	if drawn == 0 {
		return out
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(drawn)
	}
	return out
}

// keyNode is one node's state in a keyed vector chunk: the epoch stamp
// validating the rest, whether the node is queued, and per word the lanes
// that reached it and the lanes reached but not yet expanded (the node is
// queued iff one of them is non-zero). One record, so a BFS touching a node
// reads its stamp and its lanes together.
type keyNode struct {
	ep        int32
	queued    bool
	vis, pend [vecWords]uint64
}

// keyEdge is one edge's state in a keyed vector chunk: the stamp
// validating the rest, the words whose masks are drawn, and the masks.
// Lane word w sits in slot w mod vecWords (bit w mod vecWords of drawn),
// which no two words of one chunk share.
type keyEdge struct {
	ep    int32
	drawn uint8
	mask  [vecWords]uint64
}

// keyScratch is the keyed vectors' scratch, epoch-stamped per pass so
// nothing is cleared between passes: the 8-word node and edge records of
// keyedChunk (nodes, edges), the nodes a pass stamped (reach; a few may
// hold no lanes) and the lane counts a call sums over its passes.
// keyedWord runs on the s–t blocks' one-word records (vecScratch) under
// their epoch, and both pass widths share vecScratch's BFS queue. edges
// holds one record per edge ID, valid for one pass; a dense call on a key
// the sampler has used before runs on that key's mask view instead (see
// maskView), whose records outlive the call. Either way the masks are a
// memo only: each is a function of the call key, the edge's endpoints,
// the word and the edge's probability (keyedMask), and the scalar-replay
// fuzz target rebuilds every lane's world from that function alone.
type keyScratch struct {
	epoch  int32
	nodes  []keyNode
	edges  []keyEdge
	reach  []ugraph.NodeID
	counts []uint32
	// shape and dense record the graph of the last vector and whether
	// its reach was dense (see keyedCounts).
	shape csrShape
	dense bool
	// views are the sampler's mask views, seen the keys of dense calls
	// that got none (newest first), and lookups counts view lookups,
	// which order the views by last use.
	views   [maxViews]maskView
	seen    [maxViews]viewID
	lookups uint64
}

func (sc *keyScratch) reset(n, m int) {
	// As in vecScratch.reset, a restarted epoch zeroes every stamp array.
	if len(sc.nodes) < n || len(sc.edges) < m {
		if len(sc.nodes) < n {
			sc.nodes = make([]keyNode, n)
			sc.counts = make([]uint32, n)
			sc.reach = make([]ugraph.NodeID, 0, n)
		} else {
			clear(sc.nodes)
		}
		if len(sc.edges) < m {
			sc.edges = make([]keyEdge, m)
		} else {
			clear(sc.edges)
		}
		sc.epoch = 0
	}
}

// nextEpoch advances the pass epoch, clearing the stamp arrays explicitly
// on wraparound.
func (sc *keyScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch <= 0 {
		clear(sc.nodes)
		clear(sc.edges)
		sc.epoch = 1
	}
}

// keyedCounts estimates words [w0, w1) of the z-world keyed vector from
// src: it returns, per node, the number of those lanes that reach it
// (src's own lanes included), and the number of lanes drawn. The counts
// live in the sampler's scratch until its next estimate. The words run one
// per pass (keyedWord) while the reach looks sparse, and vecWords at a
// time (keyedChunk) once it looks dense (see sparseReach). A call that
// starts dense runs its chunks on the key's mask view when the sampler
// keeps or builds one (see keyScratch.view). Cancellation, with its
// scheduling yield, is polled once per pass; a cancelled call counts only
// the passes it finished.
func (v *MCVec) keyedCounts(c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, w0, w1, z int) ([]uint32, int) {
	n := c.N()
	ks := &v.ks
	v.sc.reset(n, c.EdgeIDBound())
	ks.reset(n, c.EdgeIDBound())
	counts := ks.counts[:n]
	clear(counts)
	shape := csrShape{n: n, directed: c.Directed()}
	narrow := ks.shape != shape || !ks.dense
	var view *maskView
	if !narrow {
		view = ks.view(c, key, forward, laneWords(z))
	}
	drawn, reached := 0, 0
	for j := w0; j < w1; {
		if v.cancelled() {
			break
		}
		k, lanes := 1, bits.OnesCount64(wordLanes(j, z))
		if narrow {
			r := v.keyedWord(c, src, forward, key, j, z, counts)
			narrow = r < sparseReach*lanes
			reached += r
		} else {
			k = min(vecWords, w1-j)
			reached += v.keyedChunk(c, src, forward, key, j, k, z, counts, view)
			for i := j + 1; i < j+k; i++ {
				lanes += bits.OnesCount64(wordLanes(i, z))
			}
		}
		drawn += lanes
		j += k
	}
	if drawn > 0 {
		ks.shape, ks.dense = shape, reached >= sparseReach*drawn
	}
	return counts, drawn
}

// sparseReach is the mean number of nodes a world reaches below which
// keyedCounts runs one word per pass. A sparse reach leaves few lanes per
// node, so a wide pass saves little traversal while its 8-word node and
// edge records crowd the cache. A call starts one word at a time, unless
// the sampler's previous call ran on a graph of the same shape and found
// its reach dense, and turns wide after a dense word. Every lane meets the
// same keyed masks either way, so the choice never changes a count.
const sparseReach = 16

// csrShape is the node count and direction of the graph a sampler last
// estimated a vector on, for keyedCounts' choice of pass width only. It
// matches across the epochs of one served graph, whose reach changes
// little from write to write; a false match costs time, never a bit of a
// result.
type csrShape struct {
	n        int
	directed bool
}

// maxViews is the number of mask views a sampler keeps, and of keys it
// remembers having used without one.
const maxViews = 4

// maxViewBytes caps one mask view's records. A graph whose traversal has
// more arcs than fit keeps the per-pass records.
const maxViewBytes = 4 << 20

// viewEpoch stamps the records of a mask view that a pass has touched.
// It never advances, so a view's masks outlive the passes that draw them.
const viewEpoch = 1

// viewID names the masks a view holds: a call key, the lane words of the
// calls using it and their direction.
type viewID struct {
	key     uint64
	words   int
	forward bool
}

// maskView keeps one key's masks on one CSR from call to call: a keyEdge
// record per arc of the rows a traversal walks (Out forward, In backward),
// in adjacency order, so a chunk reads an arc's masks next to the arc.
// A record holds every lane word of the view's calls (at most vecWords,
// so a part of a call, whichever words it carries, finds them in the same
// view) and fills as passes draw them. A mask is a function of the key,
// the edge's canonical endpoints, the word and the edge's probability
// alone, so a view never changes a bit of a vector.
type maskView struct {
	id viewID
	// c is the graph the records describe, nil in a slot never used. The
	// view holds it, so no other CSR can take its address while the view
	// names it.
	c    *ugraph.CSR
	off  []int32 // off[u]: the record of the first arc of u's row
	recs []keyEdge
	used uint64 // keyScratch.lookups at the view's last lookup
}

// view returns the sampler's mask view of key on c for calls of the given
// lane words and direction, or nil if such a call should draw into the
// per-pass records: a call of more than vecWords words, one on a graph
// whose records would pass maxViewBytes, or the first call on a key, since
// a key used once (a batch's per-node keys, an experiment's per-query
// seeds) would pay for a view it never reads again. A key with a view on
// another graph of the same direction gets one on c that starts from the
// masks of its latest such view (see build); a key seen once before gets
// an empty one. The new view takes the slot used least recently, sparing
// the one it starts from.
func (ks *keyScratch) view(c *ugraph.CSR, key uint64, forward bool, words int) *maskView {
	if words > vecWords {
		return nil
	}
	id := viewID{key: key, words: words, forward: forward}
	ks.lookups++
	var from *maskView
	for i := range ks.views {
		v := &ks.views[i]
		if v.c == nil || v.id != id {
			continue
		}
		if v.c == c {
			v.used = ks.lookups
			return v
		}
		if v.c.Directed() == c.Directed() && (from == nil || v.used > from.used) {
			from = v
		}
	}
	if from == nil && !ks.seenBefore(id) {
		return nil
	}
	arcs := c.M()
	if !c.Directed() {
		arcs *= 2
	}
	if arcs*int(unsafe.Sizeof(keyEdge{})) > maxViewBytes {
		return nil
	}
	var slot *maskView
	for i := range ks.views {
		if v := &ks.views[i]; v != from && (slot == nil || v.used < slot.used) {
			slot = v
		}
	}
	slot.build(c, id, from)
	slot.used = ks.lookups
	return slot
}

// seenBefore reports whether id is among the last maxViews keys that got
// no view, and records it there if not.
func (ks *keyScratch) seenBefore(id viewID) bool {
	for _, s := range ks.seen {
		if s == id {
			return true
		}
	}
	copy(ks.seen[1:], ks.seen[:maxViews-1])
	ks.seen[0] = id
	return false
}

// build makes v the view id on c, reusing v's arrays. Each record starts
// as a copy of the record of the same arc in from's rows (from may be nil)
// where from's graph has that arc at the same probability, and undrawn
// otherwise: after an edit batch only the edited edges draw again. A row
// keeps its arcs' relative order from one epoch to the next, on a delta
// layer and on its flat rebuild alike (an edit drops an arc in place or
// appends one), so one forward scan of the old row finds every arc it
// still has; any other order only leaves more records undrawn. Nothing is
// kept from one view to the next but the records, so a long write stream
// leaves no stale entries behind.
func (v *maskView) build(c *ugraph.CSR, id viewID, from *maskView) {
	n := c.N()
	v.id, v.c = id, c
	v.off = slices.Grow(v.off[:0], n+1)[:n+1]
	total := int32(0)
	for u := range n {
		v.off[u] = total
		arcs, _ := row(c, ugraph.NodeID(u), id.forward)
		total += int32(len(arcs))
	}
	v.off[n] = total
	v.recs = slices.Grow(v.recs[:0], int(total))[:total]
	if from == nil {
		clear(v.recs)
		return
	}
	for u := range n {
		recs := v.recs[v.off[u]:v.off[u+1]]
		if u >= from.c.N() {
			clear(recs)
			continue
		}
		arcs, probs := row(c, ugraph.NodeID(u), id.forward)
		oldArcs, oldProbs := row(from.c, ugraph.NodeID(u), id.forward)
		old := from.recs[from.off[u]:from.off[u+1]]
		k := 0
		for i, a := range arcs {
			j := k
			for j < len(oldArcs) && oldArcs[j].To != a.To {
				j++
			}
			switch {
			case j == len(oldArcs):
				recs[i] = keyEdge{}
			case oldProbs[j] == probs[i]:
				recs[i], k = old[j], j+1
			default:
				recs[i], k = keyEdge{}, j+1
			}
		}
	}
}

// addLanes adds to a head's reached and pending lanes, word by word, the
// lanes of the tail's pending words f that the head lacks and the arc's
// masks carry, and returns their union. It is keyedChunk's hottest code,
// written out word by word since the compiler does not unroll the loop;
// the array below stops the build if vecWords outgrows it.
var _ [8 - vecWords]struct{}

func addLanes(vis, pend, f, mask *[vecWords]uint64) uint64 {
	m0 := f[0] &^ vis[0] & mask[0]
	m1 := f[1] &^ vis[1] & mask[1]
	m2 := f[2] &^ vis[2] & mask[2]
	m3 := f[3] &^ vis[3] & mask[3]
	m4 := f[4] &^ vis[4] & mask[4]
	m5 := f[5] &^ vis[5] & mask[5]
	m6 := f[6] &^ vis[6] & mask[6]
	m7 := f[7] &^ vis[7] & mask[7]
	vis[0], pend[0] = vis[0]|m0, pend[0]|m0
	vis[1], pend[1] = vis[1]|m1, pend[1]|m1
	vis[2], pend[2] = vis[2]|m2, pend[2]|m2
	vis[3], pend[3] = vis[3]|m3, pend[3]|m3
	vis[4], pend[4] = vis[4]|m4, pend[4]|m4
	vis[5], pend[5] = vis[5]|m5, pend[5]|m5
	vis[6], pend[6] = vis[6]|m6, pend[6]|m6
	vis[7], pend[7] = vis[7]|m7, pend[7]|m7
	return m0 | m1 | m2 | m3 | m4 | m5 | m6 | m7
}

// row returns u's arcs and their probabilities in the direction a
// traversal walks: out-arcs forward, in-arcs backward. The pass kernels
// spell it out, since it is too large to inline there.
func row(c *ugraph.CSR, u ugraph.NodeID, forward bool) ([]ugraph.Arc, []float64) {
	if forward {
		return c.Out(u), c.OutProbs(u)
	}
	return c.In(u), c.InProbs(u)
}

// keyedWord is keyedChunk for the single lane word j, on the s–t blocks'
// one-word node and edge records. It returns the total lane count it added.
func (v *MCVec) keyedWord(c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, j, z int, counts []uint32) int {
	sc := &v.sc
	sc.nextEpoch()
	epoch := sc.epoch
	nodes, edges := sc.nodes, sc.edges
	directed := c.Directed()
	lanes := wordLanes(j, z)
	queue, reach := sc.queue[:0], v.ks.reach[:0]
	nodes[src] = laneNode{ep: epoch, vis: lanes, pend: lanes}
	queue = append(queue, src)
	reach = append(reach, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nu := &nodes[u]
		f := nu.pend
		nu.pend = 0
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
		}
		for i, a := range arcs {
			w := a.To
			nw := &nodes[w]
			m := f
			cur := nw.ep == epoch
			if cur {
				if m &^= nw.vis; m == 0 {
					continue
				}
			}
			e := &edges[a.EID]
			if e.ep != epoch {
				e.ep, e.mask = epoch, keyedMask(edgeHash(key, u, w, forward, directed), j, probs[i])
			}
			if m &= e.mask; m == 0 {
				continue
			}
			if !cur {
				*nw = laneNode{ep: epoch, vis: m, pend: m}
				queue = append(queue, w)
				reach = append(reach, w)
				continue
			}
			nw.vis |= m
			if nw.pend == 0 {
				queue = append(queue, w)
			}
			nw.pend |= m
		}
	}
	total := 0
	for _, u := range reach {
		n := bits.OnesCount64(nodes[u].vis)
		counts[u] += uint32(n)
		total += n
	}
	sc.queue, v.ks.reach = queue, reach
	return total
}

// wideWords is the pending-word count above which keyedChunk expands a
// node in fixed-width loops over every word instead of visiting its
// pending words one by one: a dense frontier is cheaper without the
// per-word branches, and a sparse one without the dead words.
const wideWords = 2

// keyedChunk runs one bitset BFS from src carrying lane words
// [w0, w0+k) of the z-world keyed vector at once, adds each reached node's
// lane count to counts, and returns the total it added. A node expands the
// words it has pending only: one by one when they are few, so a sparse
// frontier pays for the words that carry it, not for all k, and in
// fixed-width loops over all vecWords words when they are many. An arc
// needs the edge's mask only in the words where it could bring its head
// something new (lanes the tail has pending and the head lacks); such a
// mask is drawn then and memoized: for the rest of the chunk in the
// edge's per-pass record, or, given a view, in the arc's record for the
// view's lifetime. A keyed mask is the same whenever it is drawn, or if it
// never is. A wide expansion stamps each head it examines, so it updates
// the head's lanes in the same loop that computes them; a head that gets
// no lanes adds nothing to the counts.
func (v *MCVec) keyedChunk(c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, w0, k, z int, counts []uint32, view *maskView) int {
	sc := &v.ks
	sc.nextEpoch()
	epoch := sc.epoch
	nodes := sc.nodes
	// Arc i of u's row uses record off[u]+i of a view, stamped viewEpoch
	// once touched, and otherwise the record of its edge ID, stamped with
	// the pass's epoch.
	edges, stamp, off := sc.edges, epoch, []int32(nil)
	if view != nil {
		edges, stamp, off = view.recs, viewEpoch, view.off
	}
	// Word w0+j of a record sits in slot (rot+j) mod vecWords; a wide
	// expansion reads a record's masks through rotated when rot != 0.
	rot := w0 & (vecWords - 1)
	var rotated [vecWords]uint64
	directed := c.Directed()
	queue, reach := v.sc.queue[:0], sc.reach[:0]
	ns := &nodes[src]
	*ns = keyNode{ep: epoch, queued: true}
	for j := 0; j < k; j++ {
		l := wordLanes(w0+j, z)
		ns.vis[j], ns.pend[j] = l, l
	}
	queue = append(queue, src)
	reach = append(reach, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nu := &nodes[u]
		f := nu.pend
		nu.queued, nu.pend = false, [vecWords]uint64{}
		var act uint8
		for j, l := range f {
			act |= uint8((l|-l)>>63) << j
		}
		var arcs []ugraph.Arc
		var probs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
		}
		var first int32
		if off != nil {
			first = off[u]
		}
		if bits.OnesCount8(act) > wideWords {
			for i, a := range arcs {
				w := a.To
				nw := &nodes[w]
				if nw.ep != epoch {
					*nw = keyNode{ep: epoch}
					reach = append(reach, w)
				}
				x := a.EID
				if off != nil {
					x = first + int32(i)
				}
				e := &edges[x]
				if e.ep != stamp {
					e.ep, e.drawn = stamp, 0
				}
				if need := act &^ bits.RotateLeft8(e.drawn, -rot); need != 0 {
					h := edgeHash(key, u, w, forward, directed)
					for nb := need; nb != 0; nb &= nb - 1 {
						j := bits.TrailingZeros8(nb) & (vecWords - 1)
						if f[j]&^nw.vis[j] != 0 {
							slot := (rot + j) & (vecWords - 1)
							e.mask[slot] = keyedMask(h, w0+j, probs[i])
							e.drawn |= 1 << slot
						}
					}
				}
				mask := &e.mask
				if rot != 0 {
					for j := range rotated {
						rotated[j] = e.mask[(rot+j)&(vecWords-1)]
					}
					mask = &rotated
				}
				any := addLanes(&nw.vis, &nw.pend, &f, mask)
				if any != 0 && !nw.queued {
					nw.queued = true
					queue = append(queue, w)
				}
			}
			continue
		}
		for i, a := range arcs {
			w := a.To
			nw := &nodes[w]
			x := a.EID
			if off != nil {
				x = first + int32(i)
			}
			e := &edges[x]
			if e.ep != stamp {
				e.ep, e.drawn = stamp, 0
			}
			cur := nw.ep == epoch
			var h uint64
			hashed := false
			for nb := act; nb != 0; nb &= nb - 1 {
				j := bits.TrailingZeros8(nb) & (vecWords - 1)
				m := f[j]
				if cur {
					if m &^= nw.vis[j]; m == 0 {
						continue
					}
				}
				slot := (rot + j) & (vecWords - 1)
				if e.drawn>>slot&1 == 0 {
					if !hashed {
						h, hashed = edgeHash(key, u, w, forward, directed), true
					}
					e.mask[slot] = keyedMask(h, w0+j, probs[i])
					e.drawn |= 1 << slot
				}
				if m &= e.mask[slot]; m == 0 {
					continue
				}
				if !cur {
					*nw = keyNode{ep: epoch}
					reach = append(reach, w)
					cur = true
				}
				nw.vis[j] |= m
				nw.pend[j] |= m
				if !nw.queued {
					nw.queued = true
					queue = append(queue, w)
				}
			}
		}
	}
	total := 0
	for _, u := range reach {
		n := 0
		for _, l := range nodes[u].vis[:k] {
			n += bits.OnesCount64(l)
		}
		counts[u] += uint32(n)
		total += n
	}
	v.sc.queue, sc.reach = queue, reach
	return total
}

// edgeHash is the stream position, under a vector key, of the edge a
// traversal crosses from u to w (forward: the edge u→w; backward: w→u): a
// hash of the key and the edge's canonical endpoints (sorted on an
// undirected graph), so an edge draws the same masks whichever endpoint a
// traversal meets it from and whatever ID a snapshot gives it.
func edgeHash(key uint64, u, w ugraph.NodeID, forward, directed bool) uint64 {
	x, y := u, w
	if !forward {
		x, y = w, u
	}
	if !directed && x > y {
		x, y = y, x
	}
	return rng.Hash64(key ^ uint64(uint32(x))<<32 ^ uint64(uint32(y)))
}

// wordStride spaces one edge's word streams 2³² counts apart: it is the
// keyed stream's counter increment, 0x9e3779b97f4a7c15, times 2³², reduced
// mod 2⁶⁴.
const wordStride = 0x7f4a7c15 << 32

// keyedMask draws lane word j of the edge at stream position h, present
// with probability p: rng.BernoulliMask's digit comparison, on the keyed
// stream whose counter stands at h + j·wordStride. Each digit of p's
// binary expansion decides the undecided lanes whose uniform digit (a bit
// of the next word) differs from it, a lane succeeding where p's digit is
// 1, down to p's last 1 digit; lanes still undecided there resolve to
// failure. When p >= 2^-12 the expansion up to its last 1 fits one
// register, MSB first; a smaller p first runs its 1022−exp leading zero
// digits, which only fail lanes.
func keyedMask(h uint64, j int, p float64) uint64 {
	if p >= 1 {
		return fullLanes
	}
	if p <= 0 {
		return 0
	}
	r := rng.Keyed64At(h + uint64(j)*wordStride)
	b := math.Float64bits(p)
	var em uint64
	und := fullLanes
	if exp := b >> 52; exp >= 1011 {
		for dig := (b&(1<<52-1) | 1<<52) << (exp - 1011); und != 0 && dig != 0; dig <<= 1 {
			w := r.Uint64()
			d := -(dig >> 63)
			em |= und & d &^ w
			und &= w ^ ^d
		}
		return em
	}
	exp := int(b >> 52)
	mant, digits := b&(1<<52-1)|1<<52, 53
	if exp == 0 {
		mant, digits = b&(1<<52-1), 52
	}
	for zeros := 1022 - exp; zeros > 0 && und != 0; zeros-- {
		und &^= r.Uint64()
	}
	for i := digits - 1; i >= bits.TrailingZeros64(mant) && und != 0; i-- {
		w := r.Uint64()
		d := -(mant >> uint(i) & 1)
		em |= und & d &^ w
		und &= w ^ ^d
	}
	return em
}
