package sampling

import (
	"math"
	"math/bits"

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

// keyEdge is one edge's state in a keyed vector chunk: the epoch stamp,
// the words whose masks are drawn, and the masks.
type keyEdge struct {
	ep    int32
	drawn uint8
	mask  [vecWords]uint64
}

// keyScratch is the keyed vectors' scratch, epoch-stamped per pass so
// nothing is cleared between passes: the 8-word node and edge records of
// keyedChunk (nodes, edges), the nodes a pass reached (reach) and the lane
// counts a call sums over its passes. keyedWord runs on the s–t blocks'
// one-word records (vecScratch) under their epoch, and both pass widths
// share vecScratch's BFS queue. The masks are a memo only: each is a
// function of the call key, the edge's endpoints and the word (keyedMask),
// and the scalar-replay fuzz target rebuilds every lane's world from that
// function alone.
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
// time (keyedChunk) once it looks dense (see sparseReach). Cancellation,
// with its scheduling yield, is polled once per pass; a cancelled call
// counts only the passes it finished.
func (v *MCVec) keyedCounts(c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, w0, w1, z int) ([]uint32, int) {
	n := c.N()
	ks := &v.ks
	v.sc.reset(n, c.EdgeIDBound())
	ks.reset(n, c.EdgeIDBound())
	counts := ks.counts[:n]
	clear(counts)
	shape := csrShape{n: n, directed: c.Directed()}
	narrow := ks.shape != shape || !ks.dense
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
			reached += v.keyedChunk(c, src, forward, key, j, k, z, counts)
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
// mask is drawn then and memoized for the rest of the chunk. A keyed mask
// is the same whenever it is drawn, or if it never is.
func (v *MCVec) keyedChunk(c *ugraph.CSR, src ugraph.NodeID, forward bool, key uint64, w0, k, z int, counts []uint32) int {
	sc := &v.ks
	sc.nextEpoch()
	epoch := sc.epoch
	nodes, edges := sc.nodes, sc.edges
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
		if bits.OnesCount8(act) > wideWords {
			for i, a := range arcs {
				w := a.To
				nw := &nodes[w]
				cur := nw.ep == epoch
				// g[j]: the lanes of u's word j that w lacks.
				g := f
				if cur {
					var any uint64
					for j := range g {
						g[j] &^= nw.vis[j]
						any |= g[j]
					}
					if any == 0 {
						continue
					}
				}
				e := &edges[a.EID]
				if e.ep != epoch {
					e.ep, e.drawn = epoch, 0
				}
				if need := act &^ e.drawn; need != 0 {
					h := edgeHash(key, u, w, forward, directed)
					for nb := need; nb != 0; nb &= nb - 1 {
						j := bits.TrailingZeros8(nb) & (vecWords - 1)
						if g[j] != 0 {
							e.mask[j] = keyedMask(h, w0+j, probs[i])
							e.drawn |= 1 << j
						}
					}
				}
				var any uint64
				for j := range g {
					g[j] &= e.mask[j]
					any |= g[j]
				}
				if any == 0 {
					continue
				}
				if !cur {
					*nw = keyNode{ep: epoch}
					reach = append(reach, w)
				}
				for j, m := range g {
					nw.vis[j] |= m
					nw.pend[j] |= m
				}
				if !nw.queued {
					nw.queued = true
					queue = append(queue, w)
				}
			}
			continue
		}
		for i, a := range arcs {
			w := a.To
			nw := &nodes[w]
			e := &edges[a.EID]
			if e.ep != epoch {
				e.ep, e.drawn = epoch, 0
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
				if e.drawn>>j&1 == 0 {
					if !hashed {
						h, hashed = edgeHash(key, u, w, forward, directed), true
					}
					e.mask[j] = keyedMask(h, w0+j, probs[i])
					e.drawn |= 1 << j
				}
				if m &= e.mask[j]; m == 0 {
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
