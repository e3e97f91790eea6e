package sampling

// Tests for the word-parallel 64-lane Monte Carlo sampler: exactness on
// deterministic graphs, the z % 64 tail lane mask, the pinned determinism
// contract (fixed seed -> bit-identical; ParallelSampler wrapping ->
// bit-identical at any worker count with 64-aligned shard budgets), and
// statistical agreement with the scalar MonteCarlo reference at large
// budgets. The scalar mc stays the bit-exactness oracle for the legacy
// stream; mcvec's own stream is pinned by these tests instead.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// mcvecGraph is a mid-size random graph with enough structure that BFS
// order, memoized edge masks and the undirected both-endpoints path all
// get exercised.
func mcvecGraph(n int, directed bool, seed int64) *ugraph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := ugraph.New(n, directed)
	for i := 0; i < 5*n; i++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.8*r.Float64())
	}
	return g
}

// TestMCVecExactOnDeterministicGraphs pins the lane-mask bookkeeping where
// sampling noise cannot hide it: on a p=1 path every lane must count
// exactly once (estimate exactly 1 at every budget, including the z%64
// tails), and on a p=0 edge no lane may ever fire.
func TestMCVecExactOnDeterministicGraphs(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := ugraph.New(5, directed)
		for i := 0; i < 4; i++ {
			g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(i+1), 1)
		}
		zero := ugraph.New(2, directed)
		zero.MustAddEdge(0, 1, 0)
		for _, z := range []int{1, 63, 64, 65, 129, 500} {
			v := NewMCVec(z, 7)
			if got := v.Reliability(g, 0, 4); got != 1 {
				t.Errorf("directed=%v z=%d: p=1 path estimate %v, want exactly 1", directed, z, got)
			}
			if got := v.Reliability(zero, 0, 1); got != 0 {
				t.Errorf("directed=%v z=%d: p=0 edge estimate %v, want exactly 0", directed, z, got)
			}
			if got := v.Reliability(g, 2, 2); got != 1 {
				t.Errorf("directed=%v z=%d: s==t estimate %v, want 1", directed, z, got)
			}
		}
	}
}

// TestMCVecTailMask covers the z%64 tail explicitly at z = 1, 63, 64, 65:
// the estimate must be a multiple of 1/z (exactly k worlds out of exactly
// z succeeded — a wrong lane mask would divide by the wrong world count or
// let ghost lanes vote), and a reseeded sampler must replay it bit for bit.
func TestMCVecTailMask(t *testing.T) {
	g := mcvecGraph(60, false, 11)
	s, tt := ugraph.NodeID(0), ugraph.NodeID(59)
	for _, z := range []int{1, 63, 64, 65} {
		v := NewMCVec(z, 3)
		got := v.Reliability(g, s, tt)
		k := got * float64(z)
		if k != math.Trunc(k) || k < 0 || k > float64(z) {
			t.Errorf("z=%d: estimate %v is not k/%d for integer k in [0,%d]", z, got, z, z)
		}
		v.Reseed(3)
		if replay := v.Reliability(g, s, tt); replay != got {
			t.Errorf("z=%d: reseeded replay %v != first run %v", z, replay, got)
		}
		if fresh := NewMCVec(z, 3).Reliability(g, s, tt); fresh != got {
			t.Errorf("z=%d: fresh sampler %v != warm sampler %v", z, fresh, got)
		}
	}
}

// agreementTolerance is the allowed |scalar - vector| gap for two
// independent z-sample MC estimates of the same probability: both are
// binomial means, so the difference has standard deviation
// sqrt(2 p(1-p) / z); five sigmas (with the conservative p=0.5 bound) keeps
// the false-failure probability per comparison below 1e-6.
func agreementTolerance(z int) float64 {
	return 5 * math.Sqrt(2*0.25/float64(z))
}

// TestMCVecStatisticalAgreement is the acceptance differential: at
// z >= 10k the vector estimate must agree with the scalar MonteCarlo
// reference within CI bounds — scalar and vector draw different streams,
// so agreement is statistical, never bit-exact. Covers both orientations
// of the s-t query plus the From/To vector estimators, directed and
// undirected, and the overlay path.
func TestMCVecStatisticalAgreement(t *testing.T) {
	const z = 10_000
	tol := agreementTolerance(z)
	for _, directed := range []bool{false, true} {
		g := mcvecGraph(80, directed, 23)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(79)
		mc := NewMonteCarlo(z, 101)
		vec := NewMCVec(z, 202)
		name := map[bool]string{false: "undirected", true: "directed"}[directed]

		a, b := mc.Reliability(g, s, tt), vec.Reliability(g, s, tt)
		if math.Abs(a-b) > tol {
			t.Errorf("%s: Reliability scalar %v vs vector %v differ beyond %v", name, a, b, tol)
		}

		mc.Reseed(101)
		vec.Reseed(202)
		av, bv := mc.ReliabilityFrom(g, s), vec.ReliabilityFrom(g, s)
		for i := range av {
			if math.Abs(av[i]-bv[i]) > tol {
				t.Errorf("%s: ReliabilityFrom[%d] scalar %v vs vector %v differ beyond %v", name, i, av[i], bv[i], tol)
			}
		}

		mc.Reseed(101)
		vec.Reseed(202)
		av, bv = mc.ReliabilityTo(g, tt), vec.ReliabilityTo(g, tt)
		for i := range av {
			if math.Abs(av[i]-bv[i]) > tol {
				t.Errorf("%s: ReliabilityTo[%d] scalar %v vs vector %v differ beyond %v", name, i, av[i], bv[i], tol)
			}
		}

		overlay := g.Freeze().WithEdges([]ugraph.Edge{{U: s, V: tt, P: 0.5}})
		mc.Reseed(101)
		vec.Reseed(202)
		a, b = mc.ReliabilityCSR(overlay, s, tt), vec.ReliabilityCSR(overlay, s, tt)
		if math.Abs(a-b) > tol {
			t.Errorf("%s: overlay scalar %v vs vector %v differ beyond %v", name, a, b, tol)
		}
	}
}

// TestMCVecParallelBitIdentical pins the vector path's parallel determinism
// contract: a ParallelSampler over mcvec returns bit-identical estimate
// sequences at any worker count for a fixed seed — the shard structure
// (64-aligned budgets, per-shard SplitSeed streams), not the scheduling,
// fixes the randomness.
func TestMCVecParallelBitIdentical(t *testing.T) {
	g := mcvecGraph(100, true, 31)
	s, tt := ugraph.NodeID(1), ugraph.NodeID(97)
	const z = 1000
	want := make([]float64, 0, 3)
	{
		ps, err := NewParallel("mcvec", z, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			want = append(want, ps.Reliability(g, s, tt))
		}
	}
	for _, w := range []int{2, 4, 8} {
		ps, err := NewParallel("mcvec", z, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			if got := ps.Reliability(g, s, tt); got != want[call] {
				t.Errorf("w=%d call %d: %v != w=1 result %v", w, call, got, want[call])
			}
		}
	}
}

// TestMCVecShardBudgets pins the 64-aligned budget split: every mcvec shard
// except the last is a whole number of lane blocks, the last absorbs the
// z%64 tail, budgets sum to z — and the scalar kinds' split is unchanged
// from the historical even distribution (their shard streams must stay
// bit-identical to earlier releases).
func TestMCVecShardBudgets(t *testing.T) {
	vec, err := NewParallel("mcvec", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []int{1, 63, 64, 65, 640, 1000, 4000} {
		budgets := vec.shardBudgets(z)
		sum := 0
		for i, b := range budgets {
			sum += b
			if b < 1 {
				t.Errorf("z=%d: shard %d budget %d < 1", z, i, b)
			}
			if i < len(budgets)-1 && b%64 != 0 {
				t.Errorf("z=%d: interior shard %d budget %d not 64-aligned", z, i, b)
			}
		}
		if sum != z {
			t.Errorf("z=%d: budgets %v sum to %d", z, budgets, sum)
		}
	}
	mc, err := NewParallel("mc", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		z    int
		want []int
	}{
		{100, []int{50, 50}},
		{1000, []int{63, 63, 63, 63, 63, 63, 63, 63, 62, 62, 62, 62, 62, 62, 62, 62}},
		{5, []int{5}},
	} {
		got := mc.shardBudgets(tc.z)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("scalar shardBudgets(%d) = %v, want historical %v", tc.z, got, tc.want)
		}
	}
}

// TestMCVecCancellation checks the per-block ctx poll: an already-cancelled
// context yields 0 drawn worlds, and a context cancelled mid-estimate
// returns an unbiased partial fraction (k/drawn for whole blocks drawn).
func TestMCVecCancellation(t *testing.T) {
	g := mcvecGraph(60, false, 41)
	v := NewMCVec(10_000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v.SetContext(ctx)
	if got := v.Reliability(g, 0, 59); got != 0 {
		t.Errorf("pre-cancelled estimate %v, want 0 (no worlds drawn)", got)
	}
	v.SetContext(nil)
	v.Reseed(3)
	want := v.Reliability(g, 0, 59)
	if want <= 0 || want > 1 {
		t.Fatalf("unbound estimate %v out of range", want)
	}
}

// TestMCVecKeyedVectorBitIdentical pins what a keyed vector depends on:
// the call key, Z and the graph, and nothing else. One vector, From and To
// on directed and undirected graphs, at Z of one partial word, eight words
// (one chunk) and more than one chunk, is bit-identical
//   - from a serial MCVec seeded with the call seed and from the first
//     call of a ParallelSampler at Workers 1, 2 and 8, whose words split
//     into different parts;
//   - on a CSR.Delta epoch and on its flat rebuild, whose edge IDs and arc
//     order differ.
func TestMCVecKeyedVectorBitIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := mcvecGraph(90, directed, 61)
		base := g.Freeze()
		var edits []ugraph.DeltaEdit
		for i, e := range base.Edges()[:30] {
			switch i % 3 {
			case 0:
				edits = append(edits, ugraph.DeltaEdit{Op: ugraph.DeltaRemove, U: e.U, V: e.V})
			case 1:
				edits = append(edits, ugraph.DeltaEdit{Op: ugraph.DeltaSetProb, U: e.U, V: e.V, P: 0.35})
			}
		}
		for v := ugraph.NodeID(1); v < 40; v += 3 {
			if !g.HasEdge(0, v) && !g.HasEdge(v, 0) {
				edits = append(edits, ugraph.DeltaEdit{Op: ugraph.DeltaAdd, U: v, V: 0, P: 0.6})
			}
		}
		layered, err := base.Delta(edits)
		if err != nil {
			t.Fatal(err)
		}
		flat := ugraph.New(layered.N(), directed)
		for _, e := range layered.Edges() {
			flat.MustAddEdge(e.U, e.V, e.P)
		}
		for _, z := range []int{37, 512, 1100} {
			for _, forward := range []bool{true, false} {
				vec := func(smp Sampler, c *ugraph.CSR) []float64 {
					if forward {
						return smp.ReliabilityFromCSR(c, 0)
					}
					return smp.ReliabilityToCSR(c, 0)
				}
				name := fmt.Sprintf("directed=%v z=%d forward=%v", directed, z, forward)
				const seed = 17
				want := vec(NewMCVec(z, rng.SplitSeed(seed, 1)), layered)
				if got := vec(NewMCVec(z, rng.SplitSeed(seed, 1)), flat.Freeze()); !slices.Equal(got, want) {
					t.Errorf("%s: flat rebuild %v != delta epoch %v", name, got, want)
				}
				for _, w := range []int{1, 2, 8} {
					ps, err := NewParallel("mcvec", z, seed, w)
					if err != nil {
						t.Fatal(err)
					}
					if got := vec(ps, layered); !slices.Equal(got, want) {
						t.Errorf("%s w=%d: parallel %v != serial %v", name, w, got, want)
					}
				}
			}
		}
	}
}

// TestMCVecWideMatchesNarrow: a keyed vector's words give the same lane
// counts whether each runs in its own one-word pass (keyedWord) or all run
// in one chunk (keyedChunk), on dense random graphs where the chunk's
// fixed-width expansions run, From and To, at Z of one partial word, three
// words with a tail and eight full words. FuzzMCVecScalarReplay checks the
// one-word passes against the key function; this pins the chunk to them.
func TestMCVecWideMatchesNarrow(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			c := mcvecGraph(60, directed, seed).Freeze()
			for _, z := range []int{37, 130, 512} {
				for _, forward := range []bool{true, false} {
					v := NewMCVec(z, 1)
					v.sc.reset(c.N(), c.EdgeIDBound())
					v.ks.reset(c.N(), c.EdgeIDBound())
					narrow := make([]uint32, c.N())
					for j := 0; j < laneWords(z); j++ {
						v.keyedWord(c, 3, forward, 99, j, z, narrow)
					}
					wide := make([]uint32, c.N())
					v.keyedChunk(c, 3, forward, 99, 0, laneWords(z), z, wide)
					if !slices.Equal(narrow, wide) {
						t.Fatalf("directed=%v seed=%d z=%d forward=%v: one-word passes %v, one chunk %v", directed, seed, z, forward, narrow, wide)
					}
				}
			}
		}
	}
}

// FuzzMCVecScalarReplay is the keyed vector's consistency oracle. It
// estimates a From or To vector over up to 3 lane words, full or with a
// tail mask, on a directed or undirected graph, and then replays every
// lane as a scalar BFS over the world the key function itself gives that
// lane: lane l of word b keeps an edge iff bit l of the mask keyedMask
// draws for the edge's edgeHash under the call key in word b is set. The
// masks the vector run memoised play no part. Each node's replayed reach count must equal the
// vector's lane count, so a lost lane, a leaked lane, a mask drawn for the
// wrong edge or word, or a word dropped from a chunk all fail here.
func FuzzMCVecScalarReplay(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), []byte{0, 1, 200, 1, 2, 128, 2, 3, 255, 0, 3, 60})
	f.Add(int64(99), uint8(64), uint8(5), []byte{0, 1, 1, 1, 2, 254, 0, 2, 127})
	f.Add(int64(-7), uint8(33), uint8(17), []byte{})
	f.Add(int64(300), uint8(191), uint8(8), []byte{0, 1, 90, 1, 2, 150, 2, 0, 30, 2, 3, 255, 3, 4, 0, 4, 1, 77})
	f.Fuzz(func(t *testing.T, seed int64, zRaw, nRaw uint8, edgeData []byte) {
		n := 2 + int(nRaw)%40
		z := 1 + int(zRaw)%(3*laneBlock)
		directed := nRaw%2 == 0
		forward := seed>>8&1 == 0
		g := ugraph.New(n, directed)
		for i := 0; i+2 < len(edgeData); i += 3 {
			u := ugraph.NodeID(int(edgeData[i]) % n)
			v := ugraph.NodeID(int(edgeData[i+1]) % n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, float64(edgeData[i+2])/255)
		}
		c := g.Freeze()
		src := ugraph.NodeID(int(seed) & 0x7fffffff % n)

		vec := NewMCVec(z, seed)
		var got []float64
		if forward {
			got = vec.ReliabilityFromCSR(c, src)
		} else {
			got = vec.ReliabilityToCSR(c, src)
		}
		key := vectorKey(seed)

		reach := make([]int, n)
		visited := make([]bool, n)
		queue := make([]ugraph.NodeID, 0, n)
		for lane := 0; lane < z; lane++ {
			word, bit := lane/laneBlock, uint(lane%laneBlock)
			clear(visited)
			queue = append(queue[:0], src)
			visited[src] = true
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				arcs, probs := c.Out(u), c.OutProbs(u)
				if !forward {
					arcs, probs = c.In(u), c.InProbs(u)
				}
				for i, a := range arcs {
					if visited[a.To] || keyedMask(edgeHash(key, u, a.To, forward, directed), word, probs[i])>>bit&1 == 0 {
						continue
					}
					visited[a.To] = true
					queue = append(queue, a.To)
				}
			}
			for v := range visited {
				if visited[v] {
					reach[v]++
				}
			}
		}
		for v := range reach {
			if want := float64(reach[v]) / float64(z); got[v] != want {
				t.Errorf("node %d: vector %v != scalar replay %d/%d (directed=%v forward=%v)", v, got[v], reach[v], z, directed, forward)
			}
		}
	})
}

// TestKeyedMaskRate checks keyedMask lane by lane over many stream
// positions, as rng's TestBernoulliMaskRate checks BernoulliMask: each of
// the 64 lanes must fire at rate p, including a p below 2^-12 (the
// zero-run path) and a subnormal-free tiny p, and two words of one edge
// must agree on half their lanes at p = 0.5, as independent words do.
func TestKeyedMaskRate(t *testing.T) {
	const trials = 8000
	for _, p := range []float64{1e-4, 0.05, 0.3, 0.5, 0.75, 1.0 / 3.0} {
		var perLane [64]int
		agree := 0
		for i := 0; i < trials; i++ {
			h := rng.Hash64(uint64(i))
			m := keyedMask(h, 0, p)
			for lane := 0; lane < 64; lane++ {
				if m&(1<<lane) != 0 {
					perLane[lane]++
				}
			}
			agree += 64 - bits.OnesCount64(m^keyedMask(h, 1, p))
		}
		tol := 5 * math.Sqrt(p*(1-p)/trials)
		for lane, hits := range perLane {
			if rate := float64(hits) / trials; math.Abs(rate-p) > tol {
				t.Errorf("p=%v lane %d: rate %v outside %v ± %v", p, lane, rate, p, tol)
			}
		}
		if p == 0.5 {
			if rate := float64(agree) / (64 * trials); math.Abs(rate-0.5) > 5*math.Sqrt(0.25/(64*trials)) {
				t.Errorf("words 0 and 1 agree on %v of lanes, want 0.5", rate)
			}
		}
	}
}
