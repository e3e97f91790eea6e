package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	a, b := Split(42, 0), Split(42, 1)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times", same)
	}
	// And the same stream index must reproduce.
	c, d := Split(42, 7), Split(42, 7)
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Split not deterministic")
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) missed")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(2)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", rate)
	}
}

func TestPerm(t *testing.T) {
	r := New(3)
	p := Perm(r, 10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBernoulliMaskEdges(t *testing.T) {
	r := NewMask64(4)
	for i := 0; i < 100; i++ {
		if m := BernoulliMask(&r, 0); m != 0 {
			t.Fatalf("BernoulliMask(0) = %#x, want 0", m)
		}
		if m := BernoulliMask(&r, 1); m != ^uint64(0) {
			t.Fatalf("BernoulliMask(1) = %#x, want all ones", m)
		}
		if m := BernoulliMask(&r, -0.5); m != 0 {
			t.Fatalf("BernoulliMask(-0.5) = %#x, want 0", m)
		}
		if m := BernoulliMask(&r, 1.5); m != ^uint64(0) {
			t.Fatalf("BernoulliMask(1.5) = %#x, want all ones", m)
		}
	}
}

// TestBernoulliMaskRate checks every one of the 64 lanes independently:
// each bit position must fire at rate p, so a lane-coupling bug (a digit
// word reused across positions, an off-by-one in the undecided mask)
// cannot hide in an aggregate count.
func TestBernoulliMaskRate(t *testing.T) {
	for _, p := range []float64{0.05, 0.3, 0.5, 0.75, 1.0 / 3.0} {
		r := NewMask64(5)
		const trials = 8000
		var perLane [64]int
		for i := 0; i < trials; i++ {
			m := BernoulliMask(&r, p)
			for lane := 0; lane < 64; lane++ {
				if m&(1<<lane) != 0 {
					perLane[lane]++
				}
			}
		}
		// 5-sigma binomial bound per lane; with 64 lanes x 5 ps the
		// false-failure probability stays ~1e-5.
		tol := 5 * math.Sqrt(p*(1-p)/trials)
		for lane, hits := range perLane {
			rate := float64(hits) / trials
			if rate < p-tol || rate > p+tol {
				t.Errorf("p=%v lane %d: empirical rate %v outside %v ± %v", p, lane, rate, p, tol)
			}
		}
	}
}

// TestBernoulliMaskDeterministic pins the stream: same seed, same masks.
func TestBernoulliMaskDeterministic(t *testing.T) {
	a, b := NewMask64(6), NewMask64(6)
	for i := 0; i < 200; i++ {
		p := float64(i%97) / 97
		if ma, mb := BernoulliMask(&a, p), BernoulliMask(&b, p); ma != mb {
			t.Fatalf("iteration %d: masks diverged %#x vs %#x", i, ma, mb)
		}
	}
}

// streamSeeds covers the seed-reduction edge cases of math/rand's Seed:
// zero and its substitute, signs, multiples of the LCG modulus (which
// reduce to 0) and the int64 extremes.
var streamSeeds = []int64{
	0, 1, -1, 2, 42, 89482311, -89482311,
	m31, -m31, 2 * m31, 3 * m31, m31 - 1, m31 + 1, -(m31 + 1),
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// drawer is the draw surface Source shares with rand.Rand.
type drawer interface {
	Uint64() uint64
	Int63() int64
	Float64() float64
}

// assertSameStream draws n words from both generators, exercising Uint64,
// Int63 and Float64 (a Source's own or rand.Rand's), and fails on the
// first mismatch.
func assertSameStream(t testing.TB, label string, got drawer, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 3 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		default:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		}
		if g != w {
			t.Fatalf("%s: draw %d = %#x, math/rand gives %#x", label, i, g, w)
		}
	}
}

// TestStreamMatchesMathRand pins New to math/rand's stream for every seed
// edge case over more than two full lags, so the whole seeded state — not
// just the first words — is checked, plus many structured seeds of the
// kind rng.SplitSeed hands the parallel shards.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 2*srcLen + 100
	seeds := append([]int64(nil), streamSeeds...)
	for i := int64(0); i < 200; i++ {
		seeds = append(seeds, SplitSeed(1, i), i*m31+i, -i*7919)
	}
	for _, seed := range seeds {
		assertSameStream(t, fmt.Sprintf("seed %d", seed), New(seed), rand.New(rand.NewSource(seed)), draws)
	}
}

// TestReseedMidStream checks that Seed through rand.Rand restarts the
// stream exactly where math/rand's would, whatever was drawn before.
func TestReseedMidStream(t *testing.T) {
	got, want := New(7), rand.New(rand.NewSource(7))
	for i, seed := range streamSeeds {
		assertSameStream(t, fmt.Sprintf("before reseed %d", i), got, want, 1+i*97)
		got.Seed(seed)
		want.Seed(seed)
		assertSameStream(t, fmt.Sprintf("after reseed to %d", seed), got, want, 2*srcLen+1)
	}
}

// TestReseedZeroAllocs pins Seed and Source.Float64 as allocation-free:
// the samplers reseed once per shard per estimate and draw every coin
// inside their zero-alloc loops.
func TestReseedZeroAllocs(t *testing.T) {
	r, s := New(1), NewSource(1)
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		s.Seed(seed)
	}); allocs != 0 {
		t.Fatalf("Seed allocates %v times per call, want 0", allocs)
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		sink += s.Float64()
	}); allocs != 0 {
		t.Fatalf("Float64 allocates %v times per call, want 0", allocs)
	}
	if sink < 0 {
		t.Fatal("negative draw")
	}
}

// TestLazySeedBoundaries reseeds after exactly as many draws as put the
// lazy fill at each of its edges — before any fill, at the last and first
// draws that fill a tap word (272, 273), at the last draw that fills a
// feed word (333) and past it, and after whole lags — and checks the
// stream that follows over two full lags.
func TestLazySeedBoundaries(t *testing.T) {
	for _, before := range []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 1214} {
		for _, seed := range []int64{1, 42, -7, m31 + 3, SplitSeed(9, int64(before))} {
			got, want := NewSource(seed^int64(before)), rand.New(rand.NewSource(seed^int64(before)))
			for i := 0; i < before; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: draw %d before reseed = %#x, math/rand gives %#x", seed, i, g, w)
				}
			}
			got.Seed(seed)
			want.Seed(seed)
			assertSameStream(t, fmt.Sprintf("seed %d after %d draws", seed, before), got, want, 2*srcLen+5)
		}
	}
}

// TestSourceFloat64MatchesRand pins Source.Float64 to rand.Rand.Float64
// draw for draw, so the samplers' direct draws consume the stream exactly
// as the rand.Rand they replaced did.
func TestSourceFloat64MatchesRand(t *testing.T) {
	for _, seed := range streamSeeds {
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3*srcLen; i++ {
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand checks Source against math/rand for any seed,
// reseeded after any number k of draws.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(-1), uint16(273))
	f.Add(int64(m31), uint16(334))
	f.Add(int64(math.MinInt64), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, k uint16) {
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		assertSameStream(t, "first stream", got, want, int(k))
		reseed := seed ^ int64(k)*0x9e3779b9
		got.Seed(reseed)
		want.Seed(reseed)
		assertSameStream(t, "after reseed", got, want, 2*srcLen+1)
	})
}
