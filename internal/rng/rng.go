// Package rng provides small deterministic random-number utilities used
// across the library. All stochastic components (samplers, generators,
// experiments) take an explicit seed or generator so that every run is
// reproducible from a single seed.
//
// Source produces exactly math/rand's stream — the same seed gives the same
// draws as rand.NewSource, word for word — with a far cheaper Seed: the
// parallel samplers reseed one source per shard per estimate, and most
// shards draw only a few dozen words before the next reseed. Drawing is
// math/rand's 607/273 additive lagged-Fibonacci step, unchanged.
//
// Seeding is lazy. Seed only folds the seed into the Lehmer LCG's range
// and resets the draw counter; no state word is computed. Draw k (0-based)
// reads the feed word 333−k and the tap word 606−k, and until then neither
// word has been read or written, so Uint64 fills in those original seeded
// words just before the draw reads them: the feed word while k < 334, the
// tap word while k < 273. After draw 333 every word in play was produced
// by an earlier fill or draw. Seed therefore costs O(1) and a draw's cost
// rises by at most two seeded words; a source pays only for the words it
// draws. Each seeded word packs LCG values 21+3i, 22+3i and 23+3i of the
// chain math/rand starts at the folded seed, so it is three independent
// mulMods against a precomputed table of 48271^(21+j) mod (2³¹−1), with a
// Mersenne fold in place of Schrage's division. math/rand XORs each seeded
// word with a private "cooked" table; init recovers that table from
// rand.NewSource(1)'s first 607 draws by inverting the recurrence (see
// deriveCooked), so no table is vendored.
//
// Source also draws Float64 directly, exactly as rand.Rand.Float64 does on
// it, so the samplers' per-edge coin costs no interface call.
package rng

import (
	"math"
	"math/bits"
	"math/rand"
)

// New returns a rand.Rand seeded deterministically from seed. Its stream
// is identical to rand.New(rand.NewSource(seed))'s, and so is the stream
// after any later Seed call.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// NewSource returns a Source seeded deterministically from seed; its stream
// is rand.NewSource(seed)'s.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

const (
	srcLen  = 607             // lag of the additive generator
	srcTap  = 273             // short tap
	srcFeed = srcLen - srcTap // feed position after Seed
	m31     = 1<<31 - 1       // Lehmer LCG modulus (a Mersenne prime)
	lcgA    = 48271           // Lehmer LCG multiplier
)

// Source is math/rand's additive lagged-Fibonacci generator with lazy
// seeding. It implements rand.Source64, and its Float64 is rand.Rand's.
type Source struct {
	tap  int
	feed int
	// seed is the folded seed: LCG value 0 of the chain the seeded words
	// come from, in [1, m31).
	seed uint64
	// drawn counts the draws since Seed, up to srcFeed; while it is below
	// srcFeed the next draw still reads an unwritten seeded word.
	drawn int
	vec   [srcLen]int64
}

// lcgPow[i][j] is 48271^(21+3i+j) mod m31: it maps the folded seed to LCG
// value 21+3i+j, the j-th of the three values packed into seeded word i.
var lcgPow = func() (t [srcLen][3]uint32) {
	x := uint64(1)
	for i := 0; i < 21; i++ {
		x = mulMod(x, lcgA)
	}
	for i := range t {
		for j := range t[i] {
			t[i][j] = uint32(x)
			x = mulMod(x, lcgA)
		}
	}
	return t
}()

// cooked is math/rand's rngCooked table, recovered by init.
var cooked = deriveCooked()

// mulMod returns x·a mod m31 for x < m31 and a < m31, folding the 62-bit
// product with 2³¹ ≡ 1 (mod m31) instead of dividing.
func mulMod(x, a uint64) uint64 {
	p := x * a
	r := p&m31 + p>>31
	if r >= m31 {
		r -= m31
	}
	return r
}

// foldSeed reduces seed the way math/rand's Seed does, to the LCG value
// its chain starts from.
func foldSeed(seed int64) uint64 {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord returns seeded word i of the chain started at x before the
// cooked mask: LCG values 21+3i, 22+3i and 23+3i packed at bits 40, 20
// and 0, exactly as math/rand's Seed packs them.
func lcgWord(x uint64, i int) int64 {
	w := &lcgPow[i]
	return int64(mulMod(x, uint64(w[0])))<<40 ^ int64(mulMod(x, uint64(w[1])))<<20 ^ int64(mulMod(x, uint64(w[2])))
}

// deriveCooked recovers math/rand's cooked table. Seeding with 1 sets
// word i to lcg1[i] ^ cooked[i]; draw k (1-based) then adds word
// (607−k) mod 607 into word (334−k) mod 607 and returns the sum, so the
// first 607 draws o_k invert by subtraction: for k > 273 the feed word
// f_k = (334−k) mod 607 started as o_k − o_{k−273}; for k ≤ 273 word
// 607−k started as o_{k+334} − o_{k+61} and word 334−k as o_k minus it.
func deriveCooked() [srcLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var o [srcLen + 1]int64 // o[k] is draw k
	for k := 1; k <= srcLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var old [srcLen]int64
	for k := srcTap + 1; k <= srcLen; k++ {
		old[(srcFeed-k+srcLen)%srcLen] = o[k] - o[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		old[srcLen-k] = o[k+srcFeed] - o[k+srcFeed-srcTap]
		old[srcFeed-k] = o[k] - old[srcLen-k]
	}
	var cooked [srcLen]int64
	for i := range cooked {
		cooked[i] = lcgWord(1, i) ^ old[i]
	}
	return cooked
}

// Seed resets the source to the state rand.NewSource(seed) starts in. It
// computes no state word: the draws fill them in as they reach them.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcFeed
	s.seed = foldSeed(seed)
	s.drawn = 0
}

// fill writes the seeded words the next draw reads for the first time:
// draw k reads feed word 333−k, first for k < 334, and tap word 606−k,
// first for k < 273 (later taps read words earlier draws fed).
func (s *Source) fill() {
	k := s.drawn
	s.drawn++
	i := srcFeed - 1 - k
	s.vec[i] = lcgWord(s.seed, i) ^ cooked[i]
	if k < srcTap {
		i = srcLen - 1 - k
		s.vec[i] = lcgWord(s.seed, i) ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Float64 returns a pseudo-random number in [0.0, 1.0). It is exactly
// rand.Rand.Float64 over this source, including the redraw when the
// rounded quotient is 1, so it consumes the stream identically.
func (s *Source) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f < 1 {
			return f
		}
	}
}

// Uint64 returns the next word of the stream.
func (s *Source) Uint64() uint64 {
	if s.drawn < srcFeed {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Split derives a child RNG from a parent seed and a stream index, so that
// parallel or repeated sub-computations get decorrelated but reproducible
// streams. It uses SplitMix64 over the combined value.
func Split(seed int64, stream int64) *rand.Rand {
	return New(SplitSeed(seed, stream))
}

// SplitSeed is the allocation-free core of Split: it derives the child seed
// for the given stream without constructing a rand.Rand. Parallel samplers
// use it to assign one deterministic seed per work shard.
func SplitSeed(seed int64, stream int64) int64 {
	return int64(splitmix64(uint64(seed) ^ (0x9e3779b97f4a7c15 * uint64(stream+1))))
}

// Hash64 is SplitMix64's output function, a bijection of uint64 that
// spreads every input bit over every output bit. Counter-based draws use it
// to turn a structured key (a call key combined with an edge's endpoints,
// say) into a decorrelated stream position: distinct inputs never collide.
func Hash64(x uint64) uint64 { return splitmix64(x) }

// splitmix64 is the finalizer of the SplitMix64 generator; one application
// is enough to decorrelate structured seed inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Perm fills a permutation of [0,n) using r.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// Bernoulli reports true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Mask64 is a SplitMix64 word stream dedicated to the vector sampler's
// Bernoulli digit draws. It exists because the mask generator burns ~8
// words per edge mask and math/rand pays an interface dispatch per word;
// SplitMix64 is a counter with a finalizer, so Uint64 inlines into the
// caller's loop. The seed is passed through the finalizer once so that
// structured seeds (0, 1, 2, ... from SplitSeed shards) start at
// decorrelated counter positions rather than adjacent ones.
type Mask64 struct {
	x uint64
}

// NewMask64 returns a mask stream seeded deterministically from seed.
func NewMask64(seed int64) Mask64 {
	return Mask64{x: splitmix64(uint64(seed))}
}

// Seed resets the stream to the state NewMask64(seed) starts from.
func (m *Mask64) Seed(seed int64) {
	m.x = splitmix64(uint64(seed))
}

// Uint64 returns the next word of the stream.
func (m *Mask64) Uint64() uint64 {
	m.x += 0x9e3779b97f4a7c15
	x := m.x
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Keyed64 is a counter-based word stream for keyed draws: a caller places
// it at a counter position derived from a key (Hash64 of the key and what
// it names, say), and its words depend on that position alone. Like
// Mask64 it steps a Weyl counter by 0x9e3779b97f4a7c15, but it mixes each
// count with one 64×64→128-bit multiply folded to 64 bits (wyrand's output
// function), about half of SplitMix64's finalizer. Streams placed 2³²
// counts or more apart share no word within their first 2³² words.
type Keyed64 struct {
	x uint64
}

// Keyed64At returns the keyed stream whose counter stands at x.
func Keyed64At(x uint64) Keyed64 {
	return Keyed64{x: x}
}

// Uint64 returns the next word of the stream.
func (k *Keyed64) Uint64() uint64 {
	k.x += 0x9e3779b97f4a7c15
	hi, lo := bits.Mul64(k.x, k.x^0xe7037ed1a0b428db)
	return hi ^ lo
}

// BernoulliMask draws 64 independent Bernoulli(p) trials at once and packs
// them into one word: bit j is set with probability p, independently of
// every other bit. This is the word-parallel counterpart of 64 Bernoulli
// calls, and the RNG primitive of the 64-lane Monte Carlo sampler: one mask
// is one edge's existence across 64 possible worlds.
//
// It compares the binary digits of 64 implicit uniforms against the digits
// of p simultaneously, drawing one random word per digit position and
// retiring a lane at the first position where its uniform's digit differs
// from p's. A lane halves its survival probability per digit, so the
// expected draw count is ~log2(64)+2 = 8 words per mask — an ~8x reduction
// in RNG work over 64 scalar Float64 comparisons, on top of the BFS-level
// word parallelism. The digits of p come straight from its float64
// representation (exponent zeros, then the 53 significand bits); lanes
// still undecided after the last digit have a uniform exactly equal to p's
// finite expansion and resolve to failure, matching the strict `u < p`
// convention of Bernoulli.
func BernoulliMask(r *Mask64, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	b := math.Float64bits(p)
	exp := int(b >> 52)
	mant := b & (1<<52 - 1)
	digits := 53
	if exp > 0 {
		mant |= 1 << 52 // normal: implicit leading 1 digit
	} else {
		digits = 52 // subnormal: no implicit digit, zero run as if exp 0
	}
	var mask uint64
	undecided := ^uint64(0)
	// p = significand × 2^(exp-1075): its expansion opens with 1022-exp
	// zero digits, each of which fails the lanes whose uniform digit is 1.
	for zeros := 1022 - exp; zeros > 0 && undecided != 0; zeros-- {
		undecided &^= r.Uint64()
	}
	// Digits below p's last 1 decide nothing: a lane undecided there can
	// only match p's (all-zero) tail or fail, and both resolve to failure.
	// Stopping early makes dyadic ps (0.5, 0.75, ...) cost O(1) words.
	for i := digits - 1; i >= bits.TrailingZeros64(mant) && undecided != 0; i-- {
		w := r.Uint64()
		// Branchless digit step: with d = all-ones when p's digit is 1,
		// lanes whose uniform digit is 0 succeed (digit 1) and lanes whose
		// uniform digit is 1 fail (digit 0); survivors keep matching.
		d := -(mant >> uint(i) & 1)
		mask |= undecided & d &^ w
		undecided &= w ^ ^d
	}
	return mask
}
