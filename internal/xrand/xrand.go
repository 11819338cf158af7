// Package xrand provides deterministic, streamable pseudo-random number
// generation for the CloudWalker reproduction.
//
// Every randomized component in this repository (graph generators, Monte
// Carlo walkers, baselines) draws from an xrand.Source so that experiments
// are reproducible bit-for-bit from a single master seed, and so that
// parallel workers can be handed statistically independent streams without
// locking. The generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by the xoshiro authors.
//
// One stream can also be cut into consecutive pieces: Advance moves a
// Source k outputs ahead in O(log k) work, so the worker that owns draws
// e₀ onwards starts from a copy of the stream advanced by e₀ and the
// pieces together consume exactly the draws one serial loop would. This
// is how gen.RMAT fills its edges on every core and still yields the same
// graph at any GOMAXPROCS. The xoshiro authors publish a jump of 2¹²⁸ (and
// 2¹⁹² for a long jump), which spaces streams apart but cannot land on a
// particular draw; Advance generalises their construction to any distance
// (see Advance).
package xrand

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** pseudo-random generator. It is NOT safe for
// concurrent use; hand each goroutine its own Source via NewStream with
// distinct stream identifiers.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, per the xoshiro authors' guidance.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source derived from seed. Distinct seeds yield streams that
// are independent for all practical purposes.
func New(seed uint64) *Source {
	s := &Source{}
	s.Reseed(seed)
	return s
}

// Reseed reinitializes the receiver in place exactly as New(seed) would.
// Pooled query scratch uses it so deriving a per-query generator does not
// allocate; the resulting output stream is bit-identical to New's.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// xoshiro must not start in the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

// NewStream returns a Source for stream id derived from seed. It is the
// canonical way to give worker i its own generator: NewStream(seed, i) and
// NewStream(seed, j) are independent for i != j.
func NewStream(seed, stream uint64) *Source {
	s := &Source{}
	s.ReseedStream(seed, stream)
	return s
}

// ReseedStream reinitializes the receiver in place exactly as
// NewStream(seed, stream) would, without allocating.
func (s *Source) ReseedStream(seed, stream uint64) {
	// Mix the stream id through SplitMix64 so that adjacent stream ids
	// land far apart in seed space.
	sm := seed
	base := splitmix64(&sm)
	sm2 := base ^ (stream+1)*0xd1342543de82ef95
	s.Reseed(splitmix64(&sm2))
}

// Mix folds salt into seed and returns a new master seed. Callers that
// need a family of stream spaces per logical entity (one walker-stream
// space per query, say) derive an effective seed with Mix and then hand
// out NewStream(effSeed, i) streams; distinct (seed, salt) pairs yield
// independent stream spaces.
func Mix(seed, salt uint64) uint64 {
	sm := seed
	base := splitmix64(&sm)
	sm2 := base ^ (salt+1)*0x9e3779b97f4a7c15
	return splitmix64(&sm2)
}

// SeedStreams reseeds dst[k] exactly as NewStream(seed, first+k) would,
// for every k. It is the batch walker-seeding primitive of the
// level-synchronous walk engine: the per-seed SplitMix64 base is hoisted
// out of the loop (it does not depend on the stream id), so seeding R
// walker substreams costs R short independent SplitMix64 chains instead
// of R full derivations — the chains carry no loop dependency, so they
// pipeline.
func SeedStreams(dst []Source, seed, first uint64) {
	sm := seed
	base := splitmix64(&sm)
	for k := range dst {
		sm2 := base ^ (first+uint64(k)+1)*0xd1342543de82ef95
		// Reseed, manually unrolled: the five-deep SplitMix64 chain stays
		// in registers and neighboring walkers' chains overlap.
		c := splitmix64(&sm2)
		s := &dst[k]
		s.s0 = splitmix64(&c)
		s.s1 = splitmix64(&c)
		s.s2 = splitmix64(&c)
		s.s3 = splitmix64(&c)
		if s.s0|s.s1|s.s2|s.s3 == 0 {
			s.s0 = 0x9e3779b97f4a7c15
		}
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// charPoly is the characteristic polynomial p of the xoshiro256 state
// transition with its leading term dropped: x²⁵⁶ ≡ charPoly (mod p). Bit b
// of word i is the coefficient of x^(64i+b), the layout of the published
// jump constants. TestCharPoly re-derives it by Berlekamp–Massey.
var charPoly = poly{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// poly is a polynomial over GF(2) of degree below 256, reduced modulo
// the characteristic polynomial.
type poly [4]uint64

// mulx returns a·x mod p.
func (a poly) mulx() poly {
	top := a[3] >> 63
	a[3] = a[3]<<1 | a[2]>>63
	a[2] = a[2]<<1 | a[1]>>63
	a[1] = a[1]<<1 | a[0]>>63
	a[0] <<= 1
	mask := -top
	a[0] ^= charPoly[0] & mask
	a[1] ^= charPoly[1] & mask
	a[2] ^= charPoly[2] & mask
	a[3] ^= charPoly[3] & mask
	return a
}

// mulmod returns a·b mod p, shift and add: 256 mulx steps. Both the add
// and mulx's reduction are masked rather than branched on, since their
// conditions are coin flips.
func mulmod(a, b poly) poly {
	var r poly
	for _, w := range b {
		for bit := 0; bit < 64; bit++ {
			mask := -(w >> bit & 1)
			r[0] ^= a[0] & mask
			r[1] ^= a[1] & mask
			r[2] ^= a[2] & mask
			r[3] ^= a[3] & mask
			a = a.mulx()
		}
	}
	return r
}

// xpow returns x^k mod p by left-to-right square and multiply.
func xpow(k uint64) poly {
	r := poly{1}
	for bit := bits.Len64(k) - 1; bit >= 0; bit-- {
		r = mulmod(r, r)
		if k>>bit&1 != 0 {
			r = r.mulx()
		}
	}
	return r
}

// Advance moves the stream k outputs ahead: afterwards the Source
// returns exactly what it would have after k calls to Uint64 (or k draws
// of Float64, which consume one output each). The state transition M is
// linear over GF(2), and by Cayley–Hamilton M^k = q(M) for q = x^k mod p,
// p the transition's characteristic polynomial. Advance computes q in
// log₂k polynomial squarings, then applies q(M) the way the xoshiro
// authors' jump() does: it steps the state 256 times and xor-accumulates
// the states whose power of M appears in q. The cost grows only with the
// logarithm of k (well under a millisecond for any k).
func (s *Source) Advance(k uint64) {
	var a Source
	for _, w := range xpow(k) {
		for bit := 0; bit < 64; bit++ {
			if w>>bit&1 != 0 {
				a.s0 ^= s.s0
				a.s1 ^= s.s1
				a.s2 ^= s.s2
				a.s3 ^= s.s3
			}
			s.Uint64()
		}
	}
	*s = a
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// is an intrinsic (one MULX on amd64), where the previous hand-rolled
// 32-bit decomposition cost ~8 multiplies and adds per draw — the same
// product bit for bit, so every recorded stream is unchanged.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64s fills dst with the values len(dst) calls to Float64 would
// return, in order, leaving the Source where those calls would. The state
// words live in locals for the whole run, so a caller that needs a block
// of draws gets them from registers rather than through the struct.
func (s *Source) Float64s(dst []float64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = float64(result>>11) / (1 << 53)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using
// Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
