package xrand

import (
	"fmt"
	"testing"
)

// berlekampMassey returns the connection polynomial C of the shortest
// linear recurrence over GF(2) that generates bits: C[0] = 1 and
// bits[i] = Σ_{j=1..L} C[j]·bits[i-j] for every i ≥ L = len(C)-1.
func berlekampMassey(bits []uint8) []uint8 {
	n := len(bits)
	c := make([]uint8, n+1)
	b := make([]uint8, n+1)
	c[0], b[0] = 1, 1
	L, m := 0, 1
	for i := 0; i < n; i++ {
		d := bits[i]
		for j := 1; j <= L; j++ {
			d ^= c[j] & bits[i-j]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]uint8(nil), c...)
		for j := 0; j+m <= n; j++ {
			c[j+m] ^= b[j]
		}
		if 2*L <= i {
			L, b, m = i+1-L, prev, 1
		} else {
			m++
		}
	}
	return c[:L+1]
}

// TestCharPoly re-derives charPoly from the generator itself. Any single
// state bit, sampled step after step, is a linear recurring sequence whose
// minimal polynomial divides the transition's characteristic polynomial;
// xoshiro256's full period 2²⁵⁶−1 makes that polynomial primitive, so
// every nonzero such sequence has it as its minimal polynomial, degree 256.
// Berlekamp–Massey over 1024 bits recovers it; the reciprocal of the
// connection polynomial is the characteristic polynomial.
func TestCharPoly(t *testing.T) {
	for _, pick := range []struct {
		name string
		bit  func(*Source) uint8
	}{
		{"s0 bit 0", func(s *Source) uint8 { return uint8(s.s0 & 1) }},
		{"s2 bit 37", func(s *Source) uint8 { return uint8(s.s2 >> 37 & 1) }},
	} {
		s := New(2024)
		seq := make([]uint8, 1024)
		for i := range seq {
			seq[i] = pick.bit(s)
			s.Uint64()
		}
		c := berlekampMassey(seq)
		if L := len(c) - 1; L != 256 {
			t.Fatalf("%s: linear complexity %d, want 256", pick.name, L)
		}
		// p(x) = x²⁵⁶ + Σ_{i=1..256} c_i x^(256-i), so the coefficient of
		// x^j in x²⁵⁶ mod p is c_(256-j).
		var got poly
		for j := 0; j < 256; j++ {
			got[j/64] |= uint64(c[256-j]) << (j % 64)
		}
		if got != charPoly {
			t.Fatalf("%s: derived x^256 mod p = %#016x, pinned %#016x", pick.name, got, charPoly)
		}
	}
}

// TestJumpConstants checks xpow's arithmetic against the xoshiro authors'
// published jump polynomials: x^(2¹²⁸) mod p (JUMP) and x^(2¹⁹²) mod p
// (LONG_JUMP) from xoshiro256starstar.c. Both exponents overflow Advance's
// uint64, so they are reached by squaring x^(2⁶⁴).
func TestJumpConstants(t *testing.T) {
	jump := poly{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	longJump := poly{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}
	q := mulmod(xpow(1<<63), xpow(1<<63)) // x^(2⁶⁴)
	for i := 64; i < 192; i++ {
		if i == 128 && q != jump {
			t.Fatalf("x^(2^128) mod p = %#016x, published JUMP %#016x", q, jump)
		}
		q = mulmod(q, q)
	}
	if q != longJump {
		t.Fatalf("x^(2^192) mod p = %#016x, published LONG_JUMP %#016x", q, longJump)
	}
}

func TestAdvanceMatchesSteps(t *testing.T) {
	r := New(5)
	ks := []uint64{0, 1, 2, 63, 64, 65, 255, 256, 257, 1000, 1_000_000}
	for i := 0; i < 4; i++ {
		ks = append(ks, uint64(r.Intn(1<<20)))
	}
	for _, k := range ks {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			want := NewStream(11, k)
			got := *want
			for i := uint64(0); i < k; i++ {
				want.Uint64()
			}
			got.Advance(k)
			if got != *want {
				t.Fatalf("Advance(%d) state %+v, %d steps give %+v", k, got, k, *want)
			}
		})
	}
}

func TestAdvanceComposes(t *testing.T) {
	for _, ab := range [][2]uint64{{0, 0}, {1, 255}, {300, 1 << 40}, {1 << 63, 1<<63 - 1}, {12345, 67890}} {
		one, two := New(ab[0]^ab[1]), New(ab[0]^ab[1])
		one.Advance(ab[0])
		one.Advance(ab[1])
		two.Advance(ab[0] + ab[1])
		if *one != *two {
			t.Fatalf("Advance(%d) then Advance(%d) != Advance(%d)", ab[0], ab[1], ab[0]+ab[1])
		}
	}
}

// TestAdvanceFloat64s: a block of Float64 draws taken after Advance(k)
// is the serial stream's block starting at draw k — the contract gen.RMAT
// splits its edges on.
func TestAdvanceFloat64s(t *testing.T) {
	const k, n = 4321, 77
	serial := make([]float64, k+n)
	New(8).Float64s(serial)
	s := New(8)
	s.Advance(k)
	got := make([]float64, n)
	s.Float64s(got)
	for i := range got {
		if got[i] != serial[k+i] {
			t.Fatalf("draw %d after Advance(%d) = %v, serial stream has %v", i, k, got[i], serial[k+i])
		}
	}
}

func BenchmarkAdvance(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Advance(1<<40 + uint64(i))
	}
}
