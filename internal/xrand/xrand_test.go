package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same seed diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Streams with adjacent ids should not be correlated; check that the
	// first outputs differ and a simple lag correlation is small.
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	equal := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint64() == s1.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("adjacent streams collided %d times", equal)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square style sanity check on 8 buckets.
	s := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %g", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestFloat64sMatchesFloat64(t *testing.T) {
	a, b := New(9), New(9)
	for _, k := range []int{0, 1, 5, 155} {
		got := make([]float64, k)
		a.Float64s(got)
		for i, g := range got {
			if want := b.Float64(); g != want {
				t.Fatalf("block %d draw %d = %v, Float64 gives %v", k, i, g, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Float64s left the Source in a different state than Float64")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %g", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean %g, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	s := New(29)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Intn(1000003)
	}
	_ = sink
}

func TestReseedMatchesNew(t *testing.T) {
	// In-place reseeding must reproduce New/NewStream's streams exactly —
	// the pooled query scratch depends on it for bit-identical queries.
	s := New(123)
	for i := 0; i < 10; i++ {
		s.Uint64() // dirty the state
	}
	s.Reseed(77)
	fresh := New(77)
	for i := 0; i < 100; i++ {
		if a, b := s.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("Reseed output %d: %x != New's %x", i, a, b)
		}
	}
	s.ReseedStream(9, 4)
	freshStream := NewStream(9, 4)
	for i := 0; i < 100; i++ {
		if a, b := s.Uint64(), freshStream.Uint64(); a != b {
			t.Fatalf("ReseedStream output %d: %x != NewStream's %x", i, a, b)
		}
	}
}

func TestSeedStreamsMatchesNewStream(t *testing.T) {
	// The batch walker seeder must reproduce NewStream(seed, first+k)
	// exactly: the level-synchronous walk engine's determinism contract
	// ("walker w draws from stream walkerID, whatever the batch shape")
	// is stated in terms of NewStream.
	dst := make([]Source, 33)
	for i := range dst {
		dst[i].Reseed(uint64(i)) // dirty every slot
	}
	SeedStreams(dst, 42, 7)
	for k := range dst {
		want := NewStream(42, 7+uint64(k))
		for i := 0; i < 50; i++ {
			if a, b := dst[k].Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %d output %d: %x != NewStream's %x", k, i, a, b)
			}
		}
	}
}

func TestMixSeparatesStreamSpaces(t *testing.T) {
	// Streams from Mix-derived seeds must not collide with the parent
	// seed's own stream space (a collision would correlate two queries'
	// walkers). Sample a few streams from each space and compare prefixes.
	seen := map[uint64]string{}
	record := func(label string, seed uint64) {
		for i := uint64(0); i < 8; i++ {
			v := NewStream(seed, i).Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("first output collision between %s and %s", label, prev)
			}
			seen[v] = label
		}
	}
	record("base", 1)
	record("mix(1,0)", Mix(1, 0))
	record("mix(1,1)", Mix(1, 1))
	record("mix(2,0)", Mix(2, 0))
	if Mix(1, 0) == Mix(1, 1) || Mix(1, 0) == Mix(2, 0) {
		t.Fatal("Mix must separate distinct (seed, salt) pairs")
	}
}

func BenchmarkSeedStreams(b *testing.B) {
	dst := make([]Source, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SeedStreams(dst, uint64(i), uint64(i)*64)
	}
}
