package walk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

func TestScratchAddFlush(t *testing.T) {
	s := NewScratch(10)
	s.Add(7, 0.5)
	s.Add(2, 0.25)
	s.Add(7, 0.5)
	s.Add(4, 0) // explicit zero with no later deposit: dropped on flush
	var v sparse.Vector
	s.FlushInto(&v)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 || v.Get(7) != 1 || v.Get(2) != 0.25 {
		t.Fatalf("flushed %+v", v)
	}
	// Scratch is clean for reuse.
	s.Add(1, 1)
	var w sparse.Vector
	s.FlushInto(&w)
	if w.NNZ() != 1 || w.Get(1) != 1 {
		t.Fatalf("reuse leaked state: %+v", w)
	}
}

func TestScratchFlushResetsOutput(t *testing.T) {
	s := NewScratch(10)
	out := sparse.Vector{Idx: []int32{1, 2, 3}, Val: []float64{9, 9, 9}}
	s.Add(5, 2)
	s.FlushInto(&out)
	if out.NNZ() != 1 || out.Get(5) != 2 {
		t.Fatalf("FlushInto must reset the output vector, got %+v", out)
	}
}

// distReference recomputes empirical distributions the naive way: every
// walker walks its whole trajectory on its own substream
// NewStream(seed, w), visit counts aggregate per (level, node), and each
// count converts to float64 once. This is the engine's definition with
// none of its batching — the bit-exactness oracle for every mode. live[t]
// is the number of walkers alive at level t.
func distReference(g *graph.Graph, start, T, R int, seed uint64) (want []map[int32]float64, live []int) {
	counts := make([]map[int32]int32, T+1)
	for t := range counts {
		counts[t] = make(map[int32]int32)
	}
	counts[0][int32(start)] = int32(R)
	for w := 0; w < R; w++ {
		src := xrand.NewStream(seed, uint64(w))
		cur := start
		for t := 1; t <= T; t++ {
			cur = StepIn(g, cur, src)
			if cur < 0 {
				break
			}
			counts[t][int32(cur)]++
		}
	}
	want = make([]map[int32]float64, T+1)
	live = make([]int, T+1)
	invR := 1.0 / float64(R)
	for t := range counts {
		want[t] = make(map[int32]float64, len(counts[t]))
		for k, c := range counts[t] {
			want[t][k] = float64(c) * invR
			live[t] += int(c)
		}
	}
	return want, live
}

// requireDistsMatch asserts vectors are sorted, deduplicated, and
// bit-identical to the reference maps.
func requireDistsMatch(t *testing.T, label string, got []sparse.Vector, want []map[int32]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d step vectors, want %d", label, len(got), len(want))
	}
	for tt := range got {
		v := got[tt]
		if err := v.Validate(); err != nil {
			t.Fatalf("%s t=%d: %v", label, tt, err)
		}
		if len(v.Idx) != len(want[tt]) {
			t.Fatalf("%s t=%d: nnz %d, reference %d", label, tt, len(v.Idx), len(want[tt]))
		}
		for k, idx := range v.Idx {
			if v.Val[k] != want[tt][idx] {
				t.Fatalf("%s t=%d node %d: %g, reference %g", label, tt, idx, v.Val[k], want[tt][idx])
			}
		}
	}
}

// TestDistributionsIntoMatchesNaiveBitExact pins the engine against the
// per-walker-substream definition on graphs that stress each mode: a
// sparse power-law graph, a star (long runs; from the hub every walker
// dies after level one), a graph with dangling and isolated nodes, and
// one with self-loops and duplicate edges. R straddles batchSortMin and
// the starts include nodes with no in-links. A level runs sorted exactly
// when the frontier entering it, the walkers alive one level up, holds
// at least batchSortMin; from the reference's live counts the test
// checks that on every graph whose walkers die off gradually, each
// R ≥ batchSortMin has a start whose walk runs sorted levels and then
// scatter levels. Walks are T = 16 deep: on the power-law graph 4·128
// walkers take 11 levels to thin below the crossover.
func TestDistributionsIntoMatchesNaiveBitExact(t *testing.T) {
	rmat, err := gen.RMAT(300, 600, gen.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(9)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(8)
	// Nodes 30–39 have out-links only, 40–44 no links at all.
	b := graph.NewBuilder(45)
	for k := 0; k < 150; k++ {
		if err := b.AddEdge(src.Intn(40), src.Intn(30)); err != nil {
			t.Fatal(err)
		}
	}
	dangling, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Every third node of 0–19 loops on itself, every edge is added
	// twice, and nodes 20–24 have out-links only.
	b = graph.NewBuilder(25).KeepSelfLoops()
	for u := 0; u < 20; u += 3 {
		if err := b.AddEdge(u, u); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 60; k++ {
		u, v := src.Intn(25), src.Intn(20)
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	loops, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const T, seed = 16, 3
	s := NewScratch(0)
	var buf DistBuf
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		starts   []int
		dyingOff bool
	}{
		{"rmat", rmat, []int{11, 0, 299}, true},
		{"star", star, []int{0, 3}, false},
		{"dangling", dangling, []int{2, 17, 35, 42}, true},
		{"loops", loops, []int{0, 7, 22}, true},
	} {
		for _, R := range []int{batchSortMin - 1, batchSortMin, 4 * batchSortMin} {
			bothModes := false
			for _, start := range tc.starts {
				want, live := distReference(tc.g, start, T, R, seed)
				got := s.DistributionsInto(&buf, tc.g, start, T, R, seed)
				requireDistsMatch(t, fmt.Sprintf("%s R=%d start=%d", tc.name, R, start), got, want)
				sorted, scatter := 0, 0
				for lvl := 1; lvl <= T && live[lvl-1] > 0; lvl++ {
					if live[lvl-1] >= batchSortMin {
						sorted++
					} else {
						scatter++
					}
				}
				bothModes = bothModes || sorted > 0 && scatter > 0
			}
			if tc.dyingOff && R >= batchSortMin && !bothModes {
				t.Errorf("%s R=%d: no start ran both sorted and scatter levels", tc.name, R)
			}
		}
	}
}

func TestDistributionsIntoReuseIsClean(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(g.NumNodes())
	var buf DistBuf
	// Burn a different query through the shared scratch and buffer first.
	s.DistributionsInto(&buf, g, 3, 5, 300, 1)
	got := s.DistributionsInto(&buf, g, 7, 5, 300, 2)
	want, _ := distReference(g, 7, 5, 300, 2)
	requireDistsMatch(t, "reused", got, want)
	if s.hist != nil {
		t.Fatal("the distribution kernel allocated the MCSS float histogram it never reads")
	}
}

// TestSingleSourceWalkDeadStart: from a start with no in-links every
// walker dies on its first draw, so the MCSS walk's estimate is its
// t = 0 term alone, diag[q] at q, bit for bit; and a live start walked
// after dead ones on the same scratch matches a fresh scratch's walk.
func TestSingleSourceWalkDeadStart(t *testing.T) {
	g, err := gen.RMAT(300, 600, gen.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(3)
	diag := make([]float64, g.NumNodes())
	for i := range diag {
		diag[i] = 0.5 + src.Float64()/2
	}
	const T, R, seed = 8, 300, 11
	ct := make([]float64, T+1)
	ct[0] = 1
	for k := 1; k <= T; k++ {
		ct[k] = ct[k-1] * 0.6
	}
	var dead []int
	live := -1
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) == 0 {
			dead = append(dead, v)
		} else if live < 0 {
			live = v
		}
	}
	if len(dead) == 0 || live < 0 {
		t.Fatalf("graph has %d dead starts and live start %d; want both", len(dead), live)
	}
	s := NewScratch(g.NumNodes())
	var out sparse.Vector
	for _, q := range dead {
		s.SingleSourceWalkInto(g, q, T, R, ct, diag, seed, &out)
		if len(out.Idx) != 1 || int(out.Idx[0]) != q || math.Float64bits(out.Val[0]) != math.Float64bits(diag[q]) {
			t.Fatalf("dead start %d: estimate %v %v, want {%d: %v}", q, out.Idx, out.Val, q, diag[q])
		}
	}
	s.SingleSourceWalkInto(g, live, T, R, ct, diag, seed, &out)
	var fresh sparse.Vector
	NewScratch(g.NumNodes()).SingleSourceWalkInto(g, live, T, R, ct, diag, seed, &fresh)
	if !slices.Equal(out.Idx, fresh.Idx) || !slices.EqualFunc(out.Val, fresh.Val, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Fatalf("live start %d after dead ones differs from a fresh scratch's walk", live)
	}
}

func TestDistributionsIntoDegenerate(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(g.NumNodes())
	var buf DistBuf
	// R <= 0 degenerates to the unit vector, like Distributions.
	got := s.DistributionsInto(&buf, g, 2, 3, 0, 1)
	if len(got) != 1 || got[0].NNZ() != 1 || got[0].Get(2) != 1 {
		t.Fatalf("degenerate result %+v", got)
	}
	// T = 0 keeps only the start distribution.
	got = s.DistributionsInto(&buf, g, 1, 0, 50, 2)
	if len(got) != 1 || got[0].NNZ() != 1 {
		t.Fatalf("T=0 result %+v", got)
	}
}

func TestDistributionsIntoNegativeT(t *testing.T) {
	g, err := gen.Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(g.NumNodes())
	var buf DistBuf
	got := s.DistributionsInto(&buf, g, 1, -1, 10, 3)
	if len(got) != 1 || got[0].NNZ() != 1 || got[0].Get(1) != 1 {
		t.Fatalf("negative T result %+v", got)
	}
}

// TestStepViewVariantsMatch: StepIn's draw over InNeighbors is the draw
// the batched kernels make over InRow/InAt, and ForwardWeightedView over
// OutRow/OutAt matches a formulation over the neighbour slices.
func TestStepViewVariantsMatch(t *testing.T) {
	g, err := gen.RMAT(100, 600, gen.DefaultRMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := xrand.New(5), xrand.New(5)
	for v := 0; v < g.NumNodes(); v++ {
		want := -1
		if base, d := g.InRow(int32(v)); d > 0 {
			want = int(g.InAt(base + int64(b.Intn(int(d)))))
		}
		if got := StepIn(g, v, a); got != want {
			t.Fatalf("StepIn(%d) = %d, InRow/InAt draw = %d", v, got, want)
		}
	}
	// Check the forward walk against an independent formulation of the
	// importance-weighted step over the neighbour slices.
	csrForward := func(k int, w float64, steps int, src *xrand.Source) (int, float64) {
		cur := k
		for s := 0; s < steps; s++ {
			dOut := g.OutDegree(cur)
			if dOut == 0 {
				return -1, 0
			}
			next := int(g.OutNeighbors(cur)[src.Intn(dOut)])
			w *= float64(dOut) / float64(g.InDegree(next))
			cur = next
		}
		return cur, w
	}
	a, b = xrand.New(6), xrand.New(6)
	for v := 0; v < g.NumNodes(); v++ {
		jv, wv := ForwardWeightedView(g, int32(v), 1.0, 3, a)
		j, w := csrForward(v, 1.0, 3, b)
		if int(jv) != j || wv != w {
			t.Fatalf("ForwardWeightedView(%d) = (%d,%v), CSR reference = (%d,%v)", v, jv, wv, j, w)
		}
	}
}

// Property: the shared radix sort equals slices.SortStableFunc on the
// sorted key for key ranges straddling every pass-count boundary (2^11,
// 2^19, 2^27) and byte boundary, through all three of its callers' shapes — packed keys by
// their high half (the low half, walker IDs or level-ordered deposits,
// must keep input order), sortFrontier's buffer-parity swap, and
// sortTouched over bare node ids (short lists take the stdlib path).
func TestRadixSortMatchesStableSort(t *testing.T) {
	src := xrand.New(5)
	for _, maxKey := range []uint32{0, 1<<8 - 1, 1 << 8, 1<<11 - 1, 1 << 11, 1<<16 - 1, 1 << 16, 1<<16 + 1,
		1 << 17, 1<<19 - 1, 1 << 19, 1<<22 - 1, 1 << 22, 1<<22 + 1, 1<<27 - 1, 1 << 27, 1<<31 - 1} {
		var dense *Scratch // sortTouched's keys index a dense histogram: none of 2^31 nodes
		if maxKey < 1<<23 {
			dense = NewScratch(int(maxKey) + 1)
		}
		for _, m := range []int{0, 1, 63, 64, 500, 10000} {
			keys := make([]uint64, m)
			ids := make([]int32, m)
			for i := range keys {
				// Both ends of the range always occur (given room), and the
				// rest clusters so that runs of equal keys test stability.
				k := uint32(src.Uint64() % (uint64(maxKey) + 1))
				switch {
				case i == 0:
					k = maxKey
				case i == 1:
					k = 0
				case i%3 == 0:
					k = uint32(keys[i-1] >> 32)
				}
				keys[i] = uint64(k)<<32 | uint64(i)
				ids[i] = int32(k)
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(x, y uint64) int { return cmp.Compare(x>>32, y>>32) })

			var cnt radixCounts
			if got := radixSort(&cnt, slices.Clone(keys), make([]uint64, m), maxKey); !slices.Equal(got, want) {
				t.Fatalf("maxKey %d len %d: radixSort differs from the stable sort", maxKey, m)
			}

			s := NewScratch(1)
			s.keys, s.keysB = slices.Clone(keys), make([]uint64, m)
			s.sortFrontier(m, maxKey)
			if !slices.Equal(s.keys[:m], want) {
				t.Fatalf("maxKey %d len %d: sortFrontier left the sorted data in the swap buffer", maxKey, m)
			}

			if dense == nil {
				continue
			}
			dense.touched = ids
			wantIDs := slices.Clone(ids)
			slices.Sort(wantIDs)
			dense.sortTouched()
			if !slices.Equal(dense.touched, wantIDs) {
				t.Fatalf("maxKey %d len %d: sortTouched is not sorted", maxKey, m)
			}
		}
	}
}
