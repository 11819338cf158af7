package core

import (
	"context"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// The goldens of golden_test.go run on a 120-node Erdős–Rényi graph,
// where walks are short and walkers rarely die. These fingerprints pin
// the same contract where the query kernels spend their time: a
// power-law graph whose R' = 1000 frontiers run long sorted levels,
// shrink below the sort crossover as walkers die on nodes without
// in-links, and finish in scatter mode. The options are the serving
// benchmark's, with Workers left at 0 (= GOMAXPROCS) so that
// `go test -cpu 1,4` also varies the index build's sharding. A kernel
// change that moves a single walker fails here.
const (
	pinnedFixedPairs    = 0x502ca91e2da6ccc0
	pinnedAdaptivePairs = 0xb8d47c77ef6c71f3
	pinnedSources       = 0xe2aa60e928e87abd
)

// pinnedQuerier indexes the pinned 20k-node RMAT graph with the serving
// benchmark's options and lists its nodes with in-links: a pair with a
// dead endpoint scores 0 whatever the other side's walk did.
func pinnedQuerier(tb testing.TB) (*Querier, []int) {
	tb.Helper()
	g, err := gen.RMAT(20000, 200000, gen.DefaultRMAT, 1)
	if err != nil {
		tb.Fatal(err)
	}
	idx, _, err := BuildIndex(g, Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		tb.Fatal(err)
	}
	var live []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) > 0 {
			live = append(live, v)
		}
	}
	return q, live
}

func TestQueryKernelsPinned(t *testing.T) {
	q, live := pinnedQuerier(t)
	src := xrand.New(29)
	node := func() int { return live[src.Intn(len(live))] }
	pairs := func() [][2]int {
		ps := make([][2]int, 64)
		for k := range ps {
			ps[k] = [2]int{node(), node()}
		}
		return ps
	}
	check := func(name string, want uint64, h goldenHash) {
		t.Helper()
		if got := h.sum(); got != want {
			t.Errorf("%s hash %#016x, pinned %#016x", name, got, want)
		}
	}

	scores, err := q.SinglePairs(pairs())
	if err != nil {
		t.Fatal(err)
	}
	h := newGoldenHash()
	h.floats(scores...)
	check("fixed pairs", pinnedFixedPairs, h)

	h = newGoldenHash()
	for _, p := range pairs() {
		pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], 0.01, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		h.floats(pe.Score, float64(pe.Walkers))
	}
	check("ε=0.01 pairs", pinnedAdaptivePairs, h)

	h = newGoldenHash()
	var v sparse.Vector
	for k := 0; k < 8; k++ {
		if err := q.SingleSourceInto(context.Background(), node(), WalkSS, &v); err != nil {
			t.Fatal(err)
		}
		h.vec(&v)
	}
	check("single-source (walk)", pinnedSources, h)
}

// BenchmarkSinglePairAdaptive times one pair query on the pinned graph at
// the fixed budget (ε = 0), at the cap (an unreachable ε, every wave
// run) and at ε = 0.01, over pairs whose endpoints both have in-links.
// The cap/fixed ratio is what the adaptive waves cost beyond the walkers
// they run.
func BenchmarkSinglePairAdaptive(b *testing.B) {
	q, live := pinnedQuerier(b)
	src := xrand.New(31)
	pairs := make([][2]int, 1024)
	for k := range pairs {
		i, j := live[src.Intn(len(live))], live[src.Intn(len(live))]
		for j == i {
			j = live[src.Intn(len(live))]
		}
		pairs[k] = [2]int{i, j}
	}
	for _, c := range []struct {
		name string
		eps  float64
	}{{"fixed", 0}, {"cap", 1e-12}, {"eps0.01", 0.01}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				p := pairs[k%len(pairs)]
				if _, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], c.eps, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
