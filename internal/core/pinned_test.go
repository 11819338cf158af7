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

func TestQueryKernelsPinned(t *testing.T) {
	g, err := gen.RMAT(20000, 200000, gen.DefaultRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := BuildIndex(g, Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints have in-links: a pair with a dead endpoint scores 0
	// whatever the other side's walk did.
	var live []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) > 0 {
			live = append(live, v)
		}
	}
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
		if err := q.SingleSourceInto(node(), WalkSS, &v); err != nil {
			t.Fatal(err)
		}
		h.vec(&v)
	}
	check("single-source (walk)", pinnedSources, h)
}
