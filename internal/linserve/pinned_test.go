package linserve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"cloudwalker/internal/sparse"
)

// pinnedSeries are fnv-64a fingerprints of the series' float bits on
// RMAT(4000, 32000, seed 1002) — lin_cold's graph — over a fixed diagonal,
// keyed by query prune threshold and direction: pairs hashes 96 pair
// scores between nodes with in-links, sources the indices and values of
// 24 single-source vectors. A kernel rewrite that claims bit-identical
// answers runs against these; one that reassociates a sum fails here.
var pinnedSeries = map[string]struct{ pairs, sources uint64 }{
	"eps=0/push":           {0x8070ca0d45b22e9b, 0xd56d012e9b0fb2ae},
	"eps=0/pull":           {0x03853aa20f36f31a, 0x538e6fe00a50a39e},
	"eps=0/switching":      {0x9ba98abd00b08348, 0x2aeda36a44ce8217},
	"eps=0.0001/push":      {0xcd1e9ebd9a912397, 0x12c10d6035878688},
	"eps=0.0001/pull":      {0x5b2960a48f320451, 0x02be56aba3fea5d4},
	"eps=0.0001/switching": {0x59ebec4a97561677, 0xee1d46391e559a02},
	"eps=0.001/push":       {0x592679eff2131f33, 0xc2c35fdaab012fab},
	"eps=0.001/pull":       {0xdcdd2dd30cc45a11, 0x07c2354ea83c825d},
	"eps=0.001/switching":  {0x5bd57ce0a39af92f, 0x129f5af3a2931d66},
	"eps=0.003/push":       {0x35e104945af39323, 0x1ae742b7ba398862},
	"eps=0.003/pull":       {0x5d312e93ca924c9d, 0xbf04f2b7b5653288},
	"eps=0.003/switching":  {0x95bc72cd34e61634, 0x1ae742b7ba398862},
}

// TestSeriesPinned fingerprints SinglePairCtx and SingleSourceInto at
// four prune thresholds with every level pushed, every level pulled, and
// the engine's own switching. One engine answers at every threshold, ε per
// call, and the thresholds run fine to coarse, then back coarse to fine
// (the "reverse/" subtests), so no state a workspace keeps from one
// threshold can leak into another. The graph is generated and the queries
// run on one goroutine, so the hashes hold at any GOMAXPROCS (CI runs
// -cpu 1,4).
func TestSeriesPinned(t *testing.T) {
	g := testGraph(t, 4000, 32000, 1002)
	n := g.NumNodes()
	diag := make([]float64, n)
	var live []int // pairs with an endpoint nobody links to score 0 at once
	for i := range diag {
		diag[i] = 0.3 + 0.5*float64(i%7)/7
		if g.InDegree(i) > 0 {
			live = append(live, i)
		}
	}
	e, err := New(g, diag, Options{C: 0.6, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{0, 1e-4, 1e-3, 3e-3, 3e-3, 1e-3, 1e-4, 0}
	for k, eps := range thresholds {
		pass := ""
		if k >= len(thresholds)/2 {
			pass = "reverse/"
		}
		for _, dir := range directions {
			name := fmt.Sprintf("eps=%g/%s", eps, dir.name)
			t.Run(pass+name, func(t *testing.T) {
				forceDirection(t, dir.at)
				pairs, sources := fnv.New64a(), fnv.New64a()
				var buf [8]byte
				float := func(h hash.Hash64, v float64) {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
				for k := 0; k < 96; k++ {
					s, err := e.SinglePairCtx(context.Background(), live[(k*389+11)%len(live)], live[(k*1193+5)%len(live)], eps)
					if err != nil {
						t.Fatal(err)
					}
					float(pairs, s)
				}
				var v sparse.Vector
				for k := 0; k < 24; k++ {
					if err := e.SingleSourceInto(context.Background(), (k*677+3)%n, eps, &v); err != nil {
						t.Fatal(err)
					}
					for j, i := range v.Idx {
						binary.LittleEndian.PutUint32(buf[:4], uint32(i))
						sources.Write(buf[:4])
						float(sources, v.Val[j])
					}
				}
				want := pinnedSeries[name]
				if got := pairs.Sum64(); got != want.pairs {
					t.Errorf("pairs hash %#016x, pinned %#016x", got, want.pairs)
				}
				if got := sources.Sum64(); got != want.sources {
					t.Errorf("sources hash %#016x, pinned %#016x", got, want.sources)
				}
			})
		}
	}
}
