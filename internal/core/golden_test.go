package core

import (
	"context"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
)

// The batched walk engine carries a hard determinism contract: for a
// fixed seed, every estimate must be bit-identical at ANY worker count
// and batch shape — per-walker RNG substreams (xrand.NewStream(seed,
// walkerID)) plus integer visit counting make sharding and frontier
// sorting invisible. These hashes were captured once when the engine
// landed (PR 5, which re-keyed the RNG assignment from per-query streams
// to per-walker substreams and re-captured the PR 2 goldens; the
// statistical-agreement suite in agreement_test.go bounds the drift
// against the old estimator within Monte Carlo error). The options below
// deliberately leave Workers at 0 (= GOMAXPROCS), so running this test
// under `go test -cpu 1,4` proves worker-count invariance — CI does
// exactly that. goldenDistParallel was captured over the sharded
// distribution driver, whose contract was bit-identity with the one-shot
// distribution kernel; it now hashes Scratch.DistributionsInto itself.
// Any future kernel change that shifts even a single ulp, walker,
// or vector entry fails here and must either restore bit-identity or
// consciously re-capture the goldens with a justification. The diagonal,
// pair, source and row hashes were re-captured when index rows moved from
// the plug-in value c^t·(k/R)² to the unbiased c^t·k(k−1)/(R(R−1)):
// every answer reads the diagonal the rows solve to. goldenSSPull was
// re-captured (0x68c0a0a3288aa279 → 0xbdf38fb78225e606) when PullSS
// became the series' exact forward pass in place of R' walked forward
// levels: it no longer samples, so it reads the seed not at all, and its
// answers moved by the walk noise it dropped. goldenSSServed hashes
// ServedSourceInto, the series /source serves, captured when /source moved
// to it from the walk.
const (
	goldenDiag         = 0x11337c3ac2ff675a
	goldenPairs        = 0x61d8906f696d2d67
	goldenSSWalk       = 0x116d62413090ccc0
	goldenSSPull       = 0xbdf38fb78225e606
	goldenSSServed     = 0x89cac7d30ebcdbd8
	goldenDistParallel = 0x4c573eca7a7a3295
	goldenBuildRow     = 0xdbc1beb363b6cfe2
)

// goldenHash accumulates float64 bit patterns.
type goldenHash struct {
	h interface{ Write([]byte) (int, error) }
}

func newGoldenHash() goldenHash { return goldenHash{fnv.New64a()} }

func (g goldenHash) floats(vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		g.h.Write(buf[:])
	}
}

func (g goldenHash) vec(v *sparse.Vector) {
	var buf [4]byte
	for _, idx := range v.Idx {
		for i := 0; i < 4; i++ {
			buf[i] = byte(uint32(idx) >> (8 * i))
		}
		g.h.Write(buf[:])
	}
	g.floats(v.Val...)
}

func (g goldenHash) sum() uint64 {
	return g.h.(interface{ Sum64() uint64 }).Sum64()
}

// goldenIndex builds the goldens' index. Workers: 0 resolves to
// GOMAXPROCS, so `go test -cpu 1,4` runs the whole build+query pipeline at
// different worker counts; identical hashes across -cpu values prove the
// engine's sharding invariance.
func goldenIndex(t *testing.T, pruneEps float64) (*graph.Graph, *Index) {
	t.Helper()
	g, err := gen.ErdosRenyi(120, 700, 42)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := BuildIndex(g, Options{C: 0.6, T: 8, L: 3, R: 60, RPrime: 400, Workers: 0, Seed: 7, PruneEps: pruneEps})
	if err != nil {
		t.Fatal(err)
	}
	return g, idx
}

func TestFixedSeedEstimatesBitIdentical(t *testing.T) {
	g, idx := goldenIndex(t, 0)
	opts := idx.Opts
	check := func(name string, want, got uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s hash %#016x, golden %#016x — fixed-seed output drifted from the pre-rewrite kernels", name, got, want)
		}
	}
	{
		h := newGoldenHash()
		h.floats(idx.Diag...)
		check("index diagonal", goldenDiag, h.sum())
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	{
		h := newGoldenHash()
		for _, p := range [][2]int{{3, 17}, {0, 1}, {59, 100}, {7, 7}, {101, 44}} {
			s, err := q.SinglePair(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			h.floats(s)
		}
		check("single-pair scores", goldenPairs, h.sum())
	}
	{
		v, err := q.SingleSource(5, WalkSS)
		if err != nil {
			t.Fatal(err)
		}
		h := newGoldenHash()
		h.vec(v)
		check("single-source (walk)", goldenSSWalk, h.sum())
	}
	{
		v, err := q.SingleSource(5, PullSS)
		if err != nil {
			t.Fatal(err)
		}
		h := newGoldenHash()
		h.vec(v)
		check("single-source (pull)", goldenSSPull, h.sum())
	}
	{
		var v sparse.Vector
		if err := q.ServedSourceInto(context.Background(), 5, &v); err != nil {
			t.Fatal(err)
		}
		h := newGoldenHash()
		h.vec(&v)
		check("single-source (served)", goldenSSServed, h.sum())
	}
	{
		h := newGoldenHash()
		var buf walk.DistBuf
		dists := walk.NewScratch(0).DistributionsInto(&buf, g.WalkView(), 3, 8, 1000, 99)
		for k := range dists {
			h.vec(&dists[k])
		}
		check("distributions", goldenDistParallel, h.sum())
	}
	{
		h := newGoldenHash()
		h.vec(BuildRowWith(walk.NewRowEstimator(g, opts.R), 9, opts))
		check("indexing row", goldenBuildRow, h.sum())
	}
}

// TestSeriesThresholdsShareOneEngine: PullSS at Options.PruneEps 1e-4 and
// ServedSourceInto at sourceEps, interleaved on four goroutines, share one
// Querier's single series engine and its one workspace pool, and each
// still answers its golden: a workspace one threshold hands back carries
// nothing into the other.
func TestSeriesThresholdsShareOneEngine(t *testing.T) {
	g, idx := goldenIndex(t, 1e-4)
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v sparse.Vector
			for k := range 40 {
				var err error
				name, want := "served", uint64(goldenSSServed)
				if (w+k)%2 == 0 {
					name, want = "pull", goldenSSPull
					err = q.SingleSourceInto(context.Background(), 5, PullSS, &v)
				} else {
					err = q.ServedSourceInto(context.Background(), 5, &v)
				}
				if err != nil {
					t.Error(err)
					return
				}
				h := newGoldenHash()
				h.vec(&v)
				if got := h.sum(); got != want {
					t.Errorf("goroutine %d query %d: %s hash %#016x, golden %#016x", w, k, name, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
