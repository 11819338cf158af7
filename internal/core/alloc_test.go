// Allocation-regression coverage for the zero-allocation query kernels.
// Excluded under the race detector: race instrumentation inserts its own
// allocations and would make the zero assertions meaningless.

//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
)

// allocGraph builds a small but non-trivial graph and querier for
// allocation measurements.
func allocQuerier(t *testing.T) (*graph.Graph, *Querier) {
	t.Helper()
	g, err := gen.RMAT(2000, 16000, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.T = 8
	opts.R = 20
	opts.RPrime = 200
	opts.Seed = 11
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

// measureAllocs settles the heap (finishing any in-flight GC cycle that
// could snatch pooled scratch mid-measurement), then reports average
// allocations per run. AllocsPerRun itself performs one warm-up call, so
// a pool refilled by the preceding GC does not count.
func measureAllocs(runs int, f func()) float64 {
	runtime.GC()
	runtime.GC()
	return testing.AllocsPerRun(runs, f)
}

// TestSinglePairZeroSteadyStateAllocs covers both pair paths: the
// fixed budget, and ε = 0.01 waves whose traces the query pool keeps.
func TestSinglePairZeroSteadyStateAllocs(t *testing.T) {
	g, q := allocQuerier(t)
	n := g.NumNodes()
	for _, c := range []struct {
		name  string
		query func(a, b int) error
	}{
		{"SinglePair", func(a, b int) error {
			_, err := q.SinglePair(a, b)
			return err
		}},
		{"ε=0.01 SinglePairAdaptiveCtx", func(a, b int) error {
			_, err := q.SinglePairAdaptiveCtx(context.Background(), a, b, 0.01, 0.05)
			return err
		}},
	} {
		i := 0
		avg := measureAllocs(100, func() {
			a := (i * 131) % n
			b := (i*197 + 7) % n
			i++
			if err := c.query(a, b); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("warm %s allocates %g per op, want 0 (kernel rot: map accumulator or per-query buffers crept back in)", c.name, avg)
		}
	}
}

// TestSinglePairZeroAllocsOnCompactedDynamic pins the warm 0 allocs/op
// query on a compacted snapshot, the graph every hot-swap serves from.
func TestSinglePairZeroAllocsOnCompactedDynamic(t *testing.T) {
	base, err := gen.RMAT(2000, 16000, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDynamic(base, 0)
	for k := 0; k < 500; k++ {
		if _, err := d.InsertEdge((k*37)%2000, (k*53+11)%2000); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := d.Compact()
	opts := DefaultOptions()
	opts.T = 8
	opts.R = 20
	opts.RPrime = 200
	opts.Seed = 11
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	i := 0
	avg := measureAllocs(100, func() {
		a := (i * 131) % n
		b := (i*197 + 7) % n
		i++
		if _, err := q.SinglePair(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm SinglePair on a compacted dynamic graph allocates %g per op, want 0", avg)
	}
}

func TestSingleSourceZeroSteadyStateAllocs(t *testing.T) {
	g, q := allocQuerier(t)
	n := g.NumNodes()
	// SingleSource must hand ownership of a fresh result to the caller,
	// so the zero-allocation contract is on the Into forms with a reused
	// output vector — the form bulk sweeps (AllPairsTopK) and the serving
	// tier use.
	for _, c := range sourceCalls(t, q) {
		out := sparse.Vector{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
		i := 0
		avg := measureAllocs(100, func() {
			node := (i * 211) % n
			i++
			if err := c.into(context.Background(), node, &out); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("warm %s allocates %g per op, want 0", c.name, avg)
		}
	}
}

func TestSingleSourceIntoMatchesSingleSource(t *testing.T) {
	_, q := allocQuerier(t)
	for _, c := range sourceCalls(t, q) {
		fresh, err := c.want(17)
		if err != nil {
			t.Fatal(err)
		}
		var reused sparse.Vector
		// Dirty the reused vector first: Into must fully reset it.
		if err := c.into(context.Background(), 3, &reused); err != nil {
			t.Fatal(err)
		}
		if err := c.into(context.Background(), 17, &reused); err != nil {
			t.Fatal(err)
		}
		if len(fresh.Idx) != len(reused.Idx) {
			t.Fatalf("%s: nnz %d vs %d", c.name, len(fresh.Idx), len(reused.Idx))
		}
		for k := range fresh.Idx {
			if fresh.Idx[k] != reused.Idx[k] || fresh.Val[k] != reused.Val[k] {
				t.Fatalf("%s: entry %d differs: (%d,%g) vs (%d,%g)",
					c.name, k, fresh.Idx[k], fresh.Val[k], reused.Idx[k], reused.Val[k])
			}
		}
	}
}

// TestEstimateRowIntoZeroSteadyStateAllocs pins the batched row
// estimator's steady state: the offline stage's inner loop must not
// regress into per-row allocation. Only the owned result vector of
// EstimateRow is allowed to allocate; the Into form reuses everything.
func TestEstimateRowIntoZeroSteadyStateAllocs(t *testing.T) {
	g, err := gen.RMAT(2000, 16000, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	est := walk.NewRowEstimator(g, 50)
	var out sparse.Vector
	est.EstimateRowInto(0, 10, 0.6, 11, &out) // warm buffers and capacity
	i := 0
	avg := measureAllocs(200, func() {
		node := (i * 173) % g.NumNodes()
		i++
		est.EstimateRowInto(node, 10, 0.6, 11, &out)
	})
	if avg != 0 {
		t.Fatalf("warm EstimateRowInto allocates %g per op, want 0", avg)
	}
}

// TestBuildSystemAllocatesPerSlabNotPerRow pins the offline stage's row
// storage: each run of rows a worker claims lands in one slab, so a
// 20k-row build makes well under two hundred allocations (a slab per run,
// per-worker estimators and buffers, the row array), not three per row;
// and a row stays the integers it was counted as, one 4-byte word per
// deposit worth more than 0. A slab holds exactly its rows' words, so
// every build holds the same 1 658 916 bytes at any timing and core
// count. 8-byte words would hold ~2.7 MB; storing the zero-valued
// deposits again held 21.6 MB.
func TestBuildSystemAllocatesPerSlabNotPerRow(t *testing.T) {
	const ceiling = 1_800_000
	g, err := gen.RMAT(20000, 200000, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Workers: 2, Seed: 11}
	var a *walk.RowSystem
	sizes := map[int64]bool{}
	avg := measureAllocs(2, func() {
		if a, err = BuildSystem(g, opts); err != nil {
			t.Fatal(err)
		}
		sizes[a.Bytes()] = true
	})
	if perRow := avg / float64(a.Rows()); perRow >= 0.01 {
		t.Fatalf("BuildSystem allocates %g times per row (%g per build), want < 0.01", perRow, avg)
	}
	if len(sizes) != 1 {
		t.Fatalf("builds of one system hold %v bytes: the slab layout follows scheduling", sizes)
	}
	if got := a.Bytes(); got > ceiling {
		t.Fatalf("system holds %d bytes for %d entries in %d rows, want ≤ %d", got, a.NNZ(), a.Rows(), ceiling)
	}
}
