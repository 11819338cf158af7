package core

import (
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
)

// dynamicOpts are small-but-real parameters for the determinism checks.
func dynamicOpts() Options {
	opts := DefaultOptions()
	opts.T = 6
	opts.R = 20
	opts.RPrime = 300
	opts.Seed = 5
	opts.Workers = 2
	return opts
}

// TestCompactedDynamicEstimatesBitIdentical is the acceptance pin for the
// dynamic-graph subsystem: applying an update stream through a
// graph.Dynamic and compacting must yield a graph whose index and query
// estimates are bit-identical (fixed seed) to building the same final
// edge list from scratch. Any divergence — row ordering, dedup policy,
// offset layout — would silently fork the serving tier's answers after a
// hot-swap.
func TestCompactedDynamicEstimatesBitIdentical(t *testing.T) {
	base, err := gen.RMAT(500, 3000, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDynamic(base, 0)
	// A deterministic update stream: deletions of existing edges,
	// insertions of fresh ones (including a node-count extension).
	dels := 0
	base.Edges(func(u, v int32) bool {
		if (u+v)%17 == 0 {
			if ok, err := d.DeleteEdge(int(u), int(v)); err != nil || !ok {
				t.Fatalf("delete (%d,%d): ok=%v err=%v", u, v, ok, err)
			}
			dels++
		}
		return true
	})
	inserts := [][2]int{{0, 499}, {499, 3}, {250, 251}, {500, 0}, {7, 501}}
	for _, e := range inserts {
		if _, err := d.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if dels == 0 {
		t.Fatal("update stream deleted nothing; test is vacuous")
	}

	compacted, _ := d.Compact()

	// From-scratch build of the same final edge list.
	b := graph.NewBuilder(compacted.NumNodes())
	compacted.Edges(func(u, v int32) bool {
		if err := b.AddEdge(int(u), int(v)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	scratch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if scratch.NumNodes() != compacted.NumNodes() || scratch.NumEdges() != compacted.NumEdges() {
		t.Fatalf("shape diverged: %d/%d vs %d/%d",
			scratch.NumNodes(), scratch.NumEdges(), compacted.NumNodes(), compacted.NumEdges())
	}

	opts := dynamicOpts()
	idxA, _, err := BuildIndex(compacted, opts)
	if err != nil {
		t.Fatal(err)
	}
	idxB, _, err := BuildIndex(scratch, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idxA.Diag {
		if idxA.Diag[i] != idxB.Diag[i] {
			t.Fatalf("diag[%d]: %g vs %g", i, idxA.Diag[i], idxB.Diag[i])
		}
	}

	qa, err := NewQuerier(compacted, idxA)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewQuerier(scratch, idxB)
	if err != nil {
		t.Fatal(err)
	}
	n := compacted.NumNodes()
	for k := 0; k < 50; k++ {
		i, j := (k*131)%n, (k*197+7)%n
		sa, err := qa.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := qb.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("SinglePair(%d,%d): %v vs %v", i, j, sa, sb)
		}
	}
	for _, mode := range []SingleSourceMode{WalkSS, PullSS} {
		va, err := qa.SingleSource(42, mode)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := qb.SingleSource(42, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(va.Idx) != len(vb.Idx) {
			t.Fatalf("mode %d: nnz %d vs %d", mode, len(va.Idx), len(vb.Idx))
		}
		for k := range va.Idx {
			if va.Idx[k] != vb.Idx[k] || va.Val[k] != vb.Val[k] {
				t.Fatalf("mode %d entry %d: (%d,%g) vs (%d,%g)",
					mode, k, va.Idx[k], va.Val[k], vb.Idx[k], vb.Val[k])
			}
		}
	}
}
