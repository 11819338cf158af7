// Allocation-regression coverage for the series kernel. Excluded under
// the race detector, whose instrumentation allocates on its own.

//go:build !race

package linserve

import (
	"context"
	"runtime"
	"testing"

	"cloudwalker/internal/sparse"
)

// TestWarmQueriesAllocateNothing: once the pooled workspace and the
// caller's output vector have grown to the graph, a pair and a source
// query allocate nothing — in particular no sort closure, which is what
// the benchmark's linserve.allocs_per_op used to count.
func TestWarmQueriesAllocateNothing(t *testing.T) {
	g := testGraph(t, 2000, 16000, 3)
	diag := make([]float64, g.NumNodes())
	for i := range diag {
		diag[i] = 0.4
	}
	e, err := New(g, diag, Options{C: 0.6, T: 10, Sweeps: 1, PruneEps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var out sparse.Vector
	for q := 0; q < n; q += 7 { // grow every level snapshot and the output
		if err := e.SingleSourceInto(context.Background(), q, 1e-4, &out); err != nil {
			t.Fatal(err)
		}
	}
	out.Idx, out.Val = make([]int32, 0, n), make([]float64, 0, n)
	runtime.GC() // empties the pool: the warm-up call below refills it
	runtime.GC()
	i := 0
	pair := testing.AllocsPerRun(200, func() {
		i++
		if _, err := e.SinglePair((i*131)%n, (i*197+7)%n); err != nil {
			t.Fatal(err)
		}
	})
	src := testing.AllocsPerRun(200, func() {
		i++
		if err := e.SingleSourceInto(context.Background(), (i*211)%n, 1e-4, &out); err != nil {
			t.Fatal(err)
		}
	})
	if pair != 0 || src != 0 {
		t.Fatalf("warm SinglePair allocates %g per op, SingleSourceInto %g; want 0 and 0", pair, src)
	}
}
