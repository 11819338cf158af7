package lin

import (
	"math"
	"testing"

	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
)

// testOptions is the LIN column's configuration: exact queries, a
// diagonal solved to well below the series truncation.
func testOptions() linserve.Options {
	o := linserve.DefaultOptions()
	o.T = 15
	o.Sweeps = 15
	o.Workers = 2
	return o
}

func build(t *testing.T, g *graph.Graph, o linserve.Options) *linserve.Engine {
	t.Helper()
	e, err := linserve.Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDiagonalMatchesExact(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	e := build(t, g, opts)
	want, err := exact.ExactDiagonal(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := exact.CompareVec(want, e.Diag())
	if err != nil {
		t.Fatal(err)
	}
	// LIN is exact up to series truncation c^{T+1}/(1-c) and the Jacobi
	// residual.
	if d.MaxAbs > 0.005 {
		t.Fatalf("LIN diagonal max error %g", d.MaxAbs)
	}
}

func TestSinglePairMatchesExact(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	e := build(t, g, opts)
	s, err := exact.Naive(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < 12; i++ {
		for j := i; j < 12; j++ {
			got, err := e.SinglePair(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - s.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.01 {
		t.Fatalf("LIN single-pair worst error %g (should be near exact)", worst)
	}
}

func TestSingleSourceMatchesExact(t *testing.T) {
	g, err := gen.RMAT(40, 200, gen.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	e := build(t, g, opts)
	s, err := exact.Naive(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	const q = 6
	ss, err := e.SingleSource(q)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		if d := math.Abs(ss.Get(v) - s.At(q, v)); d > worst {
			worst = d
		}
	}
	if worst > 0.01 {
		t.Fatalf("LIN single-source worst error %g", worst)
	}
	if ss.Get(q) != 1 {
		t.Fatalf("self similarity %g", ss.Get(q))
	}
}

// TestSingleSourceAgreesWithSinglePair: the backward pass of single-source
// and the dual forward pass of single-pair evaluate the same series.
func TestSingleSourceAgreesWithSinglePair(t *testing.T) {
	g, err := gen.ErdosRenyi(25, 120, 13)
	if err != nil {
		t.Fatal(err)
	}
	e := build(t, g, testOptions())
	const q = 3
	ss, err := e.SingleSource(q)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		sp, err := e.SinglePair(q, v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ss.Get(v)-sp) > 1e-9 {
			t.Fatalf("SS(%d) = %g, SP = %g", v, ss.Get(v), sp)
		}
	}
}

// TestPruneApproximation: the build-time prune the LIN column runs with
// perturbs pair scores only slightly.
func TestPruneApproximation(t *testing.T) {
	g, err := gen.RMAT(60, 400, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	ex := build(t, g, testOptions())
	pr := testOptions()
	pr.BuildPruneEps = 1e-4
	ap := build(t, g, pr)
	for i := 0; i < 10; i++ {
		a, err := ex.SinglePair(i, (i+11)%60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ap.SinglePair(i, (i+11)%60)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 0.02 {
			t.Fatalf("pruned LIN diverges: %g vs %g", a, b)
		}
	}
}

func TestNodeRangeErrors(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}})
	e := build(t, g, linserve.DefaultOptions())
	if _, err := e.SinglePair(0, 5); err == nil {
		t.Error("overflow node accepted")
	}
	if _, err := e.SingleSource(-1); err == nil {
		t.Error("negative source accepted")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	o1 := testOptions()
	o1.Workers = 1
	o4 := testOptions()
	o4.Workers = 4
	a := build(t, g, o1).Diag()
	b := build(t, g, o4).Diag()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed LIN diagonal at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
