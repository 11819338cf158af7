package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
)

// floatBuild is the offline stage as dist.BroadcastEngine runs it: every
// row estimated into a float vector, installed in a sparse.Matrix, then
// solved.
func floatBuild(t *testing.T, g *graph.Graph, opts Options) (*sparse.Matrix, *Index, *IndexReport) {
	t.Helper()
	n := g.NumNodes()
	a := sparse.NewMatrix(n, n)
	est := walk.NewRowEstimator(g, opts.R)
	for i := 0; i < n; i++ {
		a.SetRow(i, BuildRowWith(est, i, opts))
	}
	ix, rep, err := SolveIndex(g, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, ix, rep
}

// loopyGraph has self-loops (kept), an edge listed several times (the
// builder keeps one), dangling nodes and an isolated one.
func loopyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12).KeepSelfLoops()
	for _, e := range [][2]int{
		{0, 0}, {0, 1}, {0, 1}, {0, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 2}, {4, 2},
		{5, 4}, {5, 3}, {6, 5}, {6, 6}, {7, 6}, {1, 7}, {8, 7}, {9, 8}, {9, 0}, {10, 9},
	} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCodedBuildMatchesFloatBuild: BuildIndex over coded rows returns the
// bits of the float path — diagonal, residual history, entry and skipped
// row counts — and its system decodes to the float rows entry for entry,
// on graphs with dangling nodes, self-loops and repeated input edges, at
// 1/2/4 and GOMAXPROCS workers, through both frontier modes (R on either side of the
// sort crossover), and at the degenerate T = 0, R = 2 and L = 0. Runs at
// -cpu 1,4 in CI's determinism leg.
func TestCodedBuildMatchesFloatBuild(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := map[string]*graph.Graph{
		"rmat":    mk(gen.RMAT(300, 2400, gen.DefaultRMAT, 17)), // dangling nodes, hubs
		"star":    mk(gen.Star(9)),
		"copying": mk(gen.Copying(200, 4, 0.5, 3)),
		"loopy":   loopyGraph(t),
	}
	base := Options{C: 0.6, T: 7, L: 3, R: 40, RPrime: 100, Seed: 5}
	variants := map[string]func(*Options){
		"base":   func(*Options) {},
		"sorted": func(o *Options) { o.R = 300 },
		"T=0":    func(o *Options) { o.T = 0 },
		"R=2":    func(o *Options) { o.R = 2 },
		"L=0":    func(o *Options) { o.L = 0 },
	}
	for gname, g := range graphs {
		for vname, mutate := range variants {
			opts := base
			mutate(&opts)
			want, wantIx, wantRep := floatBuild(t, g, opts)
			for _, workers := range []int{0, 1, 2, 4} { // 0: GOMAXPROCS, which -cpu sets
				opts.Workers = workers
				name := fmt.Sprintf("%s/%s/workers=%d", gname, vname, workers)
				ix, rep, err := BuildIndex(g, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(ix.Diag, wantIx.Diag) {
					t.Fatalf("%s: diagonal differs from the float build", name)
				}
				if !slices.Equal(rep.JacobiResiduals, wantRep.JacobiResiduals) {
					t.Fatalf("%s: residuals %v, float build %v", name, rep.JacobiResiduals, wantRep.JacobiResiduals)
				}
				if rep.Rows != wantRep.Rows || rep.SystemNNZ != wantRep.SystemNNZ || rep.SkippedRows != wantRep.SkippedRows {
					t.Fatalf("%s: report %+v, float build %+v", name, rep, wantRep)
				}
				if rep.SystemBytes <= 0 || wantRep.SystemBytes != 0 {
					t.Fatalf("%s: SystemBytes %d (coded) and %d (float), want > 0 and 0", name, rep.SystemBytes, wantRep.SystemBytes)
				}
				a, err := BuildSystem(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := a.Matrix()
				for i := 0; i < want.Rows(); i++ {
					if !slices.Equal(got.Row(i).Idx, want.Row(i).Idx) || !slices.Equal(got.Row(i).Val, want.Row(i).Val) {
						t.Fatalf("%s: row %d decodes to %v, float row %v", name, i, got.Row(i), want.Row(i))
					}
					if a.Diag(i) != want.Diag(i) {
						t.Fatalf("%s: stored diagonal %d is %g, float row has %g", name, i, a.Diag(i), want.Diag(i))
					}
				}
			}
		}
	}
}

// TestOptionsValidateDepositBounds: T and R together must fit the level
// and count fields of a row deposit. Past walk.RowBits the level used to
// spill into the node bits (wrong rows, no error) and 1+R·T could
// overflow int; now Validate names both fields and the limit.
func TestOptionsValidateDepositBounds(t *testing.T) {
	for _, tc := range []struct {
		T, R int
		ok   bool
	}{
		{T: 10, R: 100, ok: true},
		{T: 0, R: 1<<24 - 1, ok: true}, // 0 + 24 bits
		{T: 0, R: 1 << 24, ok: false},  // 0 + 25
		{T: 1, R: 1<<23 - 1, ok: true}, // 1 + 23
		{T: 1, R: 1 << 23, ok: false},  // 1 + 24
		{T: 255, R: 65535, ok: true},   // 8 + 16
		{T: 256, R: 65535, ok: false},  // 9 + 16
		{T: 255, R: 65536, ok: false},  // 8 + 17
		{T: 65535, R: 255, ok: true},   // 16 + 8
		{T: 65536, R: 255, ok: false},  // the old silent overflow of the 16-bit level field
		{T: 1<<22 - 1, R: 3, ok: true}, // 22 + 2
		{T: 1 << 22, R: 3, ok: false},  // 23 + 2
		{T: 1 << 40, R: 1 << 40, ok: false},
	} {
		o := DefaultOptions()
		o.T, o.R = tc.T, tc.R
		err := o.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("T=%d R=%d: Validate() = %v, want ok=%v", tc.T, tc.R, err, tc.ok)
		}
		if err != nil {
			for _, want := range []string{fmt.Sprintf("T=%d", tc.T), fmt.Sprintf("R=%d", tc.R), fmt.Sprint(walk.RowBits)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("T=%d R=%d: error %q does not name %q", tc.T, tc.R, err, want)
				}
			}
		}
	}
}

// TestOptionsValidateRejectsOneWalkerRows: a row entry's unbiased value
// k(k−1)/(R(R−1)) pairs two walkers, so below R = 2 every off-diagonal
// entry would be 0 and D silently all ones. Validate — and so BuildIndex
// — refuses, naming R and the reason.
func TestOptionsValidateRejectsOneWalkerRows(t *testing.T) {
	g, err := gen.RMAT(100, 800, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, R := range []int{-1, 0, 1} {
		o := DefaultOptions()
		o.R = R
		err := o.Validate()
		if err == nil {
			t.Fatalf("R=%d accepted", R)
		}
		for _, want := range []string{fmt.Sprintf("R=%d", R), "two walkers"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("R=%d: error %q does not name %q", R, err, want)
			}
		}
		if _, _, err := BuildIndex(g, o); err == nil {
			t.Errorf("BuildIndex built an index with R=%d", R)
		}
	}
	o := DefaultOptions()
	o.R = 2
	if err := o.Validate(); err != nil {
		t.Fatalf("R=2 rejected: %v", err)
	}
}
