package linsys

import (
	"math"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

// simrankSystem assembles the exact SimRank row system A x = 1 of a graph
// (rows a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)) — the real workload both
// solvers exist for, as opposed to the synthetic random systems of the
// unit tests.
func simrankSystem(t *testing.T, g *graph.Graph, c float64, T int) *System {
	t.Helper()
	n := g.NumNodes()
	p := sparse.NewTransition(g)
	a := sparse.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := sparse.Unit(i)
		v := sparse.Unit(i)
		ct := 1.0
		for step := 1; step <= T; step++ {
			v = p.Apply(v)
			if v.NNZ() == 0 {
				break
			}
			ct *= c
			row = sparse.AddScaled(row, ct, v.SquareValues())
		}
		a.SetRow(i, row)
	}
	sys, err := NewSystem(a, Ones(n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// TestJacobiGaussSeidelAgreeOnGraphSystems: on real SimRank systems from
// non-trivial graphs, the two iterations must converge to the same
// solution — they are interchangeable numerically; the choice is purely
// parallelism (Jacobi) vs sweep count (Gauss–Seidel).
func TestJacobiGaussSeidelAgreeOnGraphSystems(t *testing.T) {
	graphs := map[string]func() (*graph.Graph, error){
		"rmat":    func() (*graph.Graph, error) { return gen.RMAT(150, 900, gen.DefaultRMAT, 21) },
		"planted": func() (*graph.Graph, error) { return gen.PlantedPartition(5, 30, 4, 0.8, 9) },
		"ba":      func() (*graph.Graph, error) { return gen.BarabasiAlbert(150, 4, 33) },
	}
	for name, mk := range graphs {
		t.Run(name, func(t *testing.T) {
			g, err := mk()
			if err != nil {
				t.Fatalf("generator: %v", err)
			}
			sys := simrankSystem(t, g, 0.6, 8)
			xj, jrep, err := sys.Jacobi(40, 4, nil)
			if err != nil {
				t.Fatalf("Jacobi: %v", err)
			}
			xg, grep, err := sys.GaussSeidel(40, nil)
			if err != nil {
				t.Fatalf("GaussSeidel: %v", err)
			}
			if jrep.Diverged() || grep.Diverged() {
				t.Fatalf("diverged on a SimRank system: jacobi=%v gs=%v",
					jrep.Residuals, grep.Residuals)
			}
			if jr, gr := jrep.FinalResidual(), grep.FinalResidual(); jr > 1e-9 || gr > 1e-9 {
				t.Fatalf("not converged: jacobi residual %g, gs residual %g", jr, gr)
			}
			for i := range xj {
				if math.Abs(xj[i]-xg[i]) > 1e-8 {
					t.Fatalf("solutions disagree at %d: jacobi %g vs gs %g", i, xj[i], xg[i])
				}
			}
		})
	}
}

// nonDominantSystem builds a ring system whose off-diagonal mass dwarfs
// the diagonal — the iteration matrix has spectral radius 2, so both
// stationary methods must blow up.
func nonDominantSystem(t *testing.T, n int) *System {
	t.Helper()
	a := sparse.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := &sparse.Vector{}
		j := int32((i + 1) % n)
		d := int32(i)
		if j < d {
			row.Idx = []int32{j, d}
			row.Val = []float64{2, 1}
		} else {
			row.Idx = []int32{d, j}
			row.Val = []float64{1, 2}
		}
		a.SetRow(i, row)
	}
	sys, err := NewSystem(a, Ones(n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// dominance returns the minimum over rows of |a_ii| − Σ_{j≠i}|a_ij| and
// the row attaining it. A positive margin (strict diagonal dominance)
// guarantees both Jacobi and Gauss–Seidel converge; CloudWalker's row
// systems have a_ii ≥ 1 with off-diagonal squared-probability mass, so
// the margin is positive in practice but not by construction.
func dominance(a *sparse.Matrix) (margin float64, row int) {
	margin = math.Inf(1)
	for i := 0; i < a.Rows(); i++ {
		r := a.Row(i)
		diag := 0.0
		off := 0.0
		for k, j := range r.Idx {
			if int(j) == i {
				diag = math.Abs(r.Val[k])
				continue
			}
			off += math.Abs(r.Val[k])
		}
		if m := diag - off; m < margin {
			margin = m
			row = i
		}
	}
	if a.Rows() == 0 {
		margin = 0
	}
	return margin, row
}

func TestDominanceMargin(t *testing.T) {
	g, err := gen.RMAT(100, 600, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	sys := simrankSystem(t, g, 0.6, 6)
	if margin, row := dominance(floats(sys)); margin <= 0 {
		t.Fatalf("SimRank system should be diagonally dominant, margin %g at row %d", margin, row)
	}
	bad := nonDominantSystem(t, 20)
	margin, _ := dominance(floats(bad))
	if math.Abs(margin-(-1)) > 1e-12 {
		t.Fatalf("ring system margin = %g, want -1", margin)
	}
}

func TestJacobiDivergesOnNonDominantSystem(t *testing.T) {
	sys := nonDominantSystem(t, 30)
	_, rep, err := sys.Jacobi(20, 2, nil)
	if err != nil {
		t.Fatalf("Jacobi returned an error instead of reporting divergence: %v", err)
	}
	if !rep.Diverged() {
		t.Fatalf("20 sweeps on a spectral-radius-2 system should diverge; residuals %v", rep.Residuals)
	}
	if last := rep.FinalResidual(); last <= rep.Residuals[0] {
		t.Fatalf("residual did not grow: first %g, last %g", rep.Residuals[0], last)
	}
}

func TestReportDiverged(t *testing.T) {
	if !(Report{}).Diverged() {
		t.Fatal("empty report should count as diverged")
	}
	if !(Report{Sweeps: 2, Residuals: []float64{1, math.NaN()}}).Diverged() {
		t.Fatal("NaN residual should count as diverged")
	}
	if !(Report{Sweeps: 2, Residuals: []float64{1, math.Inf(1)}}).Diverged() {
		t.Fatal("infinite residual should count as diverged")
	}
	if (Report{Sweeps: 2, Residuals: []float64{1, 0.5}}).Diverged() {
		t.Fatal("shrinking residual reported as diverged")
	}
}
