// Package linsys solves the sparse linear system A x = b of CloudWalker's
// offline indexing stage.
//
// Row i of A is the Monte-Carlo-estimated a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)
// and b = 1. The t = 0 term contributes 1 to every diagonal entry, so
// a_ii ≥ 1 while off-diagonal entries are squared probabilities scaled by
// c^t — the system is strongly diagonally dominant in practice and the
// paper's L = 3 Jacobi sweeps suffice. Jacobi is chosen over Gauss–Seidel
// because each sweep is embarrassingly parallel across rows (the poster's
// "Update x In Parallel"); Gauss–Seidel is provided for the sequential
// ablation.
package linsys

import (
	"fmt"
	"math"
	"sync"

	"cloudwalker/internal/sparse"
)

// Matrix is what the solver reads of A: its shape, a diagonal entry, and
// one row's products with a vector (see sparse.Matrix.RowDot for the
// three sums). A float *sparse.Matrix is one; the offline stage's coded
// rows (walk.RowSystem) are another, decoded as they are multiplied.
type Matrix interface {
	Rows() int
	Cols() int
	Diag(i int) float64
	RowDot(i int, x []float64) (diag, off, full float64)
}

// System is the linear system A x = b.
type System struct {
	A Matrix
	B []float64
}

// NewSystem validates dimensions and wraps (A, b).
func NewSystem(a Matrix, b []float64) (*System, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("linsys: %d rows but %d right-hand sides", a.Rows(), len(b))
	}
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linsys: system must be square, got %dx%d", a.Rows(), a.Cols())
	}
	return &System{A: a, B: b}, nil
}

// Ones returns a right-hand side of n ones (the self-similarity
// constraints s(i,i) = 1).
func Ones(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// Report describes a solve: residual history (‖Ax−b‖∞ after each sweep),
// the number of sweeps executed, and how many rows every sweep skipped
// because their diagonal is zero (their x stays at x0).
type Report struct {
	Sweeps      int
	Residuals   []float64
	SkippedRows int
}

// FinalResidual returns the last recorded residual (math.Inf(1) if none).
func (r Report) FinalResidual() float64 {
	if len(r.Residuals) == 0 {
		return math.Inf(1)
	}
	return r.Residuals[len(r.Residuals)-1]
}

// Diverged reports whether the solve failed to make progress: no sweeps
// ran, the final residual is non-finite, or the residual grew from the
// first sweep to the last (the classic signature of an iteration applied
// to a system that is not diagonally dominant).
func (r Report) Diverged() bool {
	if len(r.Residuals) == 0 {
		return true
	}
	last := r.Residuals[len(r.Residuals)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return true
	}
	return last > r.Residuals[0]
}

// Dominance returns the minimum over rows of |a_ii| − Σ_{j≠i}|a_ij| and
// the row attaining it. A positive margin (strict diagonal dominance)
// guarantees both Jacobi and Gauss–Seidel converge; CloudWalker's row
// systems have a_ii ≥ 1 with off-diagonal squared-probability mass, so
// the margin is positive in practice but not by construction — callers
// that assemble their own systems can check before iterating. No program
// calls it: it is the dominance property test's reference
// (TestDominanceMargin).
func Dominance(a *sparse.Matrix) (margin float64, row int) {
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

// Jacobi runs `sweeps` parallel Jacobi iterations with `workers`
// goroutines, starting from x0 (nil means the zero vector). Rows whose
// diagonal is zero (a row that was never estimated) keep their x value
// and are counted in Report.SkippedRows. Sweep k's update and iterate
// k−1's residual come out of the same pass over A (see rowPass), and one
// residual-only pass closes the solve: L+1 parallel passes for L sweeps,
// none serial. From the zero vector the first sweep is b_i/a_ii and
// reads only A.Diag.
func (s *System) Jacobi(sweeps, workers int, x0 []float64) ([]float64, Report, error) {
	x, err := s.start(sweeps, x0)
	if err != nil {
		return nil, Report{}, err
	}
	next := make([]float64, len(x))
	rep := Report{}
	for sweep := 0; sweep < sweeps; sweep++ {
		var resid float64
		resid, rep.SkippedRows = s.rowPass(workers, x, next, sweep == 0 && x0 == nil)
		if sweep > 0 {
			rep.Residuals = append(rep.Residuals, resid)
		}
		x, next = next, x
		rep.Sweeps++
	}
	if sweeps > 0 {
		rep.Residuals = append(rep.Residuals, s.ResidualInf(x, workers))
	}
	return x, rep, nil
}

// start validates a solve's arguments and returns its first iterate: a
// copy of x0, or zeros for nil.
func (s *System) start(sweeps int, x0 []float64) ([]float64, error) {
	if sweeps < 0 {
		return nil, fmt.Errorf("linsys: negative sweep count %d", sweeps)
	}
	x := make([]float64, s.A.Rows())
	if x0 != nil && len(x0) != len(x) {
		return nil, fmt.Errorf("linsys: x0 has %d entries, want %d", len(x0), len(x))
	}
	copy(x, x0)
	return x, nil
}

// rowPass is the solver's one pass over A, rows split across `workers`
// goroutines. It returns ‖Ax − b‖∞ and the number of zero-diagonal rows,
// and with next != nil also writes the Jacobi update of x into it. Each
// row's RowDot sums the same products in index order twice — the full
// row sum for the residual, the off-diagonal sum for the update — so
// both carry the bits a separate pass would compute; the norm is a
// maximum, which no chunking reorders. xZero promises x = 0: the update
// is then b_i/a_ii (every product a_ij·0 is ±0 and their sum exactly +0
// for finite A) and the residual is not computed.
func (s *System) rowPass(workers int, x, next []float64, xZero bool) (resid float64, skipped int) {
	workers = max(workers, 1)
	worst := make([]float64, workers)
	skip := make([]int, workers)
	parallelRows(s.A.Rows(), workers, func(c, lo, hi int) {
		w, sk := 0.0, 0 // chunk-local: the shared slices are written once
		for i := lo; i < hi; i++ {
			diag, sum, full := 0.0, 0.0, 0.0
			if xZero {
				diag = s.A.Diag(i)
			} else {
				diag, sum, full = s.A.RowDot(i, x)
				if d := math.Abs(full - s.B[i]); d > w {
					w = d
				}
			}
			switch {
			case diag == 0:
				sk++
				if next != nil {
					next[i] = x[i]
				}
			case next != nil:
				next[i] = (s.B[i] - sum) / diag
			}
		}
		worst[c], skip[c] = w, sk
	})
	for c := range worst {
		resid = max(resid, worst[c])
		skipped += skip[c]
	}
	return resid, skipped
}

// GaussSeidel runs `sweeps` sequential Gauss–Seidel iterations: the row
// pass on one goroutine updating x in place, so every row sees the rows
// above it already updated. It typically converges in fewer sweeps than
// Jacobi but cannot be parallelized across rows; the models ablation
// quantifies the tradeoff.
func (s *System) GaussSeidel(sweeps int, x0 []float64) ([]float64, Report, error) {
	x, err := s.start(sweeps, x0)
	if err != nil {
		return nil, Report{}, err
	}
	rep := Report{}
	for sweep := 0; sweep < sweeps; sweep++ {
		_, rep.SkippedRows = s.rowPass(1, x, x, false)
		rep.Sweeps++
		rep.Residuals = append(rep.Residuals, s.ResidualInf(x, 1))
	}
	return x, rep, nil
}

// ResidualInf returns ‖Ax − b‖∞ (+Inf if x is not a vector of the
// system), computed by `workers` goroutines.
func (s *System) ResidualInf(x []float64, workers int) float64 {
	if len(x) != s.A.Cols() {
		return math.Inf(1)
	}
	resid, _ := s.rowPass(workers, x, nil, false)
	return resid
}

// parallelRows splits [0, n) into at most `workers` contiguous chunks and
// runs fn(chunk number, lo, hi) on each concurrently.
func parallelRows(n, workers int, fn func(c, lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+chunk {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, min(lo+chunk, n))
	}
	wg.Wait()
}
