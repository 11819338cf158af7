package core

import (
	"fmt"
	"math"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/par"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
)

// Index is CloudWalker's offline artifact: the estimated correction
// diagonal x (D = diag(x)) plus the options it was built with.
type Index struct {
	Diag []float64
	Opts Options
}

// IndexReport describes the offline build: system sparsity and size, the
// Jacobi residual after each sweep (the convergence figure's x-axis), and
// the number of rows the solver skipped for a zero diagonal (their Diag
// entry is 0, not a solution; a built system has none).
type IndexReport struct {
	Rows int
	// SystemNNZ counts A's nonzero entries: a built system stores no
	// entry whose deposits are all worth 0.
	SystemNNZ int
	// SystemBytes is what a built system holds — coded rows, row table,
	// diagonal, value table; 0 for a system solved from a float matrix.
	SystemBytes     int64
	JacobiResiduals []float64
	SkippedRows     int
}

// System is the indexing system A as SolveIndex reads it: the coded rows
// BuildSystem returns, or a float matrix assembled row by row (the
// distributed engines) or loaded from a file.
type System interface {
	linsys.Matrix
	NNZ() int
}

// BuildRowWith estimates row a_i = Σ_{t=0}^{T} c^t (P^t e_i) ∘ (P^t e_i)
// of the indexing linear system with R Monte Carlo walkers, against a
// reusable per-worker estimator. The t = 0 term contributes exactly 1 at
// the diagonal. Exposed so the distributed engines (internal/dist) can
// ship single-row tasks to simulated workers. The output is identical to
// row i of BuildSystem decoded to floats: walker w of row i draws from
// stream opts.Seed/(i·R+w), so a row's value does not depend on which
// worker — or which simulated machine — computes it.
func BuildRowWith(est *walk.RowEstimator, i int, opts Options) *sparse.Vector {
	out := &sparse.Vector{}
	est.EstimateRowInto(i, opts.T, opts.C, opts.Seed, out)
	return out
}

// BuildSystem estimates every row of the linear system A x = 1 in
// parallel; rows are independent, which is the paper's key scalability
// claim for the offline stage. A row stays the integers the walk counted
// (walk.RowSystem: one word per nonzero deposit, floats only as the
// solver multiplies them). All per-row state — including the per-walker
// RNG substreams — lives in the per-worker writer and is reseeded in
// place. Workers claim runs of up to runRows rows, so uneven rows still
// balance, and each run lands in one slab of exactly its words, so the
// row loop allocates per run, not per row, and the system's Bytes do not
// depend on which worker took which run.
func BuildSystem(g *graph.Graph, opts Options) (*walk.RowSystem, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	a := walk.NewRowSystem(g, opts.T, opts.R, opts.C)
	n, workers := g.NumNodes(), opts.NumWorkers()
	// At least four runs a worker, so a small graph still spreads.
	run := max(1, min(runRows, n/(4*workers)))
	par.For((n+run-1)/run, workers, func() func(int) error {
		rows := a.Writer()
		return func(r int) error {
			rows.Add(r*run, min(n, (r+1)*run), opts.Seed)
			return nil
		}
	})
	return a, nil
}

// runRows is the longest run of rows a BuildSystem worker claims at once:
// a slab, and so one allocation, per run, while a 20k-row system still
// splits into ~40 claims.
const runRows = 512

// BuildIndex runs the full offline stage: Monte Carlo row estimation
// followed by L parallel Jacobi sweeps on A x = 1.
func BuildIndex(g *graph.Graph, opts Options) (*Index, *IndexReport, error) {
	a, err := BuildSystem(g, opts)
	if err != nil {
		return nil, nil, err
	}
	return SolveIndex(g, a, opts)
}

// SolveIndex runs only the Jacobi stage on a prebuilt system. Split out so
// the distributed engines can reuse it after assembling A remotely.
func SolveIndex(g *graph.Graph, a System, opts Options) (*Index, *IndexReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	n := g.NumNodes()
	if a.Rows() != n {
		return nil, nil, fmt.Errorf("core: system has %d rows for %d nodes", a.Rows(), n)
	}
	sys, err := linsys.NewSystem(a, linsys.Ones(n))
	if err != nil {
		return nil, nil, err
	}
	x, rep, err := sys.Jacobi(opts.L, opts.NumWorkers(), nil)
	if err != nil {
		return nil, nil, err
	}
	ClampDiag(x)
	idx := &Index{Diag: x, Opts: opts}
	report := &IndexReport{
		Rows:            n,
		SystemNNZ:       a.NNZ(),
		JacobiResiduals: rep.Residuals,
		SkippedRows:     rep.SkippedRows,
	}
	if built, ok := a.(*walk.RowSystem); ok {
		report.SystemBytes = built.Bytes()
	}
	return idx, report, nil
}

// ClampDiag clamps a solved diagonal into [0,1] in place. The true
// correction diagonal lies in (1-c, 1]; Monte Carlo noise can push the
// estimate slightly out, which would bias queries. NaNs (a non-finite
// system entry) become 1, the dangling-node value; rows the solver
// skipped for a zero diagonal stay 0 and are counted in
// IndexReport.SkippedRows.
func ClampDiag(x []float64) {
	for i := range x {
		if x[i] > 1 {
			x[i] = 1
		}
		if x[i] < 0 {
			x[i] = 0
		}
		if math.IsNaN(x[i]) {
			x[i] = 1
		}
	}
}

// Validate checks that the index matches graph g.
func (ix *Index) Validate(g *graph.Graph) error {
	if len(ix.Diag) != g.NumNodes() {
		return fmt.Errorf("core: index has %d diagonal entries for %d nodes",
			len(ix.Diag), g.NumNodes())
	}
	for i, v := range ix.Diag {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("core: diagonal entry %d = %g outside [0,1]", i, v)
		}
	}
	return ix.Opts.Validate()
}
