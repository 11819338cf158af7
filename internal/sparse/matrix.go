package sparse

import "fmt"

// Matrix is a float64 sparse matrix stored row by row. It backs the
// linear system A x = 1 of the offline indexing stage: row i is the
// Monte-Carlo-estimated a_i. Rows may be set concurrently, one writer per
// row: a row's storage is its own vector (SetRow) or its own stretch of
// a RowWriter's slab.
type Matrix struct {
	rows []Vector
	cols int
}

// NewMatrix returns an empty rows×cols matrix (all rows empty).
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: make([]Vector, rows), cols: cols}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i. The caller must not mutate it.
func (m *Matrix) Row(i int) *Vector { return &m.rows[i] }

// SetRow installs v's storage as row i. Concurrency-safe for distinct i.
func (m *Matrix) SetRow(i int, v *Vector) { m.rows[i] = *v }

// slabEntries caps a RowWriter slab at 1.5 MB. Any size far above a row
// keeps allocations per row and each slab's unused tail negligible.
const slabEntries = 1 << 17

// RowWriter carves the rows one goroutine builds out of large shared
// slabs, so a build allocates per slab instead of three objects per row
// and the rows lie contiguous in memory for the solver's passes.
type RowWriter struct {
	m   *Matrix
	idx []int32
	val []float64
	row Vector
}

// Writer returns a new row writer for m; use one per goroutine.
func (m *Matrix) Writer() *RowWriter { return &RowWriter{m: m} }

// Begin returns an empty row over the free tail of the writer's slab:
// append at most bound entries to it, then call End. Slabs double up to
// slabEntries, so a small matrix does not pay for a full one.
func (w *RowWriter) Begin(bound int) *Vector {
	if cap(w.idx)-len(w.idx) < bound {
		size := max(bound, min(2*cap(w.idx), slabEntries))
		w.idx = make([]int32, 0, size)
		w.val = make([]float64, 0, size)
	}
	w.row = Vector{Idx: w.idx[len(w.idx):], Val: w.val[len(w.val):]}
	return &w.row
}

// End installs the row Begin returned as row i of the matrix.
func (w *RowWriter) End(i int) {
	n := len(w.row.Idx)
	w.idx = w.idx[:len(w.idx)+n]
	w.val = w.val[:len(w.val)+n]
	w.m.rows[i] = Vector{Idx: w.row.Idx[:n:n], Val: w.row.Val[:n:n]}
}

// NNZ returns the total number of stored entries.
func (m *Matrix) NNZ() int {
	total := 0
	for i := range m.rows {
		total += m.rows[i].NNZ()
	}
	return total
}

// MulVec computes y = M x for dense x. It is a test reference for the
// solvers' residuals; the solvers themselves read rows through RowDot.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("sparse: MulVec dimension mismatch: %d cols, %d vector", m.cols, len(x))
	}
	y := make([]float64, len(m.rows))
	for i := range m.rows {
		r := &m.rows[i]
		s := 0.0
		for k, j := range r.Idx {
			s += r.Val[k] * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Diag returns entry (i, i), 0 when row i stores none.
func (m *Matrix) Diag(i int) float64 { return m.rows[i].Get(i) }

// RowDot is the solver's one read of row i: the stored diagonal entry,
// and the products a_ij·x_j summed in index order twice — without the
// diagonal term (a Jacobi update's sum) and with it (the residual's), so
// each carries the bits a pass of its own would compute.
func (m *Matrix) RowDot(i int, x []float64) (diag, off, full float64) {
	row := &m.rows[i]
	for k, j := range row.Idx {
		// Rounded here, so no platform fuses it into a sum.
		p := float64(row.Val[k] * x[j])
		full += p
		if int(j) == i {
			diag = row.Val[k]
			continue
		}
		off += p
	}
	return diag, off, full
}

// Validate checks every row.
func (m *Matrix) Validate() error {
	for i := range m.rows {
		r := &m.rows[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("row %d: %v", i, err)
		}
		if n := r.NNZ(); n > 0 && int(r.Idx[n-1]) >= m.cols {
			return fmt.Errorf("row %d: index %d out of %d columns", i, r.Idx[n-1], m.cols)
		}
	}
	return nil
}
