package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cloudwalker/internal/binfmt"
)

// Matrix binary format: magic, version, rows, cols, then per row a length
// prefix followed by the index and value arrays. Little-endian. The
// offline stage's Monte Carlo system costs hours at the paper's scale
// while the Jacobi solve costs seconds; persisting A lets the solver be
// re-run (different L, different right-hand side) without re-walking.
const (
	matrixMagic   = 0x43575359 // "CWSY"
	matrixVersion = 1
)

// WriteMatrix serializes m.
func WriteMatrix(w io.Writer, m *Matrix) error {
	header := []uint64{matrixMagic, matrixVersion, uint64(m.Rows()), uint64(m.Cols())}
	arrays := make([]any, 0, 3*m.Rows())
	for _, row := range m.rows {
		arrays = append(arrays, uint32(row.NNZ()), row.Idx, row.Val)
	}
	if err := binfmt.Write(w, header, arrays...); err != nil {
		return fmt.Errorf("sparse: writing matrix: %v", err)
	}
	return nil
}

// ReadMatrix deserializes a matrix written by WriteMatrix and validates it.
// Its dimensions are node counts, bounded by the int32 node ids.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var dims [2]uint64
	if _, err := binfmt.ReadHeader(br, matrixMagic, matrixVersion, dims[:]); err != nil {
		return nil, fmt.Errorf("sparse: matrix: %v", err)
	}
	if dims[0] > math.MaxInt32 || dims[1] > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: matrix dimensions %d×%d exceed %d", dims[0], dims[1], math.MaxInt32)
	}
	rows, cols := int(dims[0]), int(dims[1])
	// Rows are appended, and each row's arrays grow, as their bytes
	// arrive: a header or row word that claims more than the input holds
	// fails on the short read, not on the allocation it asked for.
	m := &Matrix{rows: make([]Vector, 0, min(rows, 1<<16)), cols: cols}
	for i := 0; i < rows; i++ {
		var nnz uint32
		if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: reading row %d: %v", i, err)
		}
		if int(nnz) > cols {
			return nil, fmt.Errorf("sparse: row %d claims %d entries in %d columns", i, nnz, cols)
		}
		idx, err := binfmt.ReadValues[int32](br, int(nnz))
		if err != nil {
			return nil, fmt.Errorf("sparse: reading row %d indices: %v", i, err)
		}
		val, err := binfmt.ReadValues[float64](br, int(nnz))
		if err != nil {
			return nil, fmt.Errorf("sparse: reading row %d values: %v", i, err)
		}
		m.rows = append(m.rows, Vector{Idx: idx, Val: val})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
