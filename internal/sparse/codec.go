package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"cloudwalker/internal/graph"
)

// Matrix binary format: magic, version, rows, cols, then per row a length
// prefix followed by the index and value arrays. Little-endian. The
// offline stage's Monte Carlo system costs hours at the paper's scale
// while the Jacobi solve costs seconds; persisting A lets the solver be
// re-run (different L, different right-hand side) without re-walking.
const (
	matrixMagic   = 0x43575359 // "CWSY"
	matrixVersion = 1
	// maxMatrixDim bounds the dimensions a header may claim (the row
	// nnz fields are bounded by cols afterwards).
	maxMatrixDim = 1 << 24
)

// WriteMatrix serializes m.
func WriteMatrix(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	header := []uint64{matrixMagic, matrixVersion, uint64(m.Rows()), uint64(m.Cols())}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("sparse: writing matrix header: %v", err)
		}
	}
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		if err := binary.Write(bw, binary.LittleEndian, uint32(row.NNZ())); err != nil {
			return fmt.Errorf("sparse: writing row %d: %v", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, row.Idx); err != nil {
			return fmt.Errorf("sparse: writing row %d indices: %v", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, row.Val); err != nil {
			return fmt.Errorf("sparse: writing row %d values: %v", i, err)
		}
	}
	return bw.Flush()
}

// ReadMatrix deserializes a matrix written by WriteMatrix and validates it.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var header [4]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("sparse: reading matrix header: %v", err)
		}
	}
	if header[0] != matrixMagic {
		return nil, fmt.Errorf("sparse: bad matrix magic %#x", header[0])
	}
	if header[1] != matrixVersion {
		return nil, fmt.Errorf("sparse: unsupported matrix version %d", header[1])
	}
	if header[2] > maxMatrixDim || header[3] > maxMatrixDim {
		return nil, fmt.Errorf("sparse: implausible matrix dimensions %d×%d", header[2], header[3])
	}
	rows, cols := int(header[2]), int(header[3])
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
		idx, err := graph.ReadValues[int32](br, int(nnz))
		if err != nil {
			return nil, fmt.Errorf("sparse: reading row %d indices: %v", i, err)
		}
		val, err := graph.ReadValues[float64](br, int(nnz))
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
