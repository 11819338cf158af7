package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

func vec(pairs ...float64) *Vector {
	v := &Vector{}
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Idx = append(v.Idx, int32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorGetSum(t *testing.T) {
	v := vec(1, 2.5, 4, -1, 9, 0.5)
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d", v.NNZ())
	}
	if v.Get(4) != -1 || v.Get(0) != 0 || v.Get(9) != 0.5 {
		t.Fatal("Get wrong")
	}
	if !approx(v.Sum(), 2.0, 1e-12) {
		t.Fatalf("Sum = %g", v.Sum())
	}
}

func TestWeightedDot(t *testing.T) {
	a := vec(0, 0.5, 3, 0.5)
	b := vec(0, 0.25, 3, 0.75)
	w := []float64{2, 0, 0, 4}
	want := 0.5*2*0.25 + 0.5*4*0.75
	if got := WeightedDot(a, b, w); !approx(got, want, 1e-12) {
		t.Fatalf("WeightedDot = %g, want %g", got, want)
	}
}

func TestHadamardAndSquare(t *testing.T) {
	a := vec(1, 2, 3, 3)
	sq := a.SquareValues()
	if sq.Get(1) != 4 || sq.Get(3) != 9 {
		t.Fatalf("SquareValues = %+v", sq)
	}
	// original untouched
	if a.Get(1) != 2 {
		t.Fatal("SquareValues mutated receiver")
	}
}

func TestAddScaled(t *testing.T) {
	a := vec(0, 1, 2, 1)
	b := vec(1, 1, 2, 3)
	c := AddScaled(a, 2, b)
	if c.Get(0) != 1 || c.Get(1) != 2 || c.Get(2) != 7 {
		t.Fatalf("AddScaled = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDenseRoundtrip(t *testing.T) {
	v := vec(0, 1, 3, -2)
	d := v.Dense(5)
	if d[0] != 1 || d[3] != -2 || d[1] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

func TestUnit(t *testing.T) {
	e := Unit(7)
	if e.NNZ() != 1 || e.Get(7) != 1 || e.Sum() != 1 {
		t.Fatalf("Unit = %+v", e)
	}
}

func TestValidate(t *testing.T) {
	bad := &Vector{Idx: []int32{3, 1}, Val: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Fatal("unsorted vector validated")
	}
	bad2 := &Vector{Idx: []int32{1}, Val: []float64{1, 2}}
	if bad2.Validate() == nil {
		t.Fatal("ragged vector validated")
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator()
	acc.Add(5, 1)
	acc.Add(2, 3)
	acc.Add(5, 2)
	acc.Add(9, 1)
	acc.Add(9, -1) // cancels to zero, dropped
	v := acc.ToVector()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 || v.Get(5) != 3 || v.Get(2) != 3 {
		t.Fatalf("accumulated %+v", v)
	}
}

// ---- Transition operator ----

// diamond: 0->1, 0->2, 1->3, 2->3. In(1)={0}, In(2)={0}, In(3)={1,2}.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestTransitionApply(t *testing.T) {
	p := NewTransition(diamond(t))
	// P e_3: mass splits over In(3) = {1, 2}.
	y := p.Apply(Unit(3))
	if y.NNZ() != 2 || !approx(y.Get(1), 0.5, 1e-12) || !approx(y.Get(2), 0.5, 1e-12) {
		t.Fatalf("P e_3 = %+v", y)
	}
	// P e_0: node 0 has no in-links; mass vanishes.
	if y := p.Apply(Unit(0)); y.NNZ() != 0 {
		t.Fatalf("P e_0 = %+v, want empty", y)
	}
	// Two steps from 3: all mass at 0.
	y2 := p.Apply(p.Apply(Unit(3)))
	if y2.NNZ() != 1 || !approx(y2.Get(0), 1.0, 1e-12) {
		t.Fatalf("P^2 e_3 = %+v", y2)
	}
}

func TestTransitionColumnStochastic(t *testing.T) {
	// For any node with in-links, column sums to 1: sum(P e_i) == 1.
	g, err := gen.ErdosRenyi(60, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := NewTransition(g)
	for i := 0; i < g.NumNodes(); i++ {
		s := p.Apply(Unit(i)).Sum()
		want := 1.0
		if g.InDegree(i) == 0 {
			want = 0
		}
		if !approx(s, want, 1e-9) {
			t.Fatalf("column %d sums to %g, want %g", i, s, want)
		}
	}
}

func TestPowerUnit(t *testing.T) {
	p := NewTransition(diamond(t))
	dists := p.PowerUnit(3, 3)
	if len(dists) != 4 {
		t.Fatalf("PowerUnit returned %d dists", len(dists))
	}
	if dists[0].Get(3) != 1 {
		t.Fatal("t=0 should be e_i")
	}
	if !approx(dists[1].Get(1), 0.5, 1e-12) {
		t.Fatal("t=1 wrong")
	}
	if !approx(dists[2].Get(0), 1, 1e-12) {
		t.Fatal("t=2 wrong")
	}
	if dists[3].NNZ() != 0 {
		t.Fatal("t=3 should be empty (0 has no in-links)")
	}
}

// ---- Matrix ----

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	m.SetRow(0, vec(0, 1, 2, 2))
	m.SetRow(1, vec(1, 3))
	m.SetRow(2, vec(2, -1, 3, 5))
	if m.Rows() != 3 || m.Cols() != 4 || m.NNZ() != 5 {
		t.Fatalf("dims wrong: %d %d %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	y, err := m.MulVec([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1*1 + 2*3, 3 * 2, -1*3 + 5*4}
	for i := range want {
		if !approx(y[i], want[i], 1e-12) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	if d := []float64{m.Diag(0), m.Diag(1), m.Diag(2)}; d[0] != 1 || d[1] != 3 || d[2] != -1 {
		t.Fatalf("Diag = %v", d)
	}
}

// TestMatrixRowWriter: rows carved out of writers' slabs read back
// exactly as written, NNZ counts entries stored (a row's length, never
// the capacity it was offered), a row's storage ends where
// the next row's begins, and slabs roll over without losing a row.
func TestMatrixRowWriter(t *testing.T) {
	const n = 3000
	m, twin := NewMatrix(n, n), NewMatrix(n, n)
	writers := []*RowWriter{m.Writer(), m.Writer()}
	src := xrand.New(9)
	nnz := 0
	for i := 0; i < n; i++ {
		w := writers[src.Intn(2)]
		bound := 1 + src.Intn(200) // ~75k entries per writer: ten doubling slabs each
		row := w.Begin(bound)
		if len(row.Idx) != 0 || cap(row.Idx) < bound || cap(row.Val) < bound {
			t.Fatalf("row %d: Begin(%d) gave len %d cap %d/%d", i, bound, len(row.Idx), cap(row.Idx), cap(row.Val))
		}
		want := &Vector{}
		for j := i % 7; j < n && len(want.Idx) < bound/2; j += 1 + src.Intn(40) {
			row.Idx = append(row.Idx, int32(j))
			row.Val = append(row.Val, src.Float64())
			want.Idx = append(want.Idx, int32(j))
			want.Val = append(want.Val, row.Val[len(row.Val)-1])
		}
		w.End(i)
		twin.SetRow(i, want)
		nnz += len(want.Idx)
	}
	if m.NNZ() != nnz {
		t.Fatalf("NNZ %d, want %d", m.NNZ(), nnz)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, want := m.Row(i), twin.Row(i)
		if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("row %d read back differently", i)
		}
		if cap(got.Idx) != len(got.Idx) || cap(got.Val) != len(got.Val) {
			t.Fatalf("row %d can grow into its neighbour: len %d cap %d", i, len(got.Idx), cap(got.Idx))
		}
	}
}

func TestMatrixMulVecDimMismatch(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.MulVec([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestMatrixValidateOutOfRange(t *testing.T) {
	m := NewMatrix(1, 2)
	m.SetRow(0, vec(5, 1))
	if m.Validate() == nil {
		t.Fatal("out-of-range column validated")
	}
}

func TestMatrixCodecRoundtrip(t *testing.T) {
	src := xrand.New(3)
	m := NewMatrix(20, 25)
	for i := 0; i < 20; i++ {
		acc := NewAccumulator()
		for k := 0; k < src.Intn(8); k++ {
			acc.Add(int32(src.Intn(25)), src.Float64()*2-1)
		}
		m.SetRow(i, acc.ToVector())
	}
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 20 || got.Cols() != 25 || got.NNZ() != m.NNZ() {
		t.Fatalf("dims changed: %d/%d/%d", got.Rows(), got.Cols(), got.NNZ())
	}
	for i := 0; i < 20; i++ {
		a, b := m.Row(i), got.Row(i)
		if a.NNZ() != b.NNZ() {
			t.Fatalf("row %d nnz changed", i)
		}
		for k := range a.Idx {
			if a.Idx[k] != b.Idx[k] || a.Val[k] != b.Val[k] {
				t.Fatalf("row %d entry %d changed", i, k)
			}
		}
	}
}

func TestMatrixCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadMatrix(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 32))
	if _, err := ReadMatrix(&buf); err == nil {
		t.Fatal("zero header accepted")
	}
}

// TestMatrixCodecHugeHeader: a header claiming the largest dimensions,
// or a first row claiming every column, without the bytes to back them
// fails with an error, not after allocating what it claims.
func TestMatrixCodecHugeHeader(t *testing.T) {
	header := func(rows, cols uint64, nnz ...uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, matrixMagic)
		b = binary.LittleEndian.AppendUint64(b, matrixVersion)
		b = binary.LittleEndian.AppendUint64(b, rows)
		b = binary.LittleEndian.AppendUint64(b, cols)
		for _, k := range nnz {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
		return b
	}
	for _, in := range [][]byte{
		header(math.MaxInt32, math.MaxInt32),
		header(math.MaxInt32, math.MaxInt32, math.MaxInt32),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMatrix(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew >= 64<<20 {
			t.Errorf("input %x: err %v, allocated %d MB", in, err, grew>>20)
		}
	}
}

// TestMatrixCodecWideSystem: a system over more than 2^24 nodes, the
// width an indexing system of a graph that large has, loads back. Its
// dimensions are node counts, bounded by the int32 node ids as a graph's
// are.
func TestMatrixCodecWideSystem(t *testing.T) {
	const cols = 1<<24 + 1
	m := NewMatrix(2, cols)
	m.SetRow(1, vec(cols-1, 0.25))
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 || got.Cols() != cols || got.Row(1).Get(cols-1) != 0.25 {
		t.Fatalf("got %d×%d, entry (1, %d) = %v", got.Rows(), got.Cols(), cols-1, got.Row(1).Get(cols-1))
	}
}

func TestMatrixCodecEmptyMatrix(t *testing.T) {
	m := NewMatrix(0, 0)
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 0 {
		t.Fatal("empty matrix roundtrip failed")
	}
}

func TestClamp01AndPin(t *testing.T) {
	v := &Vector{Idx: []int32{1, 4, 9}, Val: []float64{-0.5, 0.25, 1.5}}
	v.Clamp01()
	if v.Val[0] != 0 || v.Val[1] != 0.25 || v.Val[2] != 1 {
		t.Fatalf("Clamp01 = %v, want [0 0.25 1]", v.Val)
	}
	// Pin overwrites a present entry and inserts an absent one in order
	// (front, middle, back).
	v.Pin(4)
	for _, q := range []int{0, 6, 12} {
		v.Pin(q)
	}
	wantIdx := []int32{0, 1, 4, 6, 9, 12}
	wantVal := []float64{1, 0, 1, 1, 1, 1}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := range wantIdx {
		if len(v.Idx) != len(wantIdx) || v.Idx[k] != wantIdx[k] || v.Val[k] != wantVal[k] {
			t.Fatalf("after pins: %v %v, want %v %v", v.Idx, v.Val, wantIdx, wantVal)
		}
	}
}
