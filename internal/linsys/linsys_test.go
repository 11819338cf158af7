package linsys

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// rowVec builds a sparse row from (index, value) pairs.
func rowVec(pairs ...float64) *sparse.Vector {
	v := &sparse.Vector{}
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Idx = append(v.Idx, int32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

// floats returns the float matrix a test system was built over.
func floats(s *System) *sparse.Matrix { return s.A.(*sparse.Matrix) }

// diagDominant builds a random strictly diagonally dominant system and the
// vector xTrue, returning (system, xTrue).
func diagDominant(n int, seed uint64) (*System, []float64) {
	src := xrand.New(seed)
	a := sparse.NewMatrix(n, n)
	xTrue := make([]float64, n)
	for i := 0; i < n; i++ {
		xTrue[i] = src.Float64()*2 - 1
	}
	for i := 0; i < n; i++ {
		acc := sparse.NewAccumulator()
		offSum := 0.0
		for k := 0; k < 4; k++ {
			j := src.Intn(n)
			if j == i {
				continue
			}
			v := src.Float64() - 0.5
			acc.Add(int32(j), v)
			offSum += math.Abs(v)
		}
		acc.Add(int32(i), offSum+1+src.Float64())
		a.SetRow(i, acc.ToVector())
	}
	b, _ := a.MulVec(xTrue)
	sys, _ := NewSystem(a, b)
	return sys, xTrue
}

func TestNewSystemValidation(t *testing.T) {
	a := sparse.NewMatrix(2, 3)
	if _, err := NewSystem(a, []float64{1, 2}); err == nil {
		t.Fatal("non-square system accepted")
	}
	sq := sparse.NewMatrix(2, 2)
	if _, err := NewSystem(sq, []float64{1}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}

func TestOnes(t *testing.T) {
	b := Ones(3)
	if len(b) != 3 || b[0] != 1 || b[2] != 1 {
		t.Fatalf("Ones = %v", b)
	}
}

func TestJacobiSolvesDiagonalSystem(t *testing.T) {
	a := sparse.NewMatrix(3, 3)
	a.SetRow(0, rowVec(0, 2))
	a.SetRow(1, rowVec(1, 4))
	a.SetRow(2, rowVec(2, 8))
	sys, err := NewSystem(a, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	x, rep, err := sys.Jacobi(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	if rep.Sweeps != 1 || rep.FinalResidual() > 1e-12 {
		t.Fatalf("report %+v", rep)
	}
}

func TestJacobiConvergesOnDominantSystem(t *testing.T) {
	sys, xTrue := diagDominant(200, 3)
	x, rep, err := sys.Jacobi(50, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g (residual %g)", i, x[i], xTrue[i], rep.FinalResidual())
		}
	}
	// Residuals should be (weakly) decreasing overall.
	if rep.Residuals[len(rep.Residuals)-1] > rep.Residuals[0] {
		t.Fatalf("residuals did not decrease: %v", rep.Residuals[:3])
	}
}

func TestGaussSeidelConvergesFasterThanJacobi(t *testing.T) {
	sys, _ := diagDominant(150, 7)
	_, jrep, err := sys.Jacobi(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, grep, err := sys.GaussSeidel(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grep.FinalResidual() > jrep.FinalResidual()*1.5 {
		t.Fatalf("Gauss-Seidel residual %g not competitive with Jacobi %g",
			grep.FinalResidual(), jrep.FinalResidual())
	}
}

func TestJacobiZeroDiagonalRowKept(t *testing.T) {
	a := sparse.NewMatrix(2, 2)
	a.SetRow(0, rowVec(0, 2))
	a.SetRow(1, rowVec(0, 1)) // no diagonal entry
	sys, err := NewSystem(a, []float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{0, 7}
	x, rep, err := sys.Jacobi(3, 1, x0)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("x[0] = %g, want 2", x[0])
	}
	if x[1] != 7 {
		t.Fatalf("zero-diagonal row changed: x[1] = %g, want 7", x[1])
	}
	if rep.SkippedRows != 1 {
		t.Fatalf("SkippedRows = %d, want 1", rep.SkippedRows)
	}
}

// jacobiSerial is the solve as it ran before the fused pass — a serial
// update loop per sweep, then ‖Ax − b‖∞ from a MulVec — kept as the
// bit-exactness reference for Jacobi.
func jacobiSerial(s *System, sweeps int, x0 []float64) (x, resid []float64) {
	n := s.A.Rows()
	x = make([]float64, n)
	copy(x, x0)
	next := make([]float64, n)
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < n; i++ {
			row := floats(s).Row(i)
			diag, sum := 0.0, 0.0
			for k, j := range row.Idx {
				if int(j) == i {
					diag = row.Val[k]
					continue
				}
				sum += row.Val[k] * x[j]
			}
			if diag == 0 {
				next[i] = x[i]
				continue
			}
			next[i] = (s.B[i] - sum) / diag
		}
		x, next = next, x
		ax, _ := floats(s).MulVec(x)
		worst := 0.0
		for i := range ax {
			if d := math.Abs(ax[i] - s.B[i]); d > worst {
				worst = d
			}
		}
		resid = append(resid, worst)
	}
	return x, resid
}

// TestJacobiMatchesSerialReferenceBitExact: the fused parallel solve must
// return the serial reference's x and residual history bit for bit at
// every worker count and sweep count, from the zero vector (the
// diagonal-only first sweep) and from a given x0, on a real SimRank
// system that also has a row without a diagonal and an empty row, and on
// one too small to split (n < 2·workers). Runs under -race in CI.
func TestJacobiMatchesSerialReferenceBitExact(t *testing.T) {
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, 29)
	if err != nil {
		t.Fatal(err)
	}
	big := simrankSystem(t, g, 0.6, 6)
	floats(big).SetRow(17, rowVec(3, 0.25, 90, -0.5)) // no diagonal entry
	floats(big).SetRow(101, &sparse.Vector{})
	small, _ := diagDominant(5, 3)
	for name, sys := range map[string]*System{"rmat": big, "small": small} {
		n := sys.A.Rows()
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = float64(i%7)/7 - 0.25
		}
		wantSkipped := 0
		for i := 0; i < n; i++ {
			if sys.A.Diag(i) == 0 {
				wantSkipped++
			}
		}
		for _, start := range [][]float64{nil, x0} {
			for _, sweeps := range []int{0, 1, 2, 5} {
				wantX, wantR := jacobiSerial(sys, sweeps, start)
				for _, workers := range []int{1, 2, 3, 7} {
					x, rep, err := sys.Jacobi(sweeps, workers, start)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s x0=%v sweeps=%d workers=%d", name, start != nil, sweeps, workers)
					if !sameBits(x, wantX) {
						t.Fatalf("%s: x differs from the serial reference", label)
					}
					if !sameBits(rep.Residuals, wantR) {
						t.Fatalf("%s: residuals %v, reference %v", label, rep.Residuals, wantR)
					}
					if sweeps > 0 && rep.SkippedRows != wantSkipped {
						t.Fatalf("%s: SkippedRows = %d, want %d", label, rep.SkippedRows, wantSkipped)
					}
					if sweeps > 0 && sys.ResidualInf(x, workers) != rep.FinalResidual() {
						t.Fatalf("%s: ResidualInf disagrees with the last reported residual", label)
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// denseRows is a second, hand-built linsys.Matrix: a dense square array
// whose zeros are the entries a sparse row would not store.
type denseRows [][]float64

func (d denseRows) Rows() int          { return len(d) }
func (d denseRows) Cols() int          { return len(d) }
func (d denseRows) Diag(i int) float64 { return d[i][i] }
func (d denseRows) RowDot(i int, x []float64) (diag, off, full float64) {
	for j, a := range d[i] {
		if a == 0 {
			continue
		}
		p := float64(a * x[j])
		full += p
		if j == i {
			diag = a
			continue
		}
		off += p
	}
	return diag, off, full
}

// TestSolversReadAnyRowSource: Jacobi, Gauss–Seidel and ResidualInf see A
// only through linsys.Matrix, so a dense copy of a sparse system — a
// missing diagonal and an empty row included — solves to the same bits.
func TestSolversReadAnyRowSource(t *testing.T) {
	sys, _ := diagDominant(9, 4)
	a := floats(sys)
	a.SetRow(2, rowVec(0, 0.5, 7, -0.25)) // no diagonal entry
	a.SetRow(5, &sparse.Vector{})
	dense := make(denseRows, a.Rows())
	for i := range dense {
		dense[i] = a.Row(i).Dense(a.Cols())
	}
	twin, err := NewSystem(dense, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{0.3, -1, 0.5, 0, 2, 0.25, -0.5, 1, 0.125}
	for _, start := range [][]float64{nil, x0} {
		for _, workers := range []int{1, 3} {
			wantX, wantRep, _ := sys.Jacobi(4, workers, start)
			gotX, gotRep, err := twin.Jacobi(4, workers, start)
			if err != nil || !slices.Equal(gotX, wantX) || !slices.Equal(gotRep.Residuals, wantRep.Residuals) || gotRep.SkippedRows != wantRep.SkippedRows {
				t.Fatalf("Jacobi over dense rows: x %v report %+v (err %v), sparse x %v report %+v", gotX, gotRep, err, wantX, wantRep)
			}
		}
		wantX, wantRep, _ := sys.GaussSeidel(4, start)
		gotX, gotRep, err := twin.GaussSeidel(4, start)
		if err != nil || !slices.Equal(gotX, wantX) || !slices.Equal(gotRep.Residuals, wantRep.Residuals) || gotRep.SkippedRows != wantRep.SkippedRows {
			t.Fatalf("Gauss–Seidel over dense rows: x %v report %+v (err %v), sparse x %v report %+v", gotX, gotRep, err, wantX, wantRep)
		}
	}
	if got, want := twin.ResidualInf(x0, 2), sys.ResidualInf(x0, 2); got != want {
		t.Fatalf("ResidualInf over dense rows %g, sparse %g", got, want)
	}
}

func TestJacobiInputValidation(t *testing.T) {
	sys, _ := diagDominant(10, 1)
	if _, _, err := sys.Jacobi(-1, 1, nil); err == nil {
		t.Fatal("negative sweeps accepted")
	}
	if _, _, err := sys.Jacobi(1, 1, make([]float64, 3)); err == nil {
		t.Fatal("wrong x0 length accepted")
	}
	if _, _, err := sys.GaussSeidel(-1, nil); err == nil {
		t.Fatal("negative sweeps accepted (GS)")
	}
	if _, _, err := sys.GaussSeidel(1, make([]float64, 3)); err == nil {
		t.Fatal("wrong x0 length accepted (GS)")
	}
}

func TestJacobiWorkerCountInvariance(t *testing.T) {
	sys, _ := diagDominant(100, 11)
	x1, _, err := sys.Jacobi(10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	x8, _, err := sys.Jacobi(10, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x8[i] {
			t.Fatalf("worker count changed result at %d: %g vs %g", i, x1[i], x8[i])
		}
	}
}

func TestZeroSweepsReturnsX0(t *testing.T) {
	sys, _ := diagDominant(10, 13)
	x0 := make([]float64, 10)
	for i := range x0 {
		x0[i] = float64(i)
	}
	x, rep, err := sys.Jacobi(0, 2, x0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweeps != 0 || !math.IsInf(rep.FinalResidual(), 1) {
		t.Fatalf("report %+v", rep)
	}
	for i := range x0 {
		if x[i] != x0[i] {
			t.Fatal("zero sweeps changed x")
		}
	}
}

func TestResidualInf(t *testing.T) {
	a := sparse.NewMatrix(2, 2)
	a.SetRow(0, rowVec(0, 1))
	a.SetRow(1, rowVec(1, 1))
	sys, _ := NewSystem(a, []float64{1, 1})
	if r := sys.ResidualInf([]float64{1, 0.25}, 2); math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("residual %g, want 0.75", r)
	}
}

// Property: on random diagonally dominant systems, enough Jacobi sweeps
// drive the residual below any fixed tolerance.
func TestQuickJacobiConverges(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 5
		sys, _ := diagDominant(n, seed)
		_, rep, err := sys.Jacobi(60, 3, nil)
		if err != nil {
			return false
		}
		return rep.FinalResidual() < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
