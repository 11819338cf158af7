package walk

import (
	"maps"
	"slices"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/sparse"
)

// buildRows fills a system over code with one writer.
func buildRows(g *graph.Graph, code *rowCode, seed uint64) *RowSystem {
	s := newRowSystem(g, code)
	s.Writer().Add(0, g.NumNodes(), seed)
	return s
}

// TestRowSystemWideWordMatchesNarrow forces the 64-bit deposit word on
// systems that fit 32 bits: the decoded rows, every RowDot triple, the
// stored diagonal, the entry count and a Jacobi solve through
// linsys.Matrix must carry the bits of the narrow system — and of the
// float matrix assembled from EstimateRowInto, the third row source.
func TestRowSystemWideWordMatchesNarrow(t *testing.T) {
	g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 23)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%11)/11 - 0.3
	}
	for _, tc := range []struct {
		name string
		T, R int
	}{
		{"scatter", 8, 50},
		{"sorted", 8, 3 * batchSortMin},
	} {
		narrow := newRowCode(n, tc.T, tc.R, 0.6)
		wide := newRowCode(n, tc.T, tc.R, 0.6)
		if narrow.wide {
			t.Fatalf("%s: (n, T, R) = (%d, %d, %d) should fit a 32-bit word", tc.name, n, tc.T, tc.R)
		}
		wide.wide = true
		a32, a64 := buildRows(g, narrow, 9), buildRows(g, wide, 9)
		if a32.rows32 == nil || a64.rows64 == nil {
			t.Fatalf("%s: word widths not as forced", tc.name)
		}
		floats := sparse.NewMatrix(n, n)
		est := NewRowEstimator(g, tc.R)
		for i := 0; i < n; i++ {
			row := &sparse.Vector{}
			est.EstimateRowInto(i, tc.T, 0.6, 9, row)
			floats.SetRow(i, row)
		}
		m32, m64 := a32.Matrix(), a64.Matrix()
		if a32.NNZ() != floats.NNZ() || a64.NNZ() != floats.NNZ() {
			t.Fatalf("%s: NNZ %d (32) %d (64), float rows %d", tc.name, a32.NNZ(), a64.NNZ(), floats.NNZ())
		}
		for i := 0; i < n; i++ {
			want := floats.Row(i)
			for _, got := range []*sparse.Vector{m32.Row(i), m64.Row(i)} {
				if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
					t.Fatalf("%s: row %d decodes to %v, float row %v", tc.name, i, got, want)
				}
			}
			d, off, full := floats.RowDot(i, x)
			for _, a := range []linsys.Matrix{a32, a64} {
				if gd, goff, gfull := a.RowDot(i, x); gd != d || goff != off || gfull != full {
					t.Fatalf("%s: row %d RowDot (%g, %g, %g), float row (%g, %g, %g)", tc.name, i, gd, goff, gfull, d, off, full)
				}
				if a.Diag(i) != floats.Diag(i) {
					t.Fatalf("%s: row %d stored diagonal %g, float row %g", tc.name, i, a.Diag(i), floats.Diag(i))
				}
			}
		}
		wantX, wantR := jacobi(t, floats)
		for _, a := range []linsys.Matrix{a32, a64} {
			if gotX, gotR := jacobi(t, a); !slices.Equal(gotX, wantX) || !slices.Equal(gotR, wantR) {
				t.Fatalf("%s: Jacobi over coded rows differs from the float matrix (residuals %v vs %v)", tc.name, gotR, wantR)
			}
		}
		if per := float64(a32.Bytes()) / float64(a64.Bytes()); per > 0.75 {
			t.Fatalf("%s: narrow system holds %d bytes, wide %d: the 32-bit word should be near half", tc.name, a32.Bytes(), a64.Bytes())
		}
	}
}

// jacobi runs four Jacobi sweeps of a x = 1 on three workers and returns
// the solution and the residual history.
func jacobi(t *testing.T, a linsys.Matrix) ([]float64, []float64) {
	t.Helper()
	sys, err := linsys.NewSystem(a, linsys.Ones(a.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := sys.Jacobi(4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sol, rep.Residuals
}

// TestCodedRowsDropZeroDeposits: a coded row stores no deposit its value
// table values at 0, and dropping them changes no bit. The float matrix
// assembled from the naive reference rows with their entries of 0 kept
// solves to the coded system's diagonal and residual history bit for
// bit, in either word width, either frontier mode and on a hub row of
// in-degree 199; the coded system holds fewer entries, none of them 0,
// and no stored word is worth 0.
func TestCodedRowsDropZeroDeposits(t *testing.T) {
	rmat, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 23)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		T, R int
		wide bool
	}{
		{"scatter", rmat, 8, 50, false},
		{"sorted", rmat, 8, 3 * batchSortMin, false},
		{"wide", rmat, 8, 50, true},
		{"hub", star, 8, 50, false},
	} {
		g, n := tc.g, tc.g.NumNodes()
		code := newRowCode(n, tc.T, tc.R, 0.6)
		code.wide = tc.wide
		coded := buildRows(g, code, 9)
		kept := sparse.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			ref := rowReferenceAll(g, i, tc.T, tc.R, 0.6, 9)
			row := &sparse.Vector{Idx: slices.Sorted(maps.Keys(ref))}
			for _, j := range row.Idx {
				row.Val = append(row.Val, ref[j])
			}
			kept.SetRow(i, row)
		}
		if kept.NNZ() <= coded.NNZ() {
			t.Fatalf("%s: reference rows hold %d entries, coded %d: no entry of 0 was dropped", tc.name, kept.NNZ(), coded.NNZ())
		}
		wantX, wantR := jacobi(t, kept)
		if gotX, gotR := jacobi(t, coded); !slices.Equal(gotX, wantX) || !slices.Equal(gotR, wantR) {
			t.Fatalf("%s: coded solve differs from the float rows with zeros kept (residuals %v vs %v)", tc.name, gotR, wantR)
		}
		mask, m := uint64(1)<<code.lowBits-1, coded.Matrix()
		for i := 0; i < n; i++ {
			var words []uint64
			if tc.wide {
				words = coded.rows64[i]
			} else {
				for _, w := range coded.rows32[i] {
					words = append(words, uint64(w))
				}
			}
			for _, w := range words {
				if code.tab[w&mask] == 0 {
					t.Fatalf("%s: row %d stores word %#x, worth 0", tc.name, i, w)
				}
			}
			if slices.Contains(m.Row(i).Val, 0) {
				t.Fatalf("%s: row %d decodes to an entry of 0", tc.name, i)
			}
		}
	}
}

// TestCodedRowDropsUnderflowedDeposits: past t ≈ 620 at c = 0.3 a
// deposit's value underflows to 0 whatever its count. Walkers on a
// complete graph survive all T = 800 levels, so the walk makes such
// deposits; the coded row stores none of them and still equals the
// naive reference bit for bit.
func TestCodedRowDropsUnderflowedDeposits(t *testing.T) {
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	const (
		i, T, R = 3, 800, 50
		c       = 0.3
	)
	code := newRowCode(g.NumNodes(), T, R, c)
	s := newRowSystem(g, code)
	w := s.Writer()
	w.Add(i, i+1, 5)
	mask := uint64(1)<<code.lowBits - 1
	if !slices.ContainsFunc(w.est.pairs, func(p uint64) bool { return code.tab[uint32(p)] == 0 }) {
		t.Fatal("no deposit underflowed: the test does not reach emit's drop")
	}
	for _, word := range s.rows32[i] {
		if code.tab[uint64(word)&mask] == 0 {
			t.Fatalf("row stores word %#x, worth 0", word)
		}
	}
	out, want := s.Matrix().Row(i), rowReference(g, i, T, R, c, 5)
	if out.NNZ() != len(want) {
		t.Fatalf("row %v, reference has %d entries", out, len(want))
	}
	for k, idx := range out.Idx {
		if out.Val[k] != want[idx] {
			t.Fatalf("entry %d: decoded %g, reference %g", idx, out.Val[k], want[idx])
		}
	}
}

// FuzzCodedRow: for a random (graph, row, T, R, c, seed) the coded row
// decoded to floats equals, entry for entry and bit for bit, the row
// computed the naive way (every walker walked alone, per-level counts in
// maps, per-node terms summed in level order, entries of 0 left out), in
// either word width.
func FuzzCodedRow(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint16(300), uint16(3), uint8(6), uint16(40), 0.6, false)
	f.Add(uint64(7), uint16(300), uint16(2000), uint16(0), uint8(10), uint16(500), 0.8, true)
	f.Add(uint64(3), uint16(2), uint16(1), uint16(1), uint8(0), uint16(0), 0.5, false)
	f.Add(uint64(11), uint16(40), uint16(900), uint16(39), uint8(15), uint16(129), 0.3, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, m, i uint16, T uint8, R uint16, c float64, wide bool) {
		nn, TT, RR := int(n)%400+1, int(T)%16, int(R)%600+2
		if !(c > 0 && c < 1) {
			c = 0.6
		}
		g, err := gen.ErdosRenyi(nn, int(m)%(8*nn), seed)
		if err != nil {
			t.Fatal(err)
		}
		ii := int(i) % nn
		code := newRowCode(nn, TT, RR, c)
		code.wide = code.wide || wide
		s := newRowSystem(g, code)
		s.Writer().Add(ii, ii+1, seed)
		out := s.Matrix().Row(ii)
		want := rowReference(g, ii, TT, RR, c, seed)
		if out.Validate() != nil || out.NNZ() != len(want) {
			t.Fatalf("row %v (valid: %v), reference has %d entries", out, out.Validate(), len(want))
		}
		for k, idx := range out.Idx {
			if out.Val[k] != want[idx] {
				t.Fatalf("entry %d: decoded %g, reference %g", idx, out.Val[k], want[idx])
			}
		}
	})
}
