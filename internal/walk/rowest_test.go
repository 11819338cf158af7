package walk

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// estimateRow is EstimateRowInto into a fresh vector.
func estimateRow(re *RowEstimator, i, T int, c float64, seed uint64) *sparse.Vector {
	out := &sparse.Vector{}
	re.EstimateRowInto(i, T, c, seed, out)
	return out
}

func TestRowEstimatorMatchesReference(t *testing.T) {
	// The estimator must produce the same row distributionally as the
	// exact operator: compare expectations on a large walker budget.
	g, err := gen.ErdosRenyi(30, 180, 17)
	if err != nil {
		t.Fatal(err)
	}
	p := sparse.NewTransition(g)
	const (
		T = 5
		R = 40000
		c = 0.6
	)
	// Exact row.
	exactRow := sparse.Unit(3)
	v := sparse.Unit(3)
	ct := 1.0
	for t := 1; t <= T; t++ {
		v = p.Apply(v)
		ct *= c
		exactRow = sparse.AddScaled(exactRow, ct, v.SquareValues())
	}
	est := NewRowEstimator(g, R)
	got := estimateRow(est, 3, T, c, 9)
	diff := sparse.AddScaled(got, -1, exactRow)
	if m := maxAbs(diff); m > 0.01 {
		t.Fatalf("row estimator error %g", m)
	}
}

func TestRowEstimatorReuseIsClean(t *testing.T) {
	// Rows estimated after reuse must not leak state from prior rows.
	g, err := gen.RMAT(40, 200, gen.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRowEstimator(g, 200)
	reused := NewRowEstimator(g, 200)
	// Burn a row on the reused estimator first.
	_ = estimateRow(reused, 11, 6, 0.6, 1)
	a := estimateRow(fresh, 5, 6, 0.6, 2)
	b := estimateRow(reused, 5, 6, 0.6, 2)
	diff := sparse.AddScaled(a, -1, b)
	if maxAbs(diff) != 0 {
		t.Fatal("estimator reuse changed results")
	}
}

func TestRowEstimatorIntoReusedVectorMatchesFresh(t *testing.T) {
	g, err := gen.RMAT(60, 360, gen.DefaultRMAT, 21)
	if err != nil {
		t.Fatal(err)
	}
	est := NewRowEstimator(g, 120)
	var out sparse.Vector
	est.EstimateRowInto(9, 6, 0.6, 5, &out) // dirty the reused vector
	est.EstimateRowInto(4, 6, 0.6, 5, &out)
	want := estimateRow(NewRowEstimator(g, 120), 4, 6, 0.6, 5)
	if len(out.Idx) != len(want.Idx) {
		t.Fatalf("nnz %d vs %d", len(out.Idx), len(want.Idx))
	}
	for k := range want.Idx {
		if out.Idx[k] != want.Idx[k] || out.Val[k] != want.Val[k] {
			t.Fatalf("entry %d differs: (%d,%g) vs (%d,%g)",
				k, out.Idx[k], out.Val[k], want.Idx[k], want.Val[k])
		}
	}
}

// rowReferenceAll recomputes an indexing row the naive way — walker w
// of row i walks its whole trajectory on substream NewStream(seed, i·R+w),
// counts aggregate per (level, node) in a map, and per-node deposits
// worth ct·k(k−1)/(R(R−1)) accumulate in level order — exactly the
// estimator's definition with none of the engine's batching, sorting,
// mode switching or dropping: a node only lone walkers reached keeps its
// entry of 0.
func rowReferenceAll(g *graph.Graph, i, T, R int, c float64, seed uint64) map[int32]float64 {
	counts := make([]map[int32]int, T+1)
	for t := range counts {
		counts[t] = make(map[int32]int)
	}
	for w := 0; w < R; w++ {
		src := xrand.NewStream(seed, uint64(i)*uint64(R)+uint64(w))
		cur := i
		for t := 1; t <= T; t++ {
			cur = StepIn(g, cur, src)
			if cur < 0 {
				break
			}
			counts[t][int32(cur)]++
		}
	}
	row := map[int32]float64{int32(i): 1}
	ct := 1.0
	for t := 1; t <= T; t++ {
		ct *= c
		for k, n := range counts[t] {
			row[k] += ct * (float64(n) * float64(n-1) * (1 / (float64(R) * float64(R-1))))
		}
	}
	return row
}

// rowReference is rowReferenceAll without its entries of 0: the row a
// coded row decodes to.
func rowReference(g *graph.Graph, i, T, R int, c float64, seed uint64) map[int32]float64 {
	row := rowReferenceAll(g, i, T, R, c, seed)
	maps.DeleteFunc(row, func(_ int32, v float64) bool { return v == 0 })
	return row
}

// TestRowEstimatorMatchesNaiveBitExact pins the engine's determinism
// contract: batching, frontier sorting, the scatter fallback, and the
// crossover between them must be invisible — the row is bit-identical
// to walking every walker independently on its own substream. R is
// chosen above the sort crossover so the first levels run sorted and
// the tail (after walkers die off on the power-law graph) runs in
// scatter mode, exercising both modes and the switch in one row.
func TestRowEstimatorMatchesNaiveBitExact(t *testing.T) {
	g, err := gen.RMAT(500, 4000, gen.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	const R = batchSortMin * 3
	for _, i := range []int{0, 7, 499} {
		row := estimateRow(NewRowEstimator(g, R), i, 10, 0.6, 3)
		want := rowReference(g, i, 10, R, 0.6, 3)
		if row.NNZ() != len(want) {
			t.Fatalf("row %d: nnz %d, reference %d", i, row.NNZ(), len(want))
		}
		for k, idx := range row.Idx {
			if row.Val[k] != want[idx] {
				t.Fatalf("row %d entry %d: %g, reference %g", i, idx, row.Val[k], want[idx])
			}
		}
	}
}

// TestRowLevelsDepositOnce: a row walk leaves at most one deposit per
// (node, level), none at a level ≥ 1 from a lone walker, and its count
// histogram all zero for the next row, in scatter mode, in sorted mode,
// and on a hub row whose in-degree (199) is wider than a per-edge count
// buffer would hold. The float histogram of the query kernels stays
// unallocated.
func TestRowLevelsDepositOnce(t *testing.T) {
	rmat, err := gen.RMAT(500, 4000, gen.DefaultRMAT, 13)
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
		i, R int
	}{
		{"scatter", rmat, 7, 50},
		{"sorted", rmat, 7, 3 * batchSortMin},
		{"hub", star, 0, 50},
	} {
		re := NewRowEstimator(tc.g, tc.R)
		re.code = newRowCode(tc.g.NumNodes(), 10, tc.R, 0.6)
		re.walkRow(tc.i, 3)
		cb := re.code.cntBits
		seen := map[uint64]bool{}
		for _, p := range re.pairs {
			if seen[p>>cb] {
				t.Fatalf("%s: node %d deposits twice at level %d", tc.name, p>>32, uint32(p)>>cb)
			}
			seen[p>>cb] = true
			if lvl, c := uint32(p)>>cb, p&(1<<cb-1); lvl >= 1 && c < 2 {
				t.Fatalf("%s: node %d deposits a lone walker (count %d) at level %d", tc.name, p>>32, c, lvl)
			}
		}
		if len(re.pairs) < 2 {
			t.Fatalf("%s: row %d deposits only its t = 0 term", tc.name, tc.i)
		}
		if v := slices.IndexFunc(re.walk.cnt, func(c int32) bool { return c != 0 }); v >= 0 {
			t.Fatalf("%s: count histogram left %d at node %d", tc.name, re.walk.cnt[v], v)
		}
		if len(re.walk.hist) != 0 {
			t.Fatalf("%s: row walk allocated a %d-entry float histogram", tc.name, len(re.walk.hist))
		}
	}
}

func TestRowEstimatorDanglingStart(t *testing.T) {
	g, err := gen.Star(5) // leaves have no in-links
	if err != nil {
		t.Fatal(err)
	}
	est := NewRowEstimator(g, 50)
	row := estimateRow(est, 1, 8, 0.6, 3)
	// Walkers die instantly: row is just the unit diagonal.
	if row.NNZ() != 1 || row.Get(1) != 1 {
		t.Fatalf("dangling row %+v", row)
	}
}

// Property: estimator rows always include the unit diagonal and have
// non-negative entries bounded by 1 + c/(1-c).
func TestQuickRowEstimatorInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(25) + 3
		g, err := gen.ErdosRenyi(n, 3*n, seed)
		if err != nil {
			return false
		}
		est := NewRowEstimator(g, 60)
		i := src.Intn(n)
		row := estimateRow(est, i, 6, 0.6, seed)
		if row.Validate() != nil {
			return false
		}
		if row.Get(i) < 1 {
			return false
		}
		bound := 1 + 0.6/(1-0.6) + 1e-9
		for _, val := range row.Val {
			if val < 0 || val > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRowEstimator times whole T = 10 rows on a 10k-node RMAT graph:
// R = 50 walks every level in scatter mode, R = 3·batchSortMin starts
// sorted.
func BenchmarkRowEstimator(b *testing.B) {
	g, err := gen.RMAT(10000, 100000, gen.DefaultRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, R := range []int{50, 100, 3 * batchSortMin} {
		b.Run(fmt.Sprintf("R=%d", R), func(b *testing.B) {
			est := NewRowEstimator(g, R)
			var out sparse.Vector
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.EstimateRowInto(i%g.NumNodes(), 10, 0.6, 1, &out)
			}
		})
	}
}
