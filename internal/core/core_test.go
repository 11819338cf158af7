package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/sparse"
)

// testOptions returns options tuned for tight Monte Carlo error on tiny
// test graphs (more walkers and sweeps than the paper's defaults).
func testOptions() Options {
	o := DefaultOptions()
	o.T = 8
	o.L = 6
	o.R = 3000
	o.RPrime = 4000
	o.Seed = 7
	return o
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(30, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaultOptionsMatchPaperTable(t *testing.T) {
	o := DefaultOptions()
	if o.C != 0.6 || o.T != 10 || o.L != 3 || o.R != 100 || o.RPrime != 10000 {
		t.Fatalf("defaults %+v do not match the paper's parameter table", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.C = 0 },
		func(o *Options) { o.C = 1 },
		func(o *Options) { o.T = -1 },
		func(o *Options) { o.L = -1 },
		func(o *Options) { o.R = 0 },
		func(o *Options) { o.RPrime = 0 },
		func(o *Options) { o.RPrime = math.MaxInt32 + 1 },
		func(o *Options) { o.Workers = -1 },
		func(o *Options) { o.PruneEps = -0.1 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if o.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBuildIndexDiagonalMatchesExact(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	idx, rep, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != g.NumNodes() || rep.SystemNNZ == 0 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.JacobiResiduals) != opts.L {
		t.Fatalf("want %d residuals, got %d", opts.L, len(rep.JacobiResiduals))
	}
	want, err := exact.ExactDiagonal(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := exact.CompareVec(want, idx.Diag)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxAbs > 0.08 {
		t.Fatalf("diagonal max error %g (mean %g)", d.MaxAbs, d.MeanAbs)
	}
}

// TestDiagonalUnbiasedRows: at the benchmark's R = 50 and L = 3 most of
// the diagonal's error was the row estimator's bias, not its noise. The
// plug-in value c^t·(k/R)² overshoots every off-diagonal entry by
// c^t·p(1−p)/R; on this graph it left a mean error of 0.0116, and the
// unbiased k(k−1)/(R(R−1)) leaves about a third of that.
func TestDiagonalUnbiasedRows(t *testing.T) {
	g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 1004)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Workers: 2, Seed: 7}
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.ExactDiagonal(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := exact.CompareVec(want, idx.Diag)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("diagonal error mean %g max %g", d.MeanAbs, d.MaxAbs)
	if d.MeanAbs > 0.004 || d.MaxAbs > 0.055 {
		t.Fatalf("diagonal error mean %g max %g, want ≤ 0.004 and ≤ 0.055", d.MeanAbs, d.MaxAbs)
	}
}

// TestIndexDeterministic: one seed gives one index — the same Diag and
// Jacobi residual history, bit for bit — however many workers estimate
// the rows into their slabs and split the solver's passes.
func TestIndexDeterministic(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	opts.R = 200 // keep it fast
	build := func(workers int) (*Index, *IndexReport) {
		o := opts
		o.Workers = workers
		idx, rep, err := BuildIndex(g, o)
		if err != nil {
			t.Fatal(err)
		}
		return idx, rep
	}
	a, arep := build(1)
	for _, workers := range []int{1, 4} {
		b, brep := build(workers)
		for i := range a.Diag {
			if math.Float64bits(a.Diag[i]) != math.Float64bits(b.Diag[i]) {
				t.Fatalf("workers=%d: same seed produced different indexes at %d", workers, i)
			}
		}
		if len(brep.JacobiResiduals) != opts.L {
			t.Fatalf("workers=%d: %d residuals, want %d", workers, len(brep.JacobiResiduals), opts.L)
		}
		for k, r := range arep.JacobiResiduals {
			if math.Float64bits(r) != math.Float64bits(brep.JacobiResiduals[k]) {
				t.Fatalf("workers=%d: residual %d is %g, want %g", workers, k, brep.JacobiResiduals[k], r)
			}
		}
		if brep.SkippedRows != 0 {
			t.Fatalf("workers=%d: %d rows skipped in a built system", workers, brep.SkippedRows)
		}
	}
}

func TestIndexDiagonalInRange(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	opts.R = 200
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i, v := range idx.Diag {
		if g.InDegree(i) == 0 && math.Abs(v-1) > 1e-9 {
			t.Fatalf("dangling node %d diagonal %g, want 1", i, v)
		}
	}
}

func TestSinglePairMatchesExact(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exact.Naive(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < 10; i++ {
		for j := i; j < 10; j++ {
			got, err := q.SinglePair(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if e := math.Abs(got - s.At(i, j)); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.08 {
		t.Fatalf("MCSP worst error %g vs exact", worst)
	}
}

func TestSinglePairSelfIsOne(t *testing.T) {
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuerier(g, idx)
	got, err := q.SinglePair(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("s(5,5) = %g", got)
	}
}

func TestSinglePairSymmetricEnough(t *testing.T) {
	// MC estimates of s(i,j) and s(j,i) use different streams but must
	// agree within tolerance.
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuerier(g, idx)
	a, _ := q.SinglePair(2, 9)
	b, _ := q.SinglePair(9, 2)
	if math.Abs(a-b) > 0.06 {
		t.Fatalf("s(2,9)=%g vs s(9,2)=%g", a, b)
	}
}

func TestSinglePairRangeErrors(t *testing.T) {
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuerier(g, idx)
	if _, err := q.SinglePair(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := q.SinglePair(0, g.NumNodes()); err == nil {
		t.Error("overflow node accepted")
	}
}

func TestSingleSourceBothModesMatchExact(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	s, err := exact.Naive(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	const q = 3
	for _, mode := range []SingleSourceMode{WalkSS, PullSS} {
		got, err := qr.SingleSource(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for j := 0; j < g.NumNodes(); j++ {
			if e := math.Abs(got.Get(j) - s.At(q, j)); e > worst {
				worst = e
			}
		}
		// WalkSS has higher variance (importance weights on skewed
		// degrees); PullSS is the series over the index's diagonal, so
		// only the diagonal's error and truncation at T remain.
		tol := 0.005
		if mode == WalkSS {
			tol = 0.15
		}
		if worst > tol {
			t.Fatalf("mode %d: MCSS worst error %g", mode, worst)
		}
		if got.Get(q) != 1 {
			t.Fatalf("mode %d: s(q,q) = %g, want pinned 1", mode, got.Get(q))
		}
	}
}

func TestSingleSourceUnknownMode(t *testing.T) {
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	if _, err := qr.SingleSource(0, SingleSourceMode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := qr.SingleSource(-1, WalkSS); err == nil {
		t.Fatal("negative node accepted")
	}
}

// TestSingleSourcePruneBoundsFrontier: PullSS is the series engine
// NewQuerier binds over Index.Diag, bit for bit, at the index's prune
// threshold; a pruned result still holds the query node.
func TestSingleSourcePruneBoundsFrontier(t *testing.T) {
	g := testGraph(t)
	for _, eps := range []float64{0, 0.01} {
		opts := testOptions()
		opts.PruneEps = eps
		idx, _, err := BuildIndex(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		qr, _ := NewQuerier(g, idx)
		lin, err := linserve.New(g, idx.Diag, linserve.Options{C: opts.C, T: opts.T})
		if err != nil {
			t.Fatal(err)
		}
		var want sparse.Vector
		for _, q := range []int{0, 3, 17, g.NumNodes() - 1} {
			v, err := qr.SingleSource(q, PullSS)
			if err != nil {
				t.Fatal(err)
			}
			if err := lin.SingleSourceInto(context.Background(), q, eps, &want); err != nil {
				t.Fatal(err)
			}
			same := len(v.Idx) == len(want.Idx)
			for k := 0; same && k < len(want.Idx); k++ {
				same = v.Idx[k] == want.Idx[k] && math.Float64bits(v.Val[k]) == math.Float64bits(want.Val[k])
			}
			if !same {
				t.Fatalf("prune %g, source %d: PullSS differs from linserve's SingleSourceInto", eps, q)
			}
			if v.Get(q) != 1 {
				t.Fatalf("prune %g: result lost the query node %d", eps, q)
			}
		}
	}
}

func TestAllPairsTopK(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	opts.RPrime = 1500
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	const k = 5
	res, err := qr.AllPairsTopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.NumNodes() {
		t.Fatalf("results for %d nodes, want %d", len(res), g.NumNodes())
	}
	s, err := exact.Naive(g, opts.C, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Rankings should mostly agree with exact top-k.
	overlapSum, nodes := 0.0, 0
	for i, lst := range res {
		if len(lst) == 0 {
			continue
		}
		for p := 1; p < len(lst); p++ {
			if lst[p].Score > lst[p-1].Score {
				t.Fatalf("node %d top-k not sorted: %+v", i, lst)
			}
		}
		ex := exact.TopK(s.Row(i), k, i)
		set := map[int]bool{}
		for _, n := range ex {
			if s.At(i, n) > 0 {
				set[n] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		hits := 0
		for _, nb := range lst {
			if set[int(nb.Node)] {
				hits++
			}
		}
		overlapSum += float64(hits) / float64(len(set))
		nodes++
	}
	if nodes > 0 && overlapSum/float64(nodes) < 0.7 {
		t.Fatalf("mean top-%d overlap with exact = %g", k, overlapSum/float64(nodes))
	}
}

func TestAllPairsTopKValidation(t *testing.T) {
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	if _, err := qr.AllPairsTopK(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestAllPairsTopKIsServedSource: MCAP answers every source with what
// /source serves, so AllPairsTopK(k)[i] holds the bits of
// TopKNeighbors(ServedSourceInto(i), i, k) for every node i, at one
// worker and at four (CI also runs it at -cpu 1,4).
func TestAllPairsTopKIsServedSource(t *testing.T) {
	g, err := gen.RMAT(500, 4000, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := BuildIndex(g, Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	pinned, _ := pinnedQuerier(t)
	const k = 10
	for _, tc := range []struct {
		name string
		q    *Querier
	}{{"rmat500", small}, {"pinned", pinned}} {
		q := tc.q
		want := make([][]Neighbor, q.Graph().NumNodes())
		var v sparse.Vector
		for i := range want {
			if err := q.ServedSourceInto(context.Background(), i, &v); err != nil {
				t.Fatal(err)
			}
			want[i] = TopKNeighbors(&v, i, k)
		}
		for _, workers := range []int{1, 4} {
			q.Index().Opts.Workers = workers
			got, err := q.AllPairsTopK(k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				same := len(got[i]) == len(want[i])
				for r := 0; same && r < len(want[i]); r++ {
					same = got[i][r].Node == want[i][r].Node &&
						math.Float64bits(got[i][r].Score) == math.Float64bits(want[i][r].Score)
				}
				if !same {
					t.Fatalf("%s, %d workers: node %d lists %+v, /source serves %+v", tc.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIndexSerializationRoundtrip(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	opts.R = 100
	opts.PruneEps = 0.001
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Opts != idx.Opts {
		t.Fatalf("options changed: %+v vs %+v", got.Opts, idx.Opts)
	}
	for i := range idx.Diag {
		if got.Diag[i] != idx.Diag[i] {
			t.Fatalf("diagonal changed at %d", i)
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 80))
	if _, err := ReadIndex(&buf); err == nil {
		t.Fatal("zero header accepted")
	}
}

func TestNewQuerierRejectsMismatchedIndex(t *testing.T) {
	g := testGraph(t)
	idx := &Index{Diag: make([]float64, 3), Opts: DefaultOptions()}
	if _, err := NewQuerier(g, idx); err == nil {
		t.Fatal("mismatched index accepted")
	}
}

func TestStarGraphQueries(t *testing.T) {
	// Edge case: star graph (hub 0, leaves point to it). Leaves have no
	// in-links so s(leaf, anything≠leaf) = 0; the hub likewise pairs to 0
	// with everything else.
	g, err := gen.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.R, opts.RPrime = 200, 500
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	if s, _ := qr.SinglePair(1, 2); s != 0 {
		t.Fatalf("s(leaf,leaf) = %g, want 0", s)
	}
	if s, _ := qr.SinglePair(0, 1); s != 0 {
		t.Fatalf("s(hub,leaf) = %g, want 0", s)
	}
	v, err := qr.SingleSource(1, WalkSS)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		want := 0.0
		if j == 1 {
			want = 1
		}
		if math.Abs(v.Get(j)-want) > 1e-9 {
			t.Fatalf("star MCSS s(1,%d) = %g, want %g", j, v.Get(j), want)
		}
	}
}

func TestDirectSinglePairMatchesExact(t *testing.T) {
	g := testGraph(t)
	const c = 0.6
	s, err := exact.Naive(g, c, 40)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < 8; i++ {
		for j := i; j < 8; j++ {
			got, err := DirectSinglePair(g, i, j, c, 8, 30000, 5)
			if err != nil {
				t.Fatal(err)
			}
			if e := math.Abs(got - s.At(i, j)); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.05 {
		t.Fatalf("first-meeting MC worst error %g", worst)
	}
}

func TestDirectSinglePairValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := DirectSinglePair(g, -1, 0, 0.6, 5, 10, 1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := DirectSinglePair(g, 0, 1, 1.5, 5, 10, 1); err == nil {
		t.Error("bad decay accepted")
	}
	if _, err := DirectSinglePair(g, 0, 1, 0.6, 0, 10, 1); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := DirectSinglePair(g, 0, 1, 0.6, 5, 0, 1); err == nil {
		t.Error("R=0 accepted")
	}
	if got, err := DirectSinglePair(g, 3, 3, 0.6, 5, 10, 1); err != nil || got != 1 {
		t.Errorf("self similarity = %g, %v", got, err)
	}
}

func TestBuildIndexEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, rep, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Diag) != 0 || rep.Rows != 0 {
		t.Fatalf("empty graph index %+v report %+v", idx, rep)
	}
}

func TestBuildIndexSingleNode(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if idx.Diag[0] != 1 {
		t.Fatalf("isolated node diag %g, want 1", idx.Diag[0])
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := q.SinglePair(0, 0); err != nil || s != 1 {
		t.Fatalf("s(0,0) = %g, %v", s, err)
	}
}

func TestCycleQueries(t *testing.T) {
	// On a directed even cycle all off-diagonal similarities are 0.
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.R, opts.RPrime = 100, 100
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := NewQuerier(g, idx)
	for j := 1; j < 6; j++ {
		s, err := qr.SinglePair(0, j)
		if err != nil {
			t.Fatal(err)
		}
		if s != 0 {
			t.Fatalf("cycle s(0,%d) = %g, want 0", j, s)
		}
	}
}

func TestSinglePairsBatchMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opts := testOptions()
	opts.RPrime = 500
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {5, 9}, {2, 2}, {7, 3}, {1, 0}}
	batch, err := q.SinglePairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range pairs {
		want, err := q.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if batch[k] != want {
			t.Fatalf("batch[%d] = %g, sequential %g", k, batch[k], want)
		}
	}
}

func TestSinglePairsBatchPropagatesError(t *testing.T) {
	g := testGraph(t)
	idx, _, err := BuildIndex(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuerier(g, idx)
	if _, err := q.SinglePairs([][2]int{{0, 1}, {-1, 2}}); err == nil {
		t.Fatal("bad pair accepted")
	}
	empty, err := q.SinglePairs(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}
