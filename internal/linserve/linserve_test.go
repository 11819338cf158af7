package linserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

func testGraph(t *testing.T, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(n, m, gen.DefaultRMAT, seed)
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	return g
}

func testOptions() Options {
	o := DefaultOptions()
	o.T = 8
	o.Sweeps = 8
	return o
}

// TestSeriesMatchesDenseReference checks the sparse query kernels, and the
// backward pass alone over caller-supplied levels, against the dense
// evaluation of the same truncated series with the same diagonal: they
// must agree to FP noise, isolating the matvec code from the
// diagonal-solve accuracy question.
func TestSeriesMatchesDenseReference(t *testing.T) {
	g := testGraph(t, 80, 400, 11)
	e, err := Build(g, testOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ref, err := exact.FromDiagonal(g, e.opts.C, e.opts.T, e.Diag())
	if err != nil {
		t.Fatalf("FromDiagonal: %v", err)
	}
	n := g.NumNodes()
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 13 {
			if i == j {
				continue
			}
			got, err := e.SinglePair(i, j)
			if err != nil {
				t.Fatalf("SinglePair(%d,%d): %v", i, j, err)
			}
			if want := ref.At(i, j); math.Abs(got-want) > 1e-10 {
				t.Fatalf("SinglePair(%d,%d) = %g, dense series says %g", i, j, got, want)
			}
		}
	}
	for q := 0; q < n; q += 11 {
		v, err := e.SingleSource(q)
		if err != nil {
			t.Fatalf("SingleSource(%d): %v", q, err)
		}
		dense := v.Dense(n)
		for j := 0; j < n; j++ {
			want := ref.At(q, j)
			if j == q {
				want = 1 // the engine pins self-similarity
			}
			if math.Abs(dense[j]-want) > 1e-10 {
				t.Fatalf("SingleSource(%d)[%d] = %g, dense series says %g", q, j, dense[j], want)
			}
		}
	}
}

// TestAgreesWithExactSimRank closes the whole pipeline against Jeh–Widom
// ground truth: row assembly, Jacobi diagonal solve, and query kernels
// together must land within the truncation + sweep error budget.
func TestAgreesWithExactSimRank(t *testing.T) {
	g := testGraph(t, 60, 300, 7)
	opts := testOptions()
	opts.T = 10
	opts.Sweeps = 10
	e, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	truth, err := exact.Naive(g, opts.C, 25)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	worst := 0.0
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			got, err := e.SinglePair(i, j)
			if err != nil {
				t.Fatalf("SinglePair: %v", err)
			}
			if d := math.Abs(got - truth.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	// c^{T+1} = 0.6^11 ≈ 0.0036 truncation plus solve error.
	if worst > 0.02 {
		t.Fatalf("worst |lin - exact| = %g, want <= 0.02", worst)
	}
}

// TestPruneEpsBoundsError checks that query-time truncation stays a
// small, bounded perturbation rather than a structural change.
func TestPruneEpsBoundsError(t *testing.T) {
	g := testGraph(t, 120, 700, 3)
	opts := testOptions()
	eExact, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts.PruneEps = 1e-4
	ePruned, err := New(g, eExact.Diag(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < g.NumNodes(); i += 9 {
		j := (i*7 + 13) % g.NumNodes()
		if i == j {
			continue
		}
		a, err := eExact.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ePruned.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 0.01 {
			t.Fatalf("pair (%d,%d): pruned %g vs exact %g", i, j, b, a)
		}
	}
}

func TestQueryEdgeCases(t *testing.T) {
	g := testGraph(t, 40, 160, 5)
	e, err := Build(g, testOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s, err := e.SinglePair(3, 3); err != nil || s != 1 {
		t.Fatalf("SinglePair(3,3) = %g, %v; want 1", s, err)
	}
	if _, err := e.SinglePair(-1, 0); err == nil {
		t.Fatal("SinglePair(-1,0) should fail")
	}
	if _, err := e.SinglePair(0, g.NumNodes()); err == nil {
		t.Fatal("SinglePair out of range should fail")
	}
	if err := e.SingleSourceInto(context.Background(), g.NumNodes(), 0, nil); err == nil {
		t.Fatal("SingleSourceInto out of range should fail")
	}
	for _, eps := range []float64{-1e-3, math.NaN(), math.Inf(1)} {
		if _, err := e.SinglePairCtx(context.Background(), 0, 1, eps); err == nil {
			t.Fatalf("SinglePairCtx accepted prune threshold %g", eps)
		}
		if err := e.SingleSourceInto(context.Background(), 0, eps, &sparse.Vector{}); err == nil {
			t.Fatalf("SingleSourceInto accepted prune threshold %g", eps)
		}
	}
	v, err := e.SingleSource(7)
	if err != nil {
		t.Fatalf("SingleSource: %v", err)
	}
	if got := v.Get(7); got != 1 {
		t.Fatalf("self similarity pinned to %g, want 1", got)
	}
	for k, val := range v.Val {
		if val < 0 || val > 1 {
			t.Fatalf("entry %d = %g outside [0,1]", v.Idx[k], val)
		}
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("single-source result invalid: %v", err)
	}
}

// TestQueriesDeterministic exercises the pooled workspace: repeated and
// interleaved queries must be bit-identical — the property the server
// sells the lin backend on.
func TestQueriesDeterministic(t *testing.T) {
	g := testGraph(t, 100, 500, 19)
	opts := testOptions()
	opts.PruneEps = 1e-5
	e, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	first := make(map[[2]int]float64)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			j := (i*13 + 31) % g.NumNodes()
			s, err := e.SinglePair(i, j)
			if err != nil {
				t.Fatal(err)
			}
			key := [2]int{i, j}
			if round == 0 {
				first[key] = s
			} else if first[key] != s {
				t.Fatalf("pair %v: round %d gave %g, first round %g", key, round, s, first[key])
			}
			// Interleave single-source traffic through the same pool.
			if _, err := e.SingleSource(j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBuildWorkerInvariance: the prep stage is parallel across rows and
// the Jacobi sweep is parallel across chunks, but both must produce
// bit-identical diagonals at any worker count, GOMAXPROCS (Workers 0)
// included.
func TestBuildWorkerInvariance(t *testing.T) {
	g := testGraph(t, 90, 450, 23)
	opts := testOptions()
	opts.Workers = 1
	e1, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build workers=1: %v", err)
	}
	r1 := e1.Report()
	for _, w := range []int{7, 0} {
		opts.Workers = w
		ew, err := Build(g, opts)
		if err != nil {
			t.Fatalf("Build workers=%d: %v", w, err)
		}
		for i := range e1.Diag() {
			if e1.Diag()[i] != ew.Diag()[i] {
				t.Fatalf("diag[%d]: workers=1 gives %g, workers=%d gives %g", i, e1.Diag()[i], w, ew.Diag()[i])
			}
		}
		rw := ew.Report()
		if r1.RowNNZ != rw.RowNNZ || !slices.Equal(r1.Solve.Residuals, rw.Solve.Residuals) {
			t.Fatalf("build reports differ across worker counts 1 and %d: %+v vs %+v", w, r1, rw)
		}
		if rw.Solve.SkippedRows != 0 {
			t.Fatalf("%d rows skipped in an exact row system", rw.Solve.SkippedRows)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{C: 0, T: 5, Sweeps: 3},
		{C: 1, T: 5, Sweeps: 3},
		{C: 0.6, T: -1, Sweeps: 3},
		{C: 0.6, T: 5, Sweeps: 0},
		{C: 0.6, T: 5, Sweeps: 3, PruneEps: -1},
		{C: 0.6, T: 5, Sweeps: 3, BuildPruneEps: -1},
		{C: math.NaN(), T: 5, Sweeps: 3},
		{C: 0.6, T: 5, Sweeps: 3, PruneEps: math.NaN()},
		{C: 0.6, T: 5, Sweeps: 3, PruneEps: math.Inf(1)},
		{C: 0.6, T: 5, Sweeps: 3, BuildPruneEps: math.NaN()},
		{C: 0.6, T: 5, Sweeps: 3, BuildPruneEps: math.Inf(1)},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d: options %+v should not validate", i, o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
}

func TestNewRejectsBadDiagonal(t *testing.T) {
	g := testGraph(t, 20, 60, 2)
	opts := testOptions()
	if _, err := New(g, make([]float64, 5), opts); err == nil {
		t.Fatal("short diagonal accepted")
	}
	d := make([]float64, g.NumNodes())
	d[3] = math.NaN()
	if _, err := New(g, d, opts); err == nil {
		t.Fatal("NaN diagonal accepted")
	}
	d[3] = 1.5
	if _, err := New(g, d, opts); err == nil {
		t.Fatal("out-of-range diagonal accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g := testGraph(t, 50, 250, 31)
	opts := testOptions()
	opts.PruneEps = 1e-5
	e, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	checkRoundTrip(t, g, e)
}

// TestCodecRoundTripBoundEngine: an engine New binds to a diagonal solved
// elsewhere, with only the query options set (as core.NewQuerier binds
// one), saves 0 sweeps; Load takes that section back.
func TestCodecRoundTripBoundEngine(t *testing.T) {
	g := testGraph(t, 50, 250, 31)
	built, err := Build(g, testOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := New(g, built.Diag(), Options{C: 0.6, T: 8, PruneEps: 1e-5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	checkRoundTrip(t, g, e)
}

// checkRoundTrip saves e, loads it back against g, and requires the same
// options, diagonal and answers bit for bit.
func checkRoundTrip(t *testing.T, g *graph.Graph, e *Engine) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Options() != e.Options() {
		t.Fatalf("options drifted through codec: %+v vs %+v", got.Options(), e.Options())
	}
	for i := range e.Diag() {
		if e.Diag()[i] != got.Diag()[i] {
			t.Fatalf("diag[%d] drifted through codec", i)
		}
	}
	// Loaded engines must answer bit-identically.
	for i := 0; i < 10; i++ {
		j := (i*17 + 3) % g.NumNodes()
		a, _ := e.SinglePair(i, j)
		b, _ := got.SinglePair(i, j)
		if a != b {
			t.Fatalf("pair (%d,%d): saved %g, loaded %g", i, j, a, b)
		}
		va, _ := e.SingleSource(j)
		vb, _ := got.SingleSource(j)
		if len(va.Idx) != len(vb.Idx) {
			t.Fatalf("source %d: nnz drifted through codec", j)
		}
		for k := range va.Val {
			if va.Val[k] != vb.Val[k] {
				t.Fatalf("source %d entry %d drifted", j, k)
			}
		}
	}
}

// withRank returns a copy of a CWLN image whose reserved rank word (the
// ninth header word) reads rank, as a section written by an engine that
// held a low-rank factorization would.
func withRank(image []byte, rank uint64) []byte {
	b := append([]byte(nil), image...)
	binary.LittleEndian.PutUint64(b[64:72], rank)
	return b
}

func TestCodecRejectsCorruption(t *testing.T) {
	g := testGraph(t, 40, 160, 37)
	e, err := Build(g, testOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 8, 70, len(good) - 1} {
			if _, err := Load(bytes.NewReader(good[:cut]), g); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] ^= 0xff
		if _, err := Load(bytes.NewReader(b), g); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[8] = 99
		if _, err := Load(bytes.NewReader(b), g); err == nil {
			t.Fatal("bad version accepted")
		}
	})
	t.Run("graph mismatch", func(t *testing.T) {
		other := testGraph(t, 41, 160, 37)
		if _, err := Load(bytes.NewReader(good), other); err == nil {
			t.Fatal("node-count mismatch accepted")
		}
	})
	t.Run("non-finite diagonal", func(t *testing.T) {
		b := append([]byte(nil), good...)
		// First diagonal float sits right after the 10-word header.
		for i := 0; i < 8; i++ {
			b[80+i] = 0xff
		}
		if _, err := Load(bytes.NewReader(b), g); err == nil {
			t.Fatal("NaN diagonal accepted")
		}
	})
	t.Run("non-finite options", func(t *testing.T) {
		// Header word 3 is the decay C, word 6 the build prune threshold
		// and word 7 the query prune threshold.
		for _, c := range []struct {
			word int
			v    float64
		}{{3, math.NaN()}, {6, math.NaN()}, {6, math.Inf(1)}, {7, math.NaN()}, {7, math.Inf(1)}} {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(b[8*c.word:], math.Float64bits(c.v))
			if _, err := Load(bytes.NewReader(b), g); err == nil {
				t.Fatalf("header word %d = %g accepted", c.word, c.v)
			}
		}
	})
	t.Run("negative sweep count", func(t *testing.T) {
		// Header word 5 is the sweep count; 2^64-1 reads back as -1.
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[8*5:], 1<<64-1)
		if _, err := Load(bytes.NewReader(b), g); err == nil {
			t.Fatal("sweep count -1 accepted")
		}
	})
	t.Run("low rank", func(t *testing.T) {
		_, err := Load(bytes.NewReader(withRank(good, 6)), g)
		if err == nil || !strings.Contains(err.Error(), "low-rank") {
			t.Fatalf("rank-6 section: err %v, want a refusal naming low rank", err)
		}
		// The seed word beside it is read and ignored.
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[72:80], 99)
		if _, err := Load(bytes.NewReader(b), g); err != nil {
			t.Fatalf("non-zero seed word rejected: %v", err)
		}
	})
}

// countdownCtx reports Canceled from its (n+1)th Err call on: it lets a
// query through its up-front check and n series levels, then cancels it
// mid-series.
type countdownCtx struct {
	context.Context
	left *int
}

func (c countdownCtx) Err() error {
	if *c.left--; *c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestQueriesHonourContext: both query kinds refuse an already-cancelled
// context, stop at a series level once it is cancelled mid-query, and
// hand their pooled workspace back clean — the next query on the engine
// answers exactly what a fresh engine does.
func TestQueriesHonourContext(t *testing.T) {
	g := testGraph(t, 60, 400, 9)
	e, err := Build(g, testOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantPair, err := e.SinglePair(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantSrc, err := e.SingleSource(3)
	if err != nil {
		t.Fatal(err)
	}
	for checks := 0; checks <= 2*e.Options().T+1; checks++ {
		left := checks
		ctx := countdownCtx{context.Background(), &left}
		_, perr := e.SinglePairCtx(ctx, 3, 8, e.Options().PruneEps)
		left = checks
		var v sparse.Vector
		serr := e.SingleSourceInto(ctx, 3, e.Options().PruneEps, &v)
		if checks <= 1 && (perr != context.Canceled || serr != context.Canceled) {
			t.Fatalf("cancelled after %d checks: pair err %v, source err %v, want Canceled", checks, perr, serr)
		}
		if serr == nil && !slices.Equal(v.Val, wantSrc.Val) {
			t.Fatalf("source allowed %d checks answered differently", checks)
		}
		gotPair, err := e.SinglePair(3, 8)
		if err != nil || gotPair != wantPair {
			t.Fatalf("pair after a query cancelled at check %d: %v, %v; want %v", checks, gotPair, err, wantPair)
		}
		gotSrc, err := e.SingleSource(3)
		if err != nil || !slices.Equal(gotSrc.Idx, wantSrc.Idx) || !slices.Equal(gotSrc.Val, wantSrc.Val) {
			t.Fatalf("source after a query cancelled at check %d differs (err %v)", checks, err)
		}
	}
}
