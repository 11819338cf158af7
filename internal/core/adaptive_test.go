package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// adaptiveQuerier builds an index + querier on g with the agreement
// fixture's parameters.
func adaptiveQuerier(t *testing.T, g *graph.Graph) *Querier {
	t.Helper()
	opts := Options{C: 0.6, T: 8, L: 3, R: 100, RPrime: 2000, Workers: 0, Seed: 5}
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func adaptiveTestPairs(n, count int) [][2]int { return seededPairs(202, n, count) }

// seededPairs draws count pseudo-random pairs of distinct nodes.
func seededPairs(seed uint64, n, count int) [][2]int {
	src := xrand.New(seed)
	pairs := make([][2]int, count)
	for k := range pairs {
		a, b := src.Intn(n), src.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		pairs[k] = [2]int{a, b}
	}
	return pairs
}

// TestSinglePairAdaptiveCapBitIdentical is the headline determinism
// contract: an adaptive query whose epsilon is unreachable runs every
// wave to the R' cap and must return the fixed-budget score bit for
// bit — adaptivity may only remove walkers, never change them.
func TestSinglePairAdaptiveCapBitIdentical(t *testing.T) {
	g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	q := adaptiveQuerier(t, g)
	for _, p := range adaptiveTestPairs(g.NumNodes(), 12) {
		want, err := q.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], 1e-12, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if pe.Stopped || pe.Walkers != pe.Budget || pe.Budget != 2000 {
			t.Fatalf("pair %v: unreachable epsilon must run the cap, got %+v", p, pe)
		}
		if pe.Score != want {
			t.Fatalf("pair %v: adaptive cap %v != fixed %v", p, pe.Score, want)
		}
	}
}

func TestSinglePairAdaptiveSelfPair(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	q := adaptiveQuerier(t, g)
	pe, err := q.SinglePairAdaptiveCtx(context.Background(), 7, 7, 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Score != 1 || pe.Walkers != 0 || pe.HalfWidth != 0 {
		t.Fatalf("self pair must be exact and free, got %+v", pe)
	}
}

// TestSinglePairAdaptiveAgreesWithFixed: on both an rmat graph and a
// hub-heavy preferential-attachment graph, the early-stopped estimate
// must land within epsilon of the full fixed-budget answer, and at
// least some pairs must actually stop early (otherwise the test proves
// nothing about adaptivity).
func TestSinglePairAdaptiveAgreesWithFixed(t *testing.T) {
	rmat, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := gen.BarabasiAlbert(400, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	const eps, delta = 0.02, 0.05
	for name, g := range map[string]*graph.Graph{"rmat": rmat, "hub": hub} {
		q := adaptiveQuerier(t, g)
		stopped := 0
		for _, p := range adaptiveTestPairs(g.NumNodes(), 24) {
			want, err := q.SinglePair(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(pe.Score - want); d > eps {
				t.Errorf("%s pair %v: |adaptive-fixed| = %g > epsilon %g (%+v)",
					name, p, d, eps, pe)
			}
			if pe.Stopped {
				stopped++
				if pe.HalfWidth >= eps {
					t.Errorf("%s pair %v: stopped with half-width %g >= epsilon %g",
						name, p, pe.HalfWidth, eps)
				}
			}
		}
		if stopped == 0 {
			t.Errorf("%s: no pair stopped early at epsilon %g — adaptivity inert", name, eps)
		}
	}
}

// TestSinglePairAdaptiveCoverage checks the statistical promise behind
// the reported interval: score ± half-width must contain a high-R'
// reference estimate of the same MCSP estimand for at least 95% of
// pairs at delta = 0.05. Seeds are fixed, so the observed coverage is
// deterministic; the reference's own Monte Carlo error gets a small
// explicit allowance.
func TestSinglePairAdaptiveCoverage(t *testing.T) {
	g, err := gen.RMAT(1000, 8000, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := adaptiveQuerier(t, g)
	opts := q.Index().Opts
	pairs := adaptiveTestPairs(g.NumNodes(), 32)
	const refR = 120000
	const refErr = 0.002 // ~3 standard errors of the R''=120k reference
	covered := 0
	for _, p := range pairs {
		pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], 0.01, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DirectSinglePair(g, p[0], p[1], opts.C, opts.T, refR, 12345)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pe.Score-ref) <= pe.HalfWidth+refErr {
			covered++
		} else {
			t.Logf("pair %v uncovered: score %g ref %g hw %g", p, pe.Score, ref, pe.HalfWidth)
		}
	}
	if min := (len(pairs)*95 + 99) / 100; covered < min {
		t.Fatalf("coverage %d/%d below 95%%", covered, len(pairs))
	}
}

// TestSingleSourceIntoServesSingleSource: the context-taking entry point
// the serving tier calls returns SingleSource's vector bit for bit in
// either mode, and so does SingleSourceAdaptiveCtx, the retired adaptive
// entry point at eps = 0, for WalkSS. A cancelled context and an
// out-of-range node are refused in both modes.
func TestSingleSourceIntoServesSingleSource(t *testing.T) {
	g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	q := adaptiveQuerier(t, g)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, mode := range []SingleSourceMode{WalkSS, PullSS} {
		for _, node := range []int{0, 7, 399} {
			want, err := q.SingleSource(node, mode)
			if err != nil {
				t.Fatal(err)
			}
			var served sparse.Vector
			if err := q.SingleSourceInto(ctx, node, mode, &served); err != nil {
				t.Fatal(err)
			}
			got := map[string]*sparse.Vector{"SingleSourceInto": &served}
			if mode == WalkSS {
				old, walkers, err := q.SingleSourceAdaptiveCtx(ctx, node, 0, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				if walkers != q.Index().Opts.RPrime {
					t.Fatalf("node %d: %d walkers reported, want the budget %d", node, walkers, q.Index().Opts.RPrime)
				}
				got["SingleSourceAdaptiveCtx"] = old
			}
			for name, v := range got {
				same := len(v.Idx) == len(want.Idx)
				for k := 0; same && k < len(want.Idx); k++ {
					same = v.Idx[k] == want.Idx[k] && math.Float64bits(v.Val[k]) == math.Float64bits(want.Val[k])
				}
				if !same {
					t.Fatalf("mode %d node %d: %s differs from SingleSource", mode, node, name)
				}
			}
		}
		var out sparse.Vector
		if err := q.SingleSourceInto(cancelled, 7, mode, &out); err != context.Canceled {
			t.Fatalf("mode %d: SingleSourceInto on a cancelled context: %v, want context.Canceled", mode, err)
		}
		if err := q.SingleSourceInto(ctx, g.NumNodes(), mode, &out); err == nil || !strings.HasPrefix(err.Error(), "core:") {
			t.Fatalf("mode %d: SingleSourceInto on an out-of-range node: %v, want a core: error", mode, err)
		}
	}
	if _, _, err := q.SingleSourceAdaptiveCtx(ctx, 7, 0.05, 0.05); err == nil {
		t.Fatal("SingleSourceAdaptiveCtx accepted epsilon > 0")
	}
}

func TestAdaptiveParamValidation(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	q := adaptiveQuerier(t, g)
	bad := []struct {
		name       string
		eps, delta float64
	}{
		{"negative epsilon", -0.01, 0.05},
		{"epsilon one", 1, 0.05},
		{"epsilon above one", 1.5, 0.05},
		{"epsilon NaN", math.NaN(), 0.05},
		{"epsilon Inf", math.Inf(1), 0.05},
		{"delta zero", 0.01, 0},
		{"delta one", 0.01, 1},
		{"delta negative", 0.01, -0.05},
		{"delta NaN", 0.01, math.NaN()},
		{"delta Inf", 0.01, math.Inf(1)},
	}
	for _, tc := range bad {
		if _, err := q.SinglePairAdaptiveCtx(context.Background(), 1, 2, tc.eps, tc.delta); err == nil {
			t.Errorf("SinglePairAdaptiveCtx accepted %s", tc.name)
		}
		if _, _, err := q.SingleSourceAdaptiveCtx(context.Background(), 1, tc.eps, tc.delta); err == nil {
			t.Errorf("SingleSourceAdaptiveCtx accepted %s", tc.name)
		}
	}
	// Out-of-range nodes still error before any walking.
	if _, err := q.SinglePairAdaptiveCtx(context.Background(), -1, 2, 0.01, 0.05); err == nil {
		t.Error("negative node accepted")
	}
	if _, _, err := q.SingleSourceAdaptiveCtx(context.Background(), g.NumNodes(), 0, 0.05); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestOptionsValidateNonFinite is the satellite fix: Validate must
// reject NaN/Inf smuggled into any float option, not just values that
// fail the range comparisons.
func TestOptionsValidateNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		ok     bool
	}{
		{"C NaN", func(o *Options) { o.C = math.NaN() }, false},
		{"C +Inf", func(o *Options) { o.C = math.Inf(1) }, false},
		{"C -Inf", func(o *Options) { o.C = math.Inf(-1) }, false},
		{"PruneEps NaN", func(o *Options) { o.PruneEps = math.NaN() }, false},
		{"PruneEps +Inf", func(o *Options) { o.PruneEps = math.Inf(1) }, false},
		{"defaults", func(o *Options) {}, true},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mutate(&o)
		if err := o.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestBuildSystemAdaptiveWorkerInvariant: rows have no adaptive path.
// Every row runs all R walkers, so the system is the same bits at any
// worker count — every walker owns substream i·R+w regardless of which
// worker ran it.
func TestBuildSystemAdaptiveWorkerInvariant(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{C: 0.6, T: 8, L: 3, R: 400, RPrime: 1000, Seed: 5}
	build := func(workers int) *sparse.Matrix {
		o := opts
		o.Workers = workers
		a, err := BuildSystem(g, o)
		if err != nil {
			t.Fatal(err)
		}
		return a.Matrix()
	}
	want := build(1)
	for _, workers := range []int{2, 4} {
		got := build(workers)
		for i := 0; i < want.Rows(); i++ {
			r, w := got.Row(i), want.Row(i)
			if !slices.Equal(r.Idx, w.Idx) || !slices.Equal(r.Val, w.Val) {
				t.Fatalf("workers=%d: row %d differs from the one-worker row", workers, i)
			}
		}
	}
}

// TestIndexSerializationRoundtripAdaptive: an index file written before
// adaptive defaults left the index (header v2, carrying ε and δ words)
// still loads, with its other options and diagonal intact, and answers
// SinglePair at the fixed budget bit for bit. Save writes v1, which
// reads back to the same options.
func TestIndexSerializationRoundtripAdaptive(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.T = 6
	opts.R = 50
	opts.RPrime = 500
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	if version := binary.LittleEndian.Uint64(v1[8:]); version != 1 {
		t.Fatalf("Save wrote header version %d, want 1", version)
	}
	for name, raw := range map[string][]byte{"v1": v1, "v2": indexV2(v1, 0.2, 0.05)} {
		got, err := ReadIndex(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Opts != idx.Opts || !slices.Equal(got.Diag, idx.Diag) {
			t.Fatalf("%s: index changed across roundtrip: %+v vs %+v", name, got.Opts, idx.Opts)
		}
		fixed, err := NewQuerier(g, idx)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuerier(g, got)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range adaptiveTestPairs(g.NumNodes(), 6) {
			want, _ := fixed.SinglePair(p[0], p[1])
			s, err := q.SinglePair(p[0], p[1])
			if err != nil || math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("%s: SinglePair%v = %v (%v), want the fixed-budget %v", name, p, s, err, want)
			}
		}
	}
}

// indexV2 rewrites a v1 index file as the v2 layout: version word 2 and
// the adaptive (ε, δ) words after the seven option scalars.
func indexV2(v1 []byte, eps, delta float64) []byte {
	const optsEnd = 9 * 8 // magic, version, seven options
	out := append([]byte(nil), v1[:optsEnd]...)
	binary.LittleEndian.PutUint64(out[8:], 2)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eps))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(delta))
	return append(out, v1[optsEnd:]...)
}

// TestAdaptiveWalkersPinned is the adaptive-sampling gate: on a pinned
// graph, index and pair set, the early stops at (ε,δ) = (0.01, 0.05) run
// an exact, reproducible number of walkers — pure walker accounting, no
// timing — and must keep saving at least 30% of the fixed R' budget.
// Moving the exact count is a decision made in the diff that moves it.
func TestAdaptiveWalkersPinned(t *testing.T) {
	const (
		wantWalkers = 34240
		wantBudget  = 64000
		savedFloor  = 0.30
	)
	g, err := gen.RMAT(20000, 200000, gen.DefaultRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.T = 10
	opts.R = 50
	opts.RPrime = 1000
	opts.Seed = 7
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	var walkers, budget int
	for _, p := range seededPairs(99, g.NumNodes(), 64) {
		pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], 0.01, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		walkers += pe.Walkers
		budget += pe.Budget
	}
	if walkers != wantWalkers || budget != wantBudget {
		t.Errorf("adaptive pairs ran %d / %d walkers, pinned %d / %d", walkers, budget, wantWalkers, wantBudget)
	}
	if saved := 1 - float64(walkers)/float64(budget); saved < savedFloor {
		t.Errorf("adaptive stops saved %.1f%% of the walker budget, floor %.0f%%", saved*100, savedFloor*100)
	}
}
