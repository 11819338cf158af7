package core

// The batched engine re-keyed the RNG assignment: PR3 drew every walker
// of a query from ONE per-query stream in walker-major order, PR5 gives
// walker w its own substream xrand.NewStream(seed, w). Fixed-seed
// outputs therefore changed (golden_test.go re-captured them), and this
// suite bounds that change: the new estimator must agree with a
// faithful reimplementation of the OLD walker-major estimator within
// Monte Carlo error. Every comparison runs on fixed seeds, so the
// checks are deterministic; the bounds are sized several standard
// errors above the observed gaps, wide enough for the sampling noise
// and tight enough that a systematic bias (correlated walkers, a
// misassigned stream, a double-counted level) fails immediately.

import (
	"math"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// legacyDistributions is the PR3 distribution kernel: R walkers run to
// completion one after another, all drawing from the single stream src.
func legacyDistributions(g *graph.Graph, start, T, R int, src *xrand.Source) []map[int32]float64 {
	counts := make([]map[int32]int, T+1)
	for t := range counts {
		counts[t] = make(map[int32]int)
	}
	counts[0][int32(start)] = R
	for w := 0; w < R; w++ {
		cur := start
		for t := 1; t <= T; t++ {
			cur = walk.StepIn(g, cur, src)
			if cur < 0 {
				break
			}
			counts[t][int32(cur)]++
		}
	}
	out := make([]map[int32]float64, T+1)
	for t := range counts {
		out[t] = make(map[int32]float64, len(counts[t]))
		for k, c := range counts[t] {
			out[t][k] = float64(c) / float64(R)
		}
	}
	return out
}

// legacySinglePair is the PR3 MCSP estimator: per-query streams derived
// from the pair, walker-major walks, Σ_t c^t p̂_t^i D p̂_t^j.
func legacySinglePair(g *graph.Graph, idx *Index, i, j int) float64 {
	opts := idx.Opts
	di := legacyDistributions(g, i, opts.T, opts.RPrime, xrand.NewStream(opts.Seed, pairStream(i, j, 0)))
	dj := legacyDistributions(g, j, opts.T, opts.RPrime, xrand.NewStream(opts.Seed, pairStream(i, j, 1)))
	ct := 1.0
	s := 0.0
	for t := 1; t <= opts.T; t++ {
		ct *= opts.C
		for k, a := range di[t] {
			if b, ok := dj[t][k]; ok {
				s += ct * a * idx.Diag[k] * b
			}
		}
	}
	return sparse.Clamp01(s)
}

// legacySingleSourceWalk is the PR3 MCSS estimator: one per-query
// stream, each walker interleaving its backward steps with its forward
// phase-two walks in walker-major order.
func legacySingleSourceWalk(g *graph.Graph, idx *Index, q int) map[int32]float64 {
	opts := idx.Opts
	vw := g.WalkView()
	src := xrand.NewStream(opts.Seed, uint64(q)*2654435761+17)
	invR := 1.0 / float64(opts.RPrime)
	dep := map[int32]float64{int32(q): idx.Diag[q]}
	ct := make([]float64, opts.T+1)
	ct[0] = 1
	for t := 1; t <= opts.T; t++ {
		ct[t] = ct[t-1] * opts.C
	}
	for r := 0; r < opts.RPrime; r++ {
		cur := int32(q)
		for t := 1; t <= opts.T; t++ {
			cur = walk.StepInView(vw, cur, src)
			if cur < 0 {
				break
			}
			w0 := ct[t] * idx.Diag[cur] * invR
			if w0 == 0 {
				continue
			}
			j, w := walk.ForwardWeightedView(vw, cur, w0, t, src)
			if j >= 0 && w != 0 {
				dep[j] += w
			}
		}
	}
	for k, v := range dep {
		dep[k] = sparse.Clamp01(v)
	}
	dep[int32(q)] = 1
	return dep
}

func agreementFixture(t *testing.T) (*graph.Graph, *Index, *Querier) {
	t.Helper()
	g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{C: 0.6, T: 8, L: 3, R: 100, RPrime: 2000, Workers: 0, Seed: 5}
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, q
}

// TestBatchedSinglePairAgreesWithLegacy bounds the batched MCSP
// estimator against the walker-major PR3 estimator on the same index.
// With R' = 2000 the per-pair MC standard error of either estimator is
// well under 0.01 on this graph, so a 0.05 per-pair gap or a 0.012 mean
// gap over 40 pairs means systematic divergence, not noise.
func TestBatchedSinglePairAgreesWithLegacy(t *testing.T) {
	g, idx, q := agreementFixture(t)
	src := xrand.New(77)
	n := g.NumNodes()
	sum, worst := 0.0, 0.0
	const pairs = 40
	for k := 0; k < pairs; k++ {
		i, j := src.Intn(n), src.Intn(n)
		if i == j {
			j = (j + 1) % n
		}
		got, err := q.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		want := legacySinglePair(g, idx, i, j)
		d := math.Abs(got - want)
		sum += d
		if d > worst {
			worst = d
		}
		if d > 0.05 {
			t.Fatalf("pair (%d,%d): batched %g vs legacy %g (|diff| %g > 0.05)", i, j, got, want, d)
		}
	}
	if mean := sum / pairs; mean > 0.012 {
		t.Fatalf("mean |batched-legacy| over %d pairs = %g (worst %g), beyond Monte Carlo error", pairs, mean, worst)
	}
}

// TestBatchedSingleSourceAgreesWithLegacy bounds the batched MCSS
// estimator the same way, on every node the two supports name.
func TestBatchedSingleSourceAgreesWithLegacy(t *testing.T) {
	g, idx, q := agreementFixture(t)
	for _, node := range []int{0, 7, 123, 399} {
		got, err := q.SingleSource(node, WalkSS)
		if err != nil {
			t.Fatal(err)
		}
		want := legacySingleSourceWalk(g, idx, node)
		union := make(map[int32]struct{}, len(want)+got.NNZ())
		for _, k := range got.Idx {
			union[k] = struct{}{}
		}
		for k := range want {
			union[k] = struct{}{}
		}
		sum, worst := 0.0, 0.0
		for k := range union {
			d := math.Abs(got.Get(int(k)) - want[k])
			sum += d
			if d > worst {
				worst = d
			}
		}
		if worst > 0.08 {
			t.Fatalf("source %d: worst per-node gap %g > 0.08", node, worst)
		}
		if mean := sum / float64(len(union)); mean > 0.01 {
			t.Fatalf("source %d: mean per-node gap %g (worst %g), beyond Monte Carlo error", node, mean, worst)
		}
	}
}

// TestBatchedDistributionsAgreeWithLegacy bounds the raw distribution
// kernel: with R = 20000 the per-node standard error is below 0.004, so
// an L∞ gap of 0.025 between the two estimates of P^t e_start flags a
// broken kernel rather than sampling noise.
func TestBatchedDistributionsAgreeWithLegacy(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	const start, T, R = 5, 6, 20000
	var buf walk.DistBuf
	got := walk.NewScratch(0).DistributionsInto(&buf, g.WalkView(), start, T, R, 123)
	want := legacyDistributions(g, start, T, R, xrand.NewStream(123, 0))
	for tt := 0; tt <= T; tt++ {
		seen := make(map[int32]struct{})
		for k, idx := range got[tt].Idx {
			seen[idx] = struct{}{}
			if d := math.Abs(got[tt].Val[k] - want[tt][idx]); d > 0.025 {
				t.Fatalf("t=%d node %d: batched %g vs legacy %g", tt, idx, got[tt].Val[k], want[tt][idx])
			}
		}
		for k, v := range want[tt] {
			if _, ok := seen[k]; !ok && v > 0.025 {
				t.Fatalf("t=%d node %d: legacy mass %g missing from batched support", tt, k, v)
			}
		}
	}
}

// TestBatchedRowEstimatorAgreesWithLegacy bounds the indexing-row
// kernel: both estimate a_i = Σ_t c^t (P^t e_i)∘(P^t e_i); entries lie
// in [0, 1+c/(1-c)], and with R = 20000 walkers the standard error per
// entry is below 0.003.
func TestBatchedRowEstimatorAgreesWithLegacy(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	const i, T, R, c = 11, 6, 20000, 0.6
	got := &sparse.Vector{}
	walk.NewRowEstimator(g, R).EstimateRowInto(i, T, c, 77, got)
	legacy := legacyDistributions(g, i, T, R, xrand.NewStream(77, 0))
	want := map[int32]float64{int32(i): 1}
	ct := 1.0
	for t2 := 1; t2 <= T; t2++ {
		ct *= c
		for k, p := range legacy[t2] {
			want[k] += ct * p * p
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, idx := range got.Idx {
		if d := math.Abs(got.Val[k] - want[idx]); d > 0.02 {
			t.Fatalf("row entry %d: batched %g vs legacy %g", idx, got.Val[k], want[idx])
		}
	}
}
