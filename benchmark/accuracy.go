package main

import (
	"math"

	"cloudwalker/internal/core"
	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/xrand"
)

// exactIters is enough Jeh–Widom iterations for c=0.6 to converge far
// below any estimator's error (0.6³⁰ ≈ 2·10⁻⁷).
const exactIters = 30

// accuracyCeiling fails a run whose error against internal/exact is
// worse than roughly twice the baseline's: a speed-up must not quietly
// spend accuracy. check.max_abs_err reports the exact figure; it is
// deterministic, so a finer comparison between two commits is an
// equality test.
var accuracyCeiling = map[string]float64{
	"pair_cold":     0.013,  // baseline 0.0064
	"source_cold":   0.6,    // baseline 0.30: one entry of a 400-node MCSS row
	"zipf_mix":      0.6,    // baseline 0.30
	"fleet_scatter": 0.6,    // baseline 0.30
	"lin_cold":      1.3e-4, // baseline 6.2e-5
	"index_build":   0.12,   // baseline 0.061 on the diagonal
}

// sideAccuracy is the workload's max absolute error against exact
// SimRank on a small fixed side graph, computed through the same public
// call path and options the workload serves. Graph, index seed and the
// checked queries are constants, so the figure repeats exactly.
func sideAccuracy(w workload, sz sizes) (float64, error) {
	g, err := gen.RMAT(sz.sideN, sz.sideM, gen.DefaultRMAT, sideGraphSeed)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	note := func(got, want float64) { worst = math.Max(worst, math.Abs(got-want)) }
	ix, _, err := core.BuildIndex(g, indexOpts)
	if err != nil {
		return 0, err
	}
	if w.batch {
		diag, err := exact.ExactDiagonal(g, indexOpts.C, exactIters)
		if err != nil {
			return 0, err
		}
		for i, d := range ix.Diag {
			note(d, diag[i])
		}
		return worst, nil
	}
	truth, err := exact.Naive(g, indexOpts.C, exactIters)
	if err != nil {
		return 0, err
	}
	e := &env{w: w, g: g}
	if e.q, err = core.NewQuerier(g, ix); err != nil {
		return 0, err
	}
	if w.lin {
		if e.lin, err = linserve.Build(g, linOpts); err != nil {
			return 0, err
		}
	}
	src := xrand.New(sideGraphSeed)
	n := g.NumNodes()
	kinds := []reqKind{kindPair}
	if w.zipf {
		kinds = append(kinds, kindPairEps)
	}
	if w.sources == w.period && !w.zipf { // source_cold serves no pairs
		kinds = nil
	}
	for p := 0; p < sz.sidePairs; p++ {
		i, j := randomPair(src, n)
		for _, kind := range kinds {
			a, _, err := e.direct(request{kind: kind, i: i, j: j, lin: w.lin})
			if err != nil {
				return 0, err
			}
			note(a.score, truth.At(i, j))
		}
	}
	if w.sources == 0 && !w.zipf { // pair_cold serves no sources
		return worst, nil
	}
	for s := 0; s < sz.sideSources; s++ {
		q := src.Intn(n)
		// k = n asks for the whole row: every node's estimate is checked.
		a, _, err := e.direct(request{kind: kindSource, i: q, k: n, lin: w.lin})
		if err != nil {
			return 0, err
		}
		got := make([]float64, n)
		for _, nb := range a.results {
			got[nb.Node] = nb.Score
		}
		for j := 0; j < n; j++ {
			if j != q {
				note(got[j], truth.At(q, j))
			}
		}
	}
	return worst, nil
}
