// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each Benchmark* maps to one experiment id of
// internal/bench's Experiments (README, "Paper → code"); cmd/benchtab runs
// the same experiments at full scale and prints the tables.
//
// The benchmarks run the experiments at a reduced scale so that
// `go test -bench=. -benchmem` finishes in minutes; pass
// -benchtime=1x (the default behaviour here is already one iteration per
// run) and run cmd/benchtab for full-scale numbers.
package cloudwalker

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"cloudwalker/internal/bench"
	"cloudwalker/internal/core"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/sparse"
)

// mustSystem wraps the indexing matrix in a linear system with b = 1.
func mustSystem(b *testing.B, a linsys.Matrix) *linsys.System {
	b.Helper()
	sys, err := linsys.NewSystem(a, linsys.Ones(a.Rows()))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchConfig returns a harness config scaled for benchmark time.
func benchConfig(scale float64, profiles ...string) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = scale
	cfg.Profiles = profiles
	cfg.Queries = 3
	return cfg
}

// runExperiment executes one experiment id once per benchmark iteration.
func runExperiment(b *testing.B, id string, cfg bench.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, cfg, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableDatasets regenerates the dataset table (paper Table 1).
func BenchmarkTableDatasets(b *testing.B) {
	runExperiment(b, "datasets", benchConfig(0.05))
}

// BenchmarkTableParams regenerates the parameter table (paper Table 2).
func BenchmarkTableParams(b *testing.B) {
	runExperiment(b, "params", benchConfig(1))
}

// BenchmarkTableBroadcast regenerates the broadcasting-model table (paper
// Table 3: D / MCSP / MCSS per dataset).
func BenchmarkTableBroadcast(b *testing.B) {
	runExperiment(b, "table-broadcast", benchConfig(0.02))
}

// BenchmarkTableRDD regenerates the RDD-model table (paper Table 4).
func BenchmarkTableRDD(b *testing.B) {
	cfg := benchConfig(0.02)
	cfg.Opts.RPrime = 2000 // RDD queries shuffle every step; keep bench tractable
	runExperiment(b, "table-rdd", cfg)
}

// BenchmarkTableCompare regenerates the FMT / LIN / CloudWalker comparison
// (paper Table 5).
func BenchmarkTableCompare(b *testing.B) {
	cfg := benchConfig(0.02, "wiki-vote", "wiki-talk", "twitter-2010")
	cfg.FMTBudget = 1 << 20
	runExperiment(b, "table-compare", cfg)
}

// BenchmarkFigConvergence regenerates the effectiveness figure
// ("CloudWalker converges quickly").
func BenchmarkFigConvergence(b *testing.B) {
	cfg := benchConfig(0.05)
	cfg.Opts.R = 50
	cfg.Opts.RPrime = 500
	runExperiment(b, "fig-convergence", cfg)
}

// BenchmarkFigModels regenerates the systems figure ("Broadcasting is more
// efficient, but RDD is more scalable").
func BenchmarkFigModels(b *testing.B) {
	cfg := benchConfig(0.02)
	cfg.Opts.R = 20
	runExperiment(b, "fig-models", cfg)
}

// ---- Micro-benchmarks of the core pipeline pieces ----

func benchGraphAndIndex(b *testing.B, n, m int) (*Graph, *Index) {
	b.Helper()
	g, err := GenerateRMAT(n, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RPrime = 1000
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	return g, idx
}

// BenchmarkBuildIndexWikiVote measures the offline D estimation at the
// wiki-vote scale with the paper's parameters.
func BenchmarkBuildIndexWikiVote(b *testing.B) {
	g, err := GenerateRMAT(7100, 103000, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildIndex(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCSP measures single-pair query latency (paper: milliseconds,
// independent of graph size).
func BenchmarkMCSP(b *testing.B) {
	g, idx := benchGraphAndIndex(b, 7100, 103000)
	q, err := NewQuerier(g, idx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.SinglePair(i%g.NumNodes(), (i*7+1)%g.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCSSWalk measures single-source latency with the paper's pure
// Monte Carlo estimator.
func BenchmarkMCSSWalk(b *testing.B) {
	g, idx := benchGraphAndIndex(b, 7100, 103000)
	q, err := NewQuerier(g, idx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.SingleSource(i%g.NumNodes(), WalkSS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCSSPull measures PullSS, the series single-source estimator
// (exact forward pass, one backward Horner pass) at PruneEps 0.
func BenchmarkMCSSPull(b *testing.B) {
	g, idx := benchGraphAndIndex(b, 7100, 103000)
	q, err := NewQuerier(g, idx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.SingleSource(i%g.NumNodes(), PullSS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueriesG100k runs the query kernels on pair_cold's graph and
// options (RMAT(100000, 1000000), seed 1001; R' = 1000, T = 10) over
// uniformly random distinct node pairs, as the serving benchmark draws
// them: a fixed-budget pair, an ε=0.01 pair and the single-source query
// /source serves (ServedSourceInto, the series pruned at 1e-3). A pair's
// ns/step is time per nominal walker step, 2·R'·T whatever the adaptive
// stop, the unit of the benchmark's walk.pair_dist_ns_per_step; the
// source walks nothing and reports ns/op only (BenchmarkSeriesG100k's
// source/walk times the MCSS walk). BenchmarkMCSP's 7.1k-node graph stays
// in cache; at 100k nodes the kernels wait on memory, which is what a
// kernel change has to move.
func BenchmarkQueriesG100k(b *testing.B) {
	g, err := GenerateRMAT(100000, 1000000, 1001)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Workers: 2, Seed: 7}
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(1))
	keys := make([][2]int, 4096)
	for k := range keys {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		keys[k] = [2]int{i, j}
	}
	run := func(b *testing.B, steps int, query func(i, j int) error) {
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			p := keys[k%len(keys)]
			if err := query(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
		if steps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(steps)), "ns/step")
		}
	}
	pairSteps := 2 * opts.RPrime * opts.T
	b.Run("pair", func(b *testing.B) {
		run(b, pairSteps, func(i, j int) error {
			_, err := q.SinglePair(i, j)
			return err
		})
	})
	b.Run("pair_eps", func(b *testing.B) {
		run(b, pairSteps, func(i, j int) error {
			_, err := q.SinglePairAdaptiveCtx(context.Background(), i, j, 0.01, 0.05)
			return err
		})
	})
	var out Vector
	b.Run("source", func(b *testing.B) {
		run(b, 0, func(i, _ int) error {
			return q.ServedSourceInto(context.Background(), i, &out)
		})
	})
}

// BenchmarkQueryScaleInvariance demonstrates the paper's headline query
// property: MCSP latency stays flat as the graph grows 16x.
func BenchmarkQueryScaleInvariance(b *testing.B) {
	for _, size := range []struct {
		name string
		n, m int
	}{
		{"n=8k", 8_000, 100_000},
		{"n=32k", 32_000, 400_000},
		{"n=128k", 128_000, 1_600_000},
	} {
		b.Run(size.name, func(b *testing.B) {
			g, idx := benchGraphAndIndex(b, size.n, size.m)
			q, err := NewQuerier(g, idx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.SinglePair(i%g.NumNodes(), (i*13+5)%g.NumNodes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJacobiAblation compares the paper's parallel Jacobi choice with
// sequential Gauss–Seidel on the same indexing system (benchtab's
// ablation experiment).
func BenchmarkJacobiAblation(b *testing.B) {
	g, err := GenerateRMAT(5000, 60000, 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	a, err := core.BuildSystem(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("jacobi-parallel", func(b *testing.B) {
		sys := mustSystem(b, a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Jacobi(opts.L, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gauss-seidel-sequential", func(b *testing.B) {
		sys := mustSystem(b, a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.GaussSeidel(opts.L, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- The series kernel (internal/linserve) ----
//
// The frontier matvecs behind backend=lin, timed without the serving tier:
// ns/edge is time per adjacency entry the kernel read (a pushed level
// reads its frontier's rows, a pulled level all m, a pair level whose two
// sides pull together m once), edges/op what a query reads. Queries come from nodes with in-links, as lin_cold's do.

// seriesKeys returns 256 pairs of nodes of g that have in-links.
func seriesKeys(g *Graph) [][2]int {
	var nodes []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) > 0 {
			nodes = append(nodes, v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][2]int, 256)
	for i := range keys {
		keys[i] = [2]int{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
	}
	return keys
}

func benchSeries(b *testing.B, e *LinEngine, source bool) {
	b.Helper()
	keys := seriesKeys(e.Graph())
	var out sparse.Vector
	b.ReportAllocs()
	before := e.EdgesTraversed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		var err error
		if source {
			err = e.SingleSourceInto(context.Background(), k[0], &out)
		} else {
			_, err = e.SinglePair(k[0], k[1])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	edges := float64(e.EdgesTraversed() - before)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
	b.ReportMetric(edges/float64(b.N), "edges/op")
}

// BenchmarkSeriesG4k is lin_cold's engine — the benchmark's 4k-node graph
// and options, diagonal from linserve.Build — on its two query kinds.
func BenchmarkSeriesG4k(b *testing.B) {
	g, err := GenerateRMAT(4000, 32000, 1002)
	if err != nil {
		b.Fatal(err)
	}
	e, err := BuildLinEngine(g, LinOptions{C: 0.6, T: 10, Sweeps: 5, Workers: 2, BuildPruneEps: 1e-6, PruneEps: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pair", func(b *testing.B) { benchSeries(b, e, false) })
	b.Run("source", func(b *testing.B) { benchSeries(b, e, true) })
}

// BenchmarkSeriesG100k is the series kernel on pair_cold's graph,
// RMAT(100000, 1000000) seed 1001, over the diagonal of the index that
// pair_cold's options build: sources at ε = 1e-3, the setting /source
// serves (ServedSourceInto), and at 7e-4, pairs at ε = 3e-3 (ROADMAP
// measurement P's setting), and the paper's walk single-source WalkSS
// from the same nodes, for the series/walk cost ratio.
func BenchmarkSeriesG100k(b *testing.B) {
	g, err := GenerateRMAT(100000, 1000000, 1001)
	if err != nil {
		b.Fatal(err)
	}
	idx, _, err := BuildIndex(g, Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Workers: 2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	engine := func(eps float64) *LinEngine {
		e, err := linserve.New(g, idx.Diag, LinOptions{C: 0.6, T: 10, Sweeps: 1, PruneEps: eps})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	for _, eps := range []float64{1e-3, 7e-4} {
		e := engine(eps)
		b.Run(fmt.Sprintf("source/eps=%g", eps), func(b *testing.B) { benchSeries(b, e, true) })
	}
	e := engine(3e-3)
	b.Run("pair/eps=0.003", func(b *testing.B) { benchSeries(b, e, false) })
	q, err := NewQuerier(g, idx)
	if err != nil {
		b.Fatal(err)
	}
	keys := seriesKeys(g)
	var out Vector
	b.Run("source/walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := q.SingleSourceInto(context.Background(), keys[i%len(keys)][0], WalkSS, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
