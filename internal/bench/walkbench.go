package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// The walk-kernel benchmark runs on a fixed graph shape and parameter set
// so that numbers recorded in BENCH_walk.json stay comparable across PRs.
// Scale/profile knobs from Config deliberately do NOT apply here: the file
// is a trajectory, and a trajectory is only meaningful against a fixed
// workload.
const (
	walkBenchNodes  = 20000
	walkBenchEdges  = 200000
	walkBenchSeed   = 1
	walkBenchR      = 50   // indexing walkers per row (estimate_row kernel)
	walkBenchRPrime = 1000 // query walkers (pair/source kernels)
	walkBenchT      = 10
	walkBenchTopK   = 20
	// walkBenchShardR is the walker count of the dist_sharded kernel,
	// the multi-core scaling row: large enough that sharding across
	// GOMAXPROCS workers dominates the merge, small enough to keep one
	// op under a few milliseconds single-threaded.
	walkBenchShardR = 20000
	// The adaptive kernel's accuracy target: the single_pair_adaptive
	// row runs SinglePairAdaptiveCtx at this (ε,δ) over the same pinned
	// pairs, and its walker_steps_saved_pct metric records the fraction
	// of the fixed R' budget adaptivity avoided (gated by `benchtab
	// -compare-adaptive`).
	walkBenchEpsilon = 0.01
	walkBenchDelta   = 0.05
)

// WalkBenchMetric is one kernel's measurement in a walk-bench run.
type WalkBenchMetric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// StepsPerSec is nominal walker-steps per second: each kernel has a
	// fixed nominal step count per op (dead walkers still count), so the
	// ratio between two runs is exactly the inverse ns/op ratio.
	StepsPerSec float64 `json:"walker_steps_per_sec,omitempty"`
	// StepsSavedPct is the fraction (0..1) of the fixed walker budget an
	// adaptive kernel avoided at the benchmark's (ε,δ) across the pinned
	// query set. It is measured by exact walker accounting, not timing,
	// so it is deterministic for a fixed seed and gets its own exact
	// regression gate (`benchtab -compare-adaptive`) instead of riding
	// the noisy throughput gate.
	StepsSavedPct float64 `json:"walker_steps_saved_pct,omitempty"`
	// SkipReason, when non-empty, marks this metric as not gateable: the
	// regression comparator reports it as skipped (with this reason)
	// instead of requiring a fresh measurement to beat it. Use it when a
	// recorded row cannot be reproduced on current hardware — e.g. a
	// multi-core scaling row recorded before CI moved to 1-core runners —
	// so the stale number stays in the trajectory as history without
	// silently gating against the wrong machine shape.
	SkipReason string `json:"skip_reason,omitempty"`
}

// WalkBenchRun is one recorded run (one row of the perf trajectory).
type WalkBenchRun struct {
	Label      string                     `json:"label"`
	GoVersion  string                     `json:"go_version"`
	GOOS       string                     `json:"goos"`
	GOARCH     string                     `json:"goarch"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Metrics    map[string]WalkBenchMetric `json:"metrics"`
}

// WalkBenchFile is the on-disk format of BENCH_walk.json: a fixed workload
// descriptor plus an append-only list of runs. Every future perf PR
// appends a run via `benchtab -exp bench-walk -json-out BENCH_walk.json
// -label "<what changed>"`.
type WalkBenchFile struct {
	Schema string `json:"schema"`
	Graph  struct {
		Kind  string `json:"kind"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
		Seed  uint64 `json:"seed"`
	} `json:"graph"`
	Opts struct {
		C      float64 `json:"c"`
		T      int     `json:"t"`
		R      int     `json:"r"`
		RPrime int     `json:"r_prime"`
	} `json:"opts"`
	Runs []WalkBenchRun `json:"runs"`
}

// walkBenchOpts returns the fixed parameter set of the kernel benchmark.
func walkBenchOpts() core.Options {
	opts := core.DefaultOptions()
	opts.T = walkBenchT
	opts.R = walkBenchR
	opts.RPrime = walkBenchRPrime
	opts.Workers = 1 // kernels are measured single-threaded
	opts.Seed = 7
	return opts
}

// kernelBench is one named micro-benchmark plus its nominal walker-step
// count per op (0 = not a stepping kernel).
type kernelBench struct {
	name       string
	stepsPerOp float64
	fn         func(b *testing.B)
}

// nominalStepsPerOp returns every kernel's fixed nominal walker-step
// count per op for the given parameters. It is shared by the recording
// path (RunWalkBench) and the CI regression comparator (CompareWalkBench)
// so the two can never disagree about what a ns/op measurement means in
// walker-steps/s.
func nominalStepsPerOp(opts core.Options) map[string]float64 {
	T := float64(opts.T)
	// Phase 1 of a single-source walk: R'·T backward steps; phase 2: a
	// forward walk of length t from every surviving (walker, step) pair —
	// nominally R'·T(T+1)/2 more.
	ss := float64(opts.RPrime) * (T + T*(T+1)/2)
	return map[string]float64{
		"single_pair":        2 * float64(opts.RPrime) * T, // two endpoints, R' walkers, T steps
		"single_source_walk": ss,
		"source_topk":        ss,
		"estimate_row":       float64(opts.R) * T,
		// The sharded driver runs walkBenchShardR walkers split across
		// GOMAXPROCS workers; output is bit-identical at any worker
		// count, so rows recorded at different GOMAXPROCS measure the
		// same work and compare purely on throughput.
		"dist_sharded": walkBenchShardR * T,
	}
}

// walkKernelBenches builds the kernel micro-benchmark set against a
// prepared querier. The same closures back both `go test -bench` (see
// bench_test.go) and the bench-walk experiment, so the smoke-tested code
// and the recorded numbers cannot drift apart.
func walkKernelBenches(g *graph.Graph, q *core.Querier, opts core.Options) []kernelBench {
	n := g.NumNodes()
	pairs := walkBenchPairs(n)
	steps := nominalStepsPerOp(opts)
	return []kernelBench{
		{
			name:       "single_pair",
			stepsPerOp: steps["single_pair"],
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := q.SinglePair(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The adaptive pair query at the benchmark (ε,δ). Its
			// throughput is workload-dependent by design (it runs only
			// the walkers the confidence bound demands), so no nominal
			// step count: the row is excluded from the steps/s gate and
			// gated on walker_steps_saved_pct instead.
			name: "single_pair_adaptive",
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], walkBenchEpsilon, walkBenchDelta); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:       "single_source_walk",
			stepsPerOp: steps["single_source_walk"],
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					node := pairs[i%len(pairs)][0]
					if _, err := q.SingleSource(node, core.WalkSS); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The /source serving path: a WalkSS estimate truncated to
			// the top-k neighbors.
			name:       "source_topk",
			stepsPerOp: steps["source_topk"],
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					node := pairs[i%len(pairs)][0]
					v, err := q.SingleSource(node, core.WalkSS)
					if err != nil {
						b.Fatal(err)
					}
					core.TopKNeighbors(v, node, walkBenchTopK)
				}
			},
		},
		{
			name:       "estimate_row",
			stepsPerOp: steps["estimate_row"],
			fn: func(b *testing.B) {
				b.ReportAllocs()
				est := walk.NewRowEstimator(g, opts.R)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.BuildRowWith(est, i%n, opts)
				}
			},
		},
		{
			// The multi-core scaling kernel: the level-synchronous
			// engine sharded across all available cores. GOMAXPROCS=1
			// rows measure the single-threaded batched kernel on the
			// same work; comparing rows across gomaxprocs values is the
			// recorded scaling curve.
			name:       "dist_sharded",
			stepsPerOp: steps["dist_sharded"],
			fn: func(b *testing.B) {
				b.ReportAllocs()
				workers := runtime.GOMAXPROCS(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					walk.DistributionsParallel(g, pairs[i%len(pairs)][0], opts.T,
						walkBenchShardR, workers, uint64(i))
				}
			},
		},
	}
}

// walkBenchPairs returns the benchmark's pinned query endpoints: fixed
// pseudo-random nodes so every run (and every PR) measures the same work.
func walkBenchPairs(n int) [][2]int {
	src := xrand.New(99)
	pairs := make([][2]int, 64)
	for i := range pairs {
		a, b := src.Intn(n), src.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		pairs[i] = [2]int{a, b}
	}
	return pairs
}

// MeasureAdaptiveSavings runs SinglePairAdaptiveCtx once per pinned pair and
// returns the fraction of the fixed walker budget the adaptive stops
// avoided: 1 − Σ walkers_run / Σ budget. Pure walker accounting — no
// timing — so the result is exactly reproducible for a fixed graph and
// seed, which is what lets CI gate on it with zero tolerance for noise.
func MeasureAdaptiveSavings(q *core.Querier, pairs [][2]int, eps, delta float64) (float64, error) {
	var run, budget int
	for _, p := range pairs {
		pe, err := q.SinglePairAdaptiveCtx(context.Background(), p[0], p[1], eps, delta)
		if err != nil {
			return 0, err
		}
		run += pe.Walkers
		budget += pe.Budget
	}
	if budget == 0 {
		return 0, fmt.Errorf("bench: adaptive savings measured over zero budget")
	}
	return 1 - float64(run)/float64(budget), nil
}

// walkBenchGraph generates the benchmark's fixed RMAT graph and its index.
func walkBenchGraph(cfg Config) (*graph.Graph, *core.Querier, core.Options, error) {
	opts := walkBenchOpts()
	g, err := gen.RMAT(walkBenchNodes, walkBenchEdges, gen.DefaultRMAT, walkBenchSeed)
	if err != nil {
		return nil, nil, opts, err
	}
	cfg.logf("[bench-walk] rmat at %d nodes / %d edges; building index (R=%d)...",
		g.NumNodes(), g.NumEdges(), opts.R)
	buildOpts := opts
	buildOpts.Workers = 0 // index build may use all cores; kernels stay 1-thread
	idx, _, err := core.BuildIndex(g, buildOpts)
	if err != nil {
		return nil, nil, opts, err
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		return nil, nil, opts, err
	}
	return g, q, opts, nil
}

// RunWalkBench (experiment id "bench-walk") micro-benchmarks the Monte
// Carlo walk kernels — single-pair, single-source, source+top-k, and row
// estimation — reporting ns/op, allocs/op, and walker-steps/sec. When
// Config.WalkJSONOut is set it appends the run to that JSON trajectory
// file (BENCH_walk.json at the repo root is the canonical one).
func RunWalkBench(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	g, q, opts, err := walkBenchGraph(cfg)
	if err != nil {
		return nil, err
	}

	run := WalkBenchRun{
		Label:      cfg.WalkLabel,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    make(map[string]WalkBenchMetric),
	}
	if run.Label == "" {
		run.Label = "unlabeled"
	}

	t := NewTable(
		fmt.Sprintf("Walk kernels (rmat @ %d nodes / %d edges, T=%d, R=%d, R'=%d, GOMAXPROCS=%d; query kernels 1-thread, dist_sharded uses all procs)",
			g.NumNodes(), g.NumEdges(), opts.T, opts.R, opts.RPrime, runtime.GOMAXPROCS(0)),
		"Kernel", "ns/op", "allocs/op", "B/op", "Msteps/s")
	for _, kb := range walkKernelBenches(g, q, opts) {
		cfg.logf("[bench-walk] measuring %s...", kb.name)
		res := testing.Benchmark(kb.fn)
		// testing.Benchmark swallows b.Fatal and returns a zero result;
		// refuse to record it as a measurement.
		if res.N == 0 {
			return nil, fmt.Errorf("bench: kernel %s failed to complete a single iteration", kb.name)
		}
		m := WalkBenchMetric{
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if kb.stepsPerOp > 0 && m.NsPerOp > 0 {
			m.StepsPerSec = kb.stepsPerOp / m.NsPerOp * 1e9
		}
		run.Metrics[kb.name] = m
		t.Add(kb.name,
			fmt.Sprintf("%.0f", m.NsPerOp),
			fmt.Sprintf("%d", m.AllocsPerOp),
			fmt.Sprintf("%d", m.BytesPerOp),
			fmt.Sprintf("%.2f", m.StepsPerSec/1e6))
	}

	// Attach the deterministic walker-savings measurement to the adaptive
	// kernel's row. Separate from the timing loop: testing.Benchmark picks
	// its own iteration count, but savings must be counted exactly once
	// per pinned pair.
	cfg.logf("[bench-walk] measuring adaptive walker savings (eps=%g, delta=%g)...",
		walkBenchEpsilon, walkBenchDelta)
	saved, err := MeasureAdaptiveSavings(q, walkBenchPairs(g.NumNodes()), walkBenchEpsilon, walkBenchDelta)
	if err != nil {
		return nil, err
	}
	m := run.Metrics["single_pair_adaptive"]
	m.StepsSavedPct = saved
	run.Metrics["single_pair_adaptive"] = m
	t.Add("adaptive walkers saved",
		fmt.Sprintf("%.1f%%", saved*100), "-", "-", "-")

	if cfg.WalkJSONOut != "" {
		if err := appendWalkBenchRun(cfg.WalkJSONOut, run); err != nil {
			return nil, err
		}
		cfg.logf("[bench-walk] appended run %q to %s", run.Label, cfg.WalkJSONOut)
	}
	return []*Table{t}, nil
}

// appendWalkBenchRun loads (or creates) the trajectory file and appends
// one run.
func appendWalkBenchRun(path string, run WalkBenchRun) error {
	var file WalkBenchFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("bench: parsing existing %s: %w", path, err)
		}
		// A trajectory is only meaningful against a fixed workload:
		// refuse to mix runs recorded under different shapes.
		opts := walkBenchOpts()
		if file.Graph.Nodes != walkBenchNodes || file.Graph.Edges != walkBenchEdges ||
			file.Graph.Seed != walkBenchSeed || file.Opts.C != opts.C ||
			file.Opts.T != walkBenchT || file.Opts.R != walkBenchR ||
			file.Opts.RPrime != walkBenchRPrime {
			return fmt.Errorf("bench: %s was recorded for a different workload (graph %+v, opts %+v); start a new trajectory file",
				path, file.Graph, file.Opts)
		}
	case os.IsNotExist(err):
		file.Schema = "cloudwalker-bench/v1"
		file.Graph.Kind = "rmat"
		file.Graph.Nodes = walkBenchNodes
		file.Graph.Edges = walkBenchEdges
		file.Graph.Seed = walkBenchSeed
		file.Opts.C = walkBenchOpts().C
		file.Opts.T = walkBenchT
		file.Opts.R = walkBenchR
		file.Opts.RPrime = walkBenchRPrime
	default:
		return err
	}
	file.Runs = append(file.Runs, run)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
