package bench

// Backend accuracy: how far each serving backend's answers sit from
// ground truth (internal/exact) on a pinned workload — max and mean
// absolute error for the Monte Carlo estimator, the series /source serves
// over its diagonal, and the linearized engine, over pinned pair and
// single-source query sets.
//
// Everything the errors depend on is pinned by AccuracyWorkload: the
// graph (shape + generator seed), the walk parameters and seed, the
// linearized engine's parameters, the exact-reference iteration count,
// and the query sets. Walks are deterministic per (graph, seed) and the
// linearized engine is deterministic outright, so a measurement on any
// machine reproduces the same errors exactly; TestAccuracyPinned holds
// them to recorded ceilings on every `go test`. Per-query latency rides
// along in the table for context only.

import (
	"context"
	"fmt"
	"math"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// AccuracyWorkload pins the fixed workload the backend errors are
// measured on.
type AccuracyWorkload struct {
	// Graph: RMAT at GraphSeed; Edges pins the post-dedup count the
	// generator must yield, so a generator change cannot silently move
	// the goalposts (0 = unpinned: MeasureAccuracy fills it in).
	Nodes          int
	EdgesRequested int
	Edges          int
	GraphSeed      uint64
	// Shared truncation: the index, the linearized engine, and both
	// backends answer the T-truncated series at decay C.
	C float64
	T int
	// Monte Carlo budgets and seed.
	R        int
	RPrime   int
	WalkSeed uint64
	// Linearized engine build.
	LinSweeps int
	// ExactIters is the power-iteration count of the ground-truth
	// reference (internal/exact.Naive).
	ExactIters int
	// Query sets, drawn from QuerySeed.
	Pairs     int
	Sources   int
	QuerySeed uint64
}

// DefaultAccuracyWorkload is the canonical workload: small enough that
// the dense exact reference and the measurement run in well under a
// second, large enough that the RMAT tail gives both backends non-trivial
// multi-hop neighborhoods to disagree on.
func DefaultAccuracyWorkload() AccuracyWorkload {
	return AccuracyWorkload{
		Nodes:          400,
		EdgesRequested: 3200,
		Edges:          2511, // what RMAT yields after dropping collisions
		GraphSeed:      23,
		C:              0.6,
		T:              8,
		R:              100,
		RPrime:         1000,
		WalkSeed:       1,
		LinSweeps:      8,
		ExactIters:     25,
		Pairs:          64,
		Sources:        16,
		QuerySeed:      7,
	}
}

// accuracyPhases lists the measured phases in table order.
// "source" is what /source serves (core.Querier.ServedSourceInto, the
// pruned series over the Monte Carlo index's diagonal); "source_mc" is the
// paper's MCSS walk over the same diagonal.
var accuracyPhases = []string{"pair_mc", "pair_lin", "source", "source_mc", "source_lin"}

// AccuracyMetric is one phase's error against ground truth.
type AccuracyMetric struct {
	Queries    int
	MaxAbsErr  float64
	MeanAbsErr float64
	// AvgUs is mean wall time per query — reported for context only.
	AvgUs float64
}

// AccuracyMeasurement is one measurement: the per-phase metrics (keyed
// by accuracyPhases) plus the workload they were taken under, Edges
// filled in.
type AccuracyMeasurement struct {
	Workload AccuracyWorkload
	Metrics  map[string]AccuracyMetric
}

// MeasureAccuracy builds the pinned workload (graph, exact reference,
// Monte Carlo index, linearized engine) and measures every phase's error
// against ground truth. Deterministic: repeated calls return
// bit-identical errors.
func MeasureAccuracy(cfg Config, wl AccuracyWorkload) (*AccuracyMeasurement, error) {
	g, err := gen.RMAT(wl.Nodes, wl.EdgesRequested, gen.DefaultRMAT, wl.GraphSeed)
	if err != nil {
		return nil, err
	}
	if wl.Edges != 0 && g.NumEdges() != wl.Edges {
		return nil, fmt.Errorf("bench: accuracy graph yielded %d edges, workload pins %d (generator drift)",
			g.NumEdges(), wl.Edges)
	}
	wl.Edges = g.NumEdges()

	cfg.logf("[bench-accuracy] rmat at %d nodes / %d edges; exact reference (%d iters)...",
		g.NumNodes(), g.NumEdges(), wl.ExactIters)
	ex, err := exact.Naive(g, wl.C, wl.ExactIters)
	if err != nil {
		return nil, err
	}

	opts := core.DefaultOptions()
	opts.C = wl.C
	opts.T = wl.T
	opts.R = wl.R
	opts.RPrime = wl.RPrime
	opts.Seed = wl.WalkSeed
	opts.Workers = 0 // build may use all cores; estimates are worker-invariant
	cfg.logf("[bench-accuracy] building index (T=%d, R=%d, R'=%d)...", wl.T, wl.R, wl.RPrime)
	idx, _, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		return nil, err
	}

	lopts := linserve.DefaultOptions()
	lopts.C = wl.C
	lopts.T = wl.T
	lopts.Sweeps = wl.LinSweeps
	cfg.logf("[bench-accuracy] building linearized engine (sweeps=%d)...", wl.LinSweeps)
	eng, err := linserve.Build(g, lopts)
	if err != nil {
		return nil, err
	}

	pairs := queryNodes(wl.Nodes, wl.Pairs, wl.QuerySeed)
	srcRand := xrand.New(wl.QuerySeed + 1)
	sources := make([]int, wl.Sources)
	for i := range sources {
		sources[i] = srcRand.Intn(wl.Nodes)
	}

	metrics := make(map[string]AccuracyMetric)

	measurePairs := func(name string, f func(i, j int) (float64, error)) error {
		var acc errAccum
		start := time.Now()
		for _, p := range pairs {
			got, err := f(p[0], p[1])
			if err != nil {
				return fmt.Errorf("bench: %s s(%d,%d): %w", name, p[0], p[1], err)
			}
			acc.add(got - ex.At(p[0], p[1]))
		}
		metrics[name] = acc.metric(len(pairs), time.Since(start))
		return nil
	}
	measureSources := func(name string, f func(q int) (*sparse.Vector, error)) error {
		var acc errAccum
		start := time.Now()
		for _, s := range sources {
			v, err := f(s)
			if err != nil {
				return fmt.Errorf("bench: %s source %d: %w", name, s, err)
			}
			got := v.Dense(wl.Nodes)
			want := ex.Row(s)
			for j := range got {
				// Skip the self entry: serving excludes it (TopKNeighbors),
				// and the walk estimator doesn't claim s(q,q)=1, so it would
				// only record a constant artifact, not backend accuracy.
				if j == s {
					continue
				}
				acc.add(got[j] - want[j])
			}
		}
		metrics[name] = acc.metric(len(sources), time.Since(start))
		return nil
	}

	if err := measurePairs("pair_mc", q.SinglePair); err != nil {
		return nil, err
	}
	if err := measurePairs("pair_lin", eng.SinglePair); err != nil {
		return nil, err
	}
	if err := measureSources("source", func(s int) (*sparse.Vector, error) {
		v := &sparse.Vector{}
		return v, q.ServedSourceInto(context.Background(), s, v)
	}); err != nil {
		return nil, err
	}
	if err := measureSources("source_mc", func(s int) (*sparse.Vector, error) {
		return q.SingleSource(s, core.WalkSS)
	}); err != nil {
		return nil, err
	}
	if err := measureSources("source_lin", eng.SingleSource); err != nil {
		return nil, err
	}
	return &AccuracyMeasurement{Workload: wl, Metrics: metrics}, nil
}

// errAccum folds per-entry absolute errors into a phase metric.
type errAccum struct {
	max   float64
	sum   float64
	count int
}

func (a *errAccum) add(diff float64) {
	d := math.Abs(diff)
	if d > a.max {
		a.max = d
	}
	a.sum += d
	a.count++
}

func (a *errAccum) metric(queries int, elapsed time.Duration) AccuracyMetric {
	m := AccuracyMetric{Queries: queries, MaxAbsErr: a.max}
	if a.count > 0 {
		m.MeanAbsErr = a.sum / float64(a.count)
	}
	if queries > 0 {
		m.AvgUs = float64(elapsed.Microseconds()) / float64(queries)
	}
	return m
}

// RunAccuracyBench (experiment id "bench-accuracy") measures both
// backends' errors on the canonical workload and renders them.
func RunAccuracyBench(cfg Config) ([]*Table, error) {
	wl := DefaultAccuracyWorkload()
	m, err := MeasureAccuracy(cfg, wl)
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("Backend accuracy vs exact SimRank (rmat @ %d nodes / %d edges, c=%g, T=%d, R=%d, R'=%d)",
			wl.Nodes, m.Workload.Edges, wl.C, wl.T, wl.R, wl.RPrime),
		"Phase", "queries", "max |err|", "mean |err|", "avg us")
	for _, name := range accuracyPhases {
		met, ok := m.Metrics[name]
		if !ok {
			continue
		}
		t.Add(name,
			fmt.Sprintf("%d", met.Queries),
			fmt.Sprintf("%.2e", met.MaxAbsErr),
			fmt.Sprintf("%.2e", met.MeanAbsErr),
			fmt.Sprintf("%.1f", met.AvgUs))
	}
	return []*Table{t}, nil
}
