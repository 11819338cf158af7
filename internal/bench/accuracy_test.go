package bench

import (
	"strings"
	"testing"
)

// accuracyTestWorkload is a shrunken workload so the sanity tests measure
// in milliseconds.
func accuracyTestWorkload() AccuracyWorkload {
	return AccuracyWorkload{
		Nodes:          150,
		EdgesRequested: 1200,
		Edges:          0, // unpinned: the first measurement fills it
		GraphSeed:      23,
		C:              0.6,
		T:              5,
		R:              50,
		RPrime:         300,
		WalkSeed:       1,
		LinSweeps:      6,
		ExactIters:     15,
		Pairs:          24,
		Sources:        6,
		QuerySeed:      7,
	}
}

// measureAccuracyOnce caches one measurement across the tests in this
// file (the exact reference and index build dominate the cost).
var accuracyMeasured *AccuracyMeasurement

func measureAccuracy(t *testing.T) *AccuracyMeasurement {
	t.Helper()
	if accuracyMeasured == nil {
		m, err := MeasureAccuracy(Config{}, accuracyTestWorkload())
		if err != nil {
			t.Fatal(err)
		}
		accuracyMeasured = m
	}
	return accuracyMeasured
}

func TestMeasureAccuracySanity(t *testing.T) {
	m := measureAccuracy(t)
	for _, name := range accuracyPhases {
		met, ok := m.Metrics[name]
		if !ok {
			t.Fatalf("no %s metric in measurement", name)
		}
		if met.MaxAbsErr <= 0 || met.MaxAbsErr < met.MeanAbsErr {
			t.Fatalf("%s errors out of order: max %g, mean %g", name, met.MaxAbsErr, met.MeanAbsErr)
		}
		// Smoke ceilings: the linearized engine is deterministic on the
		// truncated series, so its error is pure truncation bias and must
		// stay small in absolute terms; Monte Carlo gets a loose bound
		// (coincident-walk pairs on degenerate chains bias it visibly —
		// which is exactly why the lin backend exists).
		ceiling := 0.5
		if strings.HasSuffix(name, "_lin") {
			ceiling = 0.05
		}
		if met.MaxAbsErr > ceiling {
			t.Fatalf("%s max |err| %g vs exact SimRank — backend broken", name, met.MaxAbsErr)
		}
	}
	// The linearized engine is exact on the truncated series: its error
	// (pure truncation + diagonal solve residual) must undercut the Monte
	// Carlo estimator's sampling noise on the same pairs.
	if lin, mc := m.Metrics["pair_lin"].MaxAbsErr, m.Metrics["pair_mc"].MaxAbsErr; lin >= mc {
		t.Fatalf("pair_lin max |err| %g not below pair_mc %g", lin, mc)
	}
	if m.Workload.Edges == 0 {
		t.Fatal("measurement did not pin the generated edge count")
	}
}

func TestMeasureAccuracyDeterministic(t *testing.T) {
	m1 := measureAccuracy(t)
	m2, err := MeasureAccuracy(Config{}, accuracyTestWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for name, met1 := range m1.Metrics {
		met2 := m2.Metrics[name]
		met2.AvgUs = met1.AvgUs // timing may differ; errors may not
		if met1 != met2 {
			t.Fatalf("%s not reproducible: %+v vs %+v", name, met1, met2)
		}
	}
}

// TestAccuracyPinned is the backend accuracy gate: both serving backends'
// errors against exact SimRank on the canonical workload, held to the
// values recorded when each phase was last deliberately moved. The
// measurement is deterministic, so the 5% headroom absorbs nothing but
// float reassociation; anything larger is an estimator change. Re-pinning
// a ceiling is a decision made in the diff that moves these constants.
func TestAccuracyPinned(t *testing.T) {
	const (
		pinnedEdges = 2511
		headroom    = 1.05
	)
	wl := DefaultAccuracyWorkload()
	if wl.Edges != pinnedEdges {
		t.Fatalf("DefaultAccuracyWorkload pins %d edges, want %d: an unpinned workload skips the generator-drift check",
			wl.Edges, pinnedEdges)
	}
	m, err := MeasureAccuracy(Config{}, wl)
	if err != nil {
		t.Fatal(err)
	}
	pinned := []struct {
		phase     string
		max, mean float64
	}{
		{"pair_mc", 1.106388e-2, 5.614209e-4},
		{"pair_lin", 1.788407e-4, 8.096652e-5},
		// What /source serves: the series pruned at 1e-3 over the
		// walked diagonal, 97× under source_mc's max.
		{"source", 1.970827e-3, 2.679458e-4},
		{"source_mc", 1.917657e-1, 3.384693e-3},
		{"source_lin", 1.913511e-4, 8.325662e-5},
	}
	if len(m.Metrics) != len(pinned) {
		t.Errorf("measured %d phases, %d pinned", len(m.Metrics), len(pinned))
	}
	for _, p := range pinned {
		got, ok := m.Metrics[p.phase]
		if !ok {
			t.Errorf("%s: not measured", p.phase)
			continue
		}
		if got.MaxAbsErr > p.max*headroom {
			t.Errorf("%s: max |err| %.6e exceeds pinned %.6e by more than 5%%", p.phase, got.MaxAbsErr, p.max)
		}
		if got.MeanAbsErr > p.mean*headroom {
			t.Errorf("%s: mean |err| %.6e exceeds pinned %.6e by more than 5%%", p.phase, got.MeanAbsErr, p.mean)
		}
	}
}
