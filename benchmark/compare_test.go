package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the acceptance spreads are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	loose := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10), verdictWithin},
		{"slightly worse", lower, tight(10), tight(10.5), verdictWithin},
		{"worse beyond bound", lower, tight(10), tight(11.5), verdictRegressed},
		{"better", lower, tight(10), tight(8), verdictImproved},
		{"higher-is-better dropped", higher, tight(1000), tight(850), verdictRegressed},
		{"higher-is-better rose", higher, tight(1000), tight(1200), verdictImproved},
		{"spread wider than bound", lower, loose(10), loose(10.2), verdictUnresolved},
		{"regression shows through a wide spread", lower, loose(10), loose(13), verdictRegressed},
	} {
		if _, _, _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// -compare must refuse result files that were not measured the same way,
// and hold the deterministic accuracy figure to its own bound.
func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	wl := spec.Workloads[0].Name
	file := func(seconds float64, smoke bool, seed uint64, zipfRate, maxAbsErr float64) string {
		f := outFile{Seed: seed, Repeat: 1, Seconds: seconds, Smoke: smoke, Params: map[string]any{"zipf_rate": zipfRate}}
		run := recordedRun{Metrics: map[string]metricValue{}}
		run.Workload, run.MaxAbsErr = wl, maxAbsErr
		for _, m := range spec.EndToEnd {
			run.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		f.Runs = []recordedRun{run}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(10, false, 1, 1000, 0.0064)
	for _, tc := range []struct {
		name    string
		other   string
		wantErr string
	}{
		{"same inputs", file(10, false, 1, 1000, 0.0064), ""},
		{"accuracy within its bound", file(10, false, 1, 1000, 0.0065), ""},
		{"accuracy spent", file(10, false, 1, 1000, 0.0066), "regressed"},
		{"another window", file(20, false, 1, 1000, 0.0064), "windows differ"},
		{"smoke against full", file(10, true, 1, 1000, 0.0064), "-smoke"},
		{"another seed", file(10, false, 2, 1000, 0.0064), "seeds differ"},
		{"other parameters", file(10, false, 1, 1500, 0.0064), "parameters differ"},
	} {
		var out bytes.Buffer
		err := compareFiles(spec, base, tc.other, &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v\n%s", tc.name, err, out.String())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
