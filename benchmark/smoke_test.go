package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The program runs from the checkout root (BENCHMARK.json, benchmark/out),
// `go test` from the package directory.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// The smoke run drives every workload, traced and untraced, at toy sizes,
// and this test holds the program to BENCHMARK.json: every declared
// workload and metric emitted exactly once per run with a finite value
// and its declared unit, and nothing emitted that the file does not
// declare.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-out", out}, &stdout); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	file, err := readOutFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if file.GoVersion == "" || file.GoMaxProcs == 0 || file.NumCPU == 0 || file.Commit == "" || file.Params == nil {
		t.Errorf("result file does not record its environment: %+v", file)
	}
	type key struct {
		workload string
		trace    bool
	}
	runs := map[key]recordedRun{}
	for _, r := range file.Runs {
		k := key{r.Workload, r.Trace}
		if _, dup := runs[k]; dup {
			t.Errorf("%v ran twice", k)
		}
		runs[k] = r
	}
	if len(runs) != 2*len(spec.Workloads) {
		t.Errorf("%d runs for %d workloads", len(runs), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			r, ok := runs[key{w.Name, trace}]
			if !ok {
				t.Errorf("workload %s trace=%v did not run", w.Name, trace)
				continue
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			decl := spec.EndToEnd
			if trace {
				decl = spec.PerLayer
			}
			if len(r.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(r.Metrics), len(decl))
			}
			for _, m := range decl {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.Name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s %s is not finite", w.Name, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
			}
		}
	}
}

// Every workload the program knows is declared, and the other way round.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, program says %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
