package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is the
// share of the parent's median an end-to-end metric may worsen by;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. The program reads its vocabulary
// (workload and metric names, units, bounds) from the file instead of
// repeating it, so the two cannot drift apart: a value computed under an
// undeclared name, or a declared end-to-end metric left uncomputed, is an
// error at emit time.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the working directory, which is the
// checkout root (run.sh refuses to start anywhere else, and the tests
// change to it).
func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if err := check(m.Name); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one emitted metric, the wire shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit turns computed values into the declared metric set. End-to-end
// metrics must all be present; a per-layer metric whose layer does not run
// on this workload reads 0.
func emit(decl []metricSpec, vals map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decl))
	for _, m := range decl {
		v, ok := vals[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %q declared in BENCHMARK.json but not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite: %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q computed but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
