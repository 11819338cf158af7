// Command benchmark is the repository's one performance benchmark: the
// workloads, end-to-end metrics and per-layer metrics that BENCHMARK.json
// declares, measured in one process over real loopback HTTP. README.md in
// this directory explains each workload and how to read the output.
//
//	bash benchmark/run.sh                                  every workload, untraced then traced
//	bash benchmark/run.sh -workload pair_cold -trace 0     one run; the last stdout line is its result
//	bash benchmark/run.sh -repeat 3 -out a.json            medians and quartiles over seeds
//	bash benchmark/run.sh -compare a.json b.json           verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// driverResult is the line the driver reads: the last line of stdout.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// recordedRun is one run in an -out file.
type recordedRun struct {
	runResult
	Metrics map[string]metricValue `json:"metrics"`
}

// outFile is what -out writes: the runs, and the inputs and machine that
// produced them, so a recorded number always names where it came from.
type outFile struct {
	GoVersion  string         `json:"go_version"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Repeat     int            `json:"repeat"`
	Seconds    float64        `json:"seconds"`
	Smoke      bool           `json:"smoke"`
	Params     map[string]any `json:"params"`
	Runs       []recordedRun  `json:"runs"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "seed of the request streams and arrival schedule")
	// The driver passes --seconds <run_seconds> on every run. Nothing else
	// should: -compare refuses two files measured with different windows.
	seconds := fs.Float64("seconds", 0, "measured window in seconds; the driver passes run_seconds of BENCHMARK.json, which is also the default")
	traceFlag := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; both")
	repeat := fs.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...; prints medians and quartiles")
	out := fs.String("out", "", "write every run and the environment to this JSON file")
	smoke := fs.Bool("smoke", false, "tiny graphs and windows: checks the plumbing, measures nothing")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	sz := fullSizes
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		sz, *seconds = smokeSizes, smokeSeconds
	}
	var modes []bool
	switch *traceFlag {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace: want 0, 1 or both, got %q", *traceFlag)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok || !spec.hasWorkload(*name) {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if !spec.hasWorkload(w.name) {
			return fmt.Errorf("workload %q is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(selected) != len(spec.Workloads) && *name == "" {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(selected))
	}

	file := outFile{
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commitHash(), Seed: *seed, Repeat: *repeat, Seconds: *seconds, Smoke: *smoke,
		Params: params(sz),
	}
	allCorrect := true
	for _, w := range selected {
		for _, trace := range modes {
			for k := 0; k < *repeat; k++ {
				res, err := runOne(w, *seed+uint64(k), *seconds, trace, sz)
				if err != nil {
					return err
				}
				decl, required := spec.EndToEnd, true
				if trace {
					decl, required = spec.PerLayer, false
				}
				metrics, err := emit(decl, res.Values, required)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				printRun(stdout, res, decl, metrics)
				line, err := json.Marshal(driverResult{res.Correct, res.Attempted, res.Failed, metrics})
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%s\n", line)
				allCorrect = allCorrect && res.Correct
				file.Runs = append(file.Runs, recordedRun{*res, metrics})
			}
		}
	}
	if *repeat > 1 {
		printSummary(stdout, spec, file.Runs)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("a run failed its answer or validity checks (see the problems above)")
	}
	return nil
}

// printRun lists every metric of a run by name with its unit, in
// BENCHMARK.json's order, before the machine-readable line.
func printRun(w io.Writer, res *runResult, decl []metricSpec, metrics map[string]metricValue) {
	mode := "end-to-end, tracing off"
	if res.Trace {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, m := range decl {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(v, n=4) default), which
// is what the acceptance rule is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// series collects, per workload and end-to-end metric, the values of the
// untraced runs in a result set.
func series(runs []recordedRun) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func printSummary(w io.Writer, spec *benchSpec, runs []recordedRun) {
	ser := series(runs)
	fmt.Fprintf(w, "\n%-14s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := ser[wl.Name][m.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(w, "%-14s %-14s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%\n",
				wl.Name, m.Name, q1, q2, q3, 100*ratio(q3-q1, q2), 100*m.Bound)
		}
	}
}

func commitHash() string {
	raw, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(raw))
}

// params records every workload's inputs.
func params(sz sizes) map[string]any {
	return map[string]any{
		"index_options": indexOpts, "lin_options": linOpts,
		"clients": clients, "fleet_shards": fleetShards,
		"graphs": map[string]any{
			"big":   []int{sz.bigN, sz.bigM, bigGraphSeed},
			"lin":   []int{sz.linN, sz.linM, linGraphSeed},
			"build": []int{sz.buildN, sz.buildM, buildGraphSeed},
			"side":  []int{sz.sideN, sz.sideM, sideGraphSeed},
		},
		"zipf":   map[string]any{"keys": zipfKeys, "s": zipfS, "rate_per_s": sz.zipfRate, "warmup_requests": sz.zipfWarmup},
		"warmup": sz.coldWarmup, "setup_reps": sz.setupReps,
		"trace_prefix": map[string]int{"pair_like": sz.tracePairs, "source_like": sz.traceSources},
		"sample_every": sampleEvery, "adaptive_epsilon": adaptiveEps, "adaptive_delta": adaptiveDelta,
		"batch_size": batchSize, "source_k": sourceK,
	}
}
