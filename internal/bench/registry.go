package bench

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment of the Experiments index.
type Runner func(Config) ([]*Table, error)

// Experiments maps experiment ids to runners. Ids name the paper artifacts
// they regenerate (README, "Paper → code").
var Experiments = map[string]Runner{
	"datasets":          RunDatasets,
	"params":            RunParams,
	"table-broadcast":   func(c Config) ([]*Table, error) { return RunModelTable(c, "broadcast") },
	"table-rdd":         func(c Config) ([]*Table, error) { return RunModelTable(c, "rdd") },
	"table-compare":     RunCompareTable,
	"fig-convergence":   RunConvergence,
	"fig-models":        RunModels,
	"fig-effectiveness": RunEffectiveness,
	"fig-queryscaling":  RunQueryScaling,
	"fig-throughput":    RunThroughput,
	"ablation":          RunAblation,
	"bench-accuracy":    RunAccuracyBench,
}

// ExperimentNames returns the sorted experiment ids.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id and renders its tables to w.
func Run(id string, cfg Config, w io.Writer, asCSV bool) error {
	runner, ok := Experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentNames())
	}
	tables, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("bench: experiment %s: %w", id, err)
	}
	for _, t := range tables {
		if asCSV {
			if err := t.RenderCSV(w); err != nil {
				return err
			}
			continue
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every experiment in sorted id order.
func RunAll(cfg Config, w io.Writer, asCSV bool) error {
	for _, id := range ExperimentNames() {
		if err := Run(id, cfg, w, asCSV); err != nil {
			return err
		}
	}
	return nil
}
