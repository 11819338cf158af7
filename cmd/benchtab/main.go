// Command benchtab regenerates the paper's evaluation tables and figures
// (the experiment index is internal/bench's Experiments; README's "Paper →
// code" maps ids to the paper).
//
// Usage:
//
//	benchtab -exp all                      # every experiment
//	benchtab -exp table-broadcast          # one experiment
//	benchtab -exp table-rdd -scale 0.1     # smaller datasets
//	benchtab -exp table-compare -csv       # CSV output
//	benchtab -list                         # list experiment ids
//
// Scale multiplies the synthetic dataset sizes (and the simulated
// per-machine memory, keeping the paper's broadcast-model memory wall at
// the same relative position). Scale 1.0 runs the full synthetic profile
// suite and can take tens of minutes for the RDD table, mirroring — at
// ~1/1000 size — the paper's hours-scale preprocessing runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cloudwalker/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := flag.Float64("scale", 0.25, "dataset scale factor (1.0 = full synthetic profiles)")
	profiles := flag.String("profiles", "", "comma-separated profile subset (default all)")
	queries := flag.Int("queries", 5, "queries averaged per measurement")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	workers := flag.Int("workers", 0, "worker goroutines (0 = all cores)")
	flag.Parse()

	if *list {
		for _, name := range bench.ExperimentNames() {
			fmt.Println(name)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.Opts.Workers = *workers
	if *profiles != "" {
		cfg.Profiles = strings.Split(*profiles, ",")
	}
	if !*quiet {
		cfg.Verbose = os.Stderr
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(cfg, os.Stdout, *csvOut)
	} else {
		err = bench.Run(*exp, cfg, os.Stdout, *csvOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
