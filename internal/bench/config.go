package bench

import (
	"fmt"
	"io"
	"time"

	"cloudwalker/internal/cluster"
	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// Config parameterizes every experiment. Zero values are filled by
// Normalize.
type Config struct {
	// Scale multiplies every profile's node and edge counts (and the
	// per-machine memory budget, so the broadcast-model memory wall
	// stays at the same relative position the paper observed). 1.0 uses
	// the profile defaults from internal/gen.
	Scale float64
	// Profiles restricts the dataset list (empty = all five).
	Profiles []string
	// Opts are the CloudWalker parameters (paper defaults).
	Opts core.Options
	// Cluster is the simulated cluster shape (paper: 10 × 16 cores).
	Cluster cluster.Config
	// Queries is how many single-pair/single-source queries are averaged
	// per measurement.
	Queries int
	// FMTSamples is the fingerprint baseline's sample count.
	FMTSamples int
	// FMTBudget is the fingerprint index memory gate in bytes. The
	// default admits only the smallest dataset, matching the paper's
	// N/A cells.
	FMTBudget int64
	// LINPrune is the LIN column's row-expansion threshold, the
	// linearized engine's BuildPruneEps (exact = 0 is intractable beyond
	// toy graphs; the harness defaults to 1e-3). LIN's queries stay
	// exact.
	LINPrune float64
	// LINMaxEdges skips LIN on graphs above this edge count, rendering
	// "-" like the paper's clue-web cells.
	LINMaxEdges int
	// Verbose receives progress lines (nil = silent).
	Verbose io.Writer
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{
		Scale:      1.0,
		Opts:       core.DefaultOptions(),
		Cluster:    cluster.DefaultConfig(),
		Queries:    5,
		FMTSamples: 400,
		FMTBudget:  64 << 20,
		LINPrune:   1e-3,
		// LINMaxEdges is filled by Normalize (scale-aware).
	}
}

// Normalize fills zero values and applies the scale to the memory budget.
func (c *Config) Normalize() error {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Queries <= 0 {
		c.Queries = 5
	}
	if c.FMTSamples <= 0 {
		c.FMTSamples = 400
	}
	if c.Opts.C == 0 {
		c.Opts = core.DefaultOptions()
	}
	if c.Cluster.Machines == 0 {
		c.Cluster = cluster.DefaultConfig()
	}
	if c.FMTBudget == 0 {
		c.FMTBudget = 64 << 20
	}
	if c.LINPrune == 0 {
		c.LINPrune = 1e-3
	}
	if c.LINMaxEdges == 0 {
		// Scale-aware cutoff that keeps LIN's exact queries tractable on
		// all but the largest profile — reproducing the paper's "-" cells
		// for LIN on clue-web.
		c.LINMaxEdges = int(6_000_000 * c.Scale)
	}
	// Keep the broadcast memory wall at the paper's relative position:
	// clue-web must not fit whole, the rest must.
	c.Cluster.MemoryPerMachine = int64(float64(c.Cluster.MemoryPerMachine) * c.Scale)
	if c.Cluster.MemoryPerMachine < 1<<16 {
		c.Cluster.MemoryPerMachine = 1 << 16
	}
	if err := c.Opts.Validate(); err != nil {
		return err
	}
	return c.Cluster.Validate()
}

// logf writes progress if Verbose is set.
func (c *Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// Dataset is a generated profile graph.
type Dataset struct {
	Profile gen.Profile
	Graph   *graph.Graph
	GenTime time.Duration
}

// Datasets generates the selected profiles at the configured scale.
func (c *Config) Datasets() ([]Dataset, error) {
	want := c.Profiles
	if len(want) == 0 {
		for _, p := range gen.Profiles {
			want = append(want, p.Name)
		}
	}
	out := make([]Dataset, 0, len(want))
	for _, name := range want {
		p, err := gen.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if c.Scale != 1.0 {
			p = p.Scaled(c.Scale)
		}
		c.logf("generating %s (%d nodes, %d edges)...", p.Name, p.Nodes, p.Edges)
		start := time.Now()
		g, err := p.Generate()
		if err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		out = append(out, Dataset{Profile: p, Graph: g, GenTime: time.Since(start)})
	}
	return out, nil
}

// queryNodes picks `count` deterministic pseudo-random distinct-ish node
// pairs for query timing.
func queryNodes(n, count int, seed uint64) [][2]int {
	src := xrand.New(seed)
	out := make([][2]int, count)
	for i := range out {
		a := src.Intn(n)
		b := src.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		out[i] = [2]int{a, b}
	}
	return out
}
