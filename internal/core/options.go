// Package core implements CloudWalker, the paper's primary contribution:
// offline estimation of the SimRank diagonal-correction matrix D by
// parallel Monte Carlo simulation and a parallel Jacobi solve, plus online
// single-pair (MCSP), single-source (MCSS), and all-pair (MCAP) queries
// whose cost is independent of graph size.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"cloudwalker/internal/walk"
)

// Options carries the CloudWalker parameters. Field names follow the
// paper's parameter table.
type Options struct {
	// C is the SimRank decay factor, 0 < C < 1. Paper default 0.6.
	C float64
	// T is the number of walk steps (series truncation). Paper default 10.
	T int
	// L is the number of Jacobi sweeps in the offline solve. Paper default 3.
	L int
	// R is the number of walkers used to estimate each row a_i during
	// indexing, at least 2. Paper default 100.
	R int
	// RPrime is the number of walkers used by the online MCSP/MCSS
	// queries. Paper default 10000.
	RPrime int
	// Workers bounds the goroutines used by parallel stages; 0 means
	// GOMAXPROCS.
	Workers int
	// Seed makes every Monte Carlo stage deterministic.
	Seed uint64
	// PruneEps truncates entries not above this in both passes of
	// PullSS's series, bounding frontier growth. 0 keeps all.
	PruneEps float64
}

// DefaultOptions returns the paper's default parameter table
// (c=0.6, T=10, L=3, R=100, R'=10000).
func DefaultOptions() Options {
	return Options{
		C:       0.6,
		T:       10,
		L:       3,
		R:       100,
		RPrime:  10000,
		Workers: 0,
		Seed:    1,
	}
}

// Validate reports the first invalid parameter. Range checks alone are
// not enough: every comparison with NaN is false, so a NaN parameter
// sails through `< 0 || > 1`-style guards — each float field is checked
// for finiteness explicitly.
func (o Options) Validate() error {
	if math.IsNaN(o.C) || math.IsInf(o.C, 0) {
		return fmt.Errorf("core: decay C=%g is not finite", o.C)
	}
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("core: decay C=%g outside (0,1)", o.C)
	}
	if o.T < 0 {
		return fmt.Errorf("core: negative walk length T=%d", o.T)
	}
	if o.L < 0 {
		return fmt.Errorf("core: negative Jacobi sweeps L=%d", o.L)
	}
	// A row entry's unbiased value k(k−1)/(R(R−1)) pairs two walkers; at
	// R = 1 every off-diagonal entry would be 0 and D all ones.
	if o.R < 2 {
		return fmt.Errorf("core: indexing walkers R=%d below 2: a row's unbiased estimate needs two walkers to pair", o.R)
	}
	// A row deposit packs (level, count) into walk.RowBits bits; beyond
	// that the level would spill into the node field, and R·T into int.
	if lb, cb := bits.Len(uint(o.T)), bits.Len(uint(o.R)); lb+cb > walk.RowBits {
		return fmt.Errorf("core: walk length T=%d (%d bits) with indexing walkers R=%d (%d bits) exceeds the %d bits of a row deposit",
			o.T, lb, o.R, cb, walk.RowBits)
	}
	if o.RPrime <= 0 {
		return fmt.Errorf("core: query walkers R'=%d must be positive", o.RPrime)
	}
	// Walker ids live in the low 32 bits of a frontier key and per-level
	// visit counts are int32; a larger R' would wrap to a negative count.
	if o.RPrime > math.MaxInt32 {
		return fmt.Errorf("core: query walkers R'=%d exceed the limit of %d", o.RPrime, math.MaxInt32)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	if math.IsNaN(o.PruneEps) || math.IsInf(o.PruneEps, 0) {
		return fmt.Errorf("core: prune threshold %g is not finite", o.PruneEps)
	}
	if o.PruneEps < 0 {
		return fmt.Errorf("core: negative prune threshold %g", o.PruneEps)
	}
	return nil
}

// NumWorkers resolves the effective worker count: Workers, or GOMAXPROCS
// when it is 0.
func (o Options) NumWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
