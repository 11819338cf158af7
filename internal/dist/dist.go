// Package dist implements the paper's two cluster execution models for
// CloudWalker on the simulated cluster of internal/cluster:
//
//   - BroadcastEngine replicates the whole graph on every machine and runs
//     the Monte Carlo indexing walks embarrassingly parallel — the paper's
//     faster model, limited to graphs that fit in one machine's memory.
//   - RDDEngine partitions the graph across machines with internal/rdd and
//     shuffles the walker frontier to the owning partition every step —
//     the paper's slower (5–10× in simulated wall time) but memory-
//     scalable model, the one that survives clue-web.
//
// Both engines produce a core.Index and answer the online MCSP/MCSS
// queries through it; the difference between them is entirely in how the
// offline stage's work and data move through the simulated cluster, which
// is what the bench harness (internal/bench) measures to reproduce the
// paper's systems tables.
package dist

import (
	"fmt"
	"sync"

	"cloudwalker/internal/cluster"
	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

// Engine is one CloudWalker execution model bound to a simulated cluster.
// Engines are created against a live cluster, build their index on it
// (accounting compute makespan, broadcast and shuffle volume through
// cluster stage metrics), and answer online queries until closed. Queries
// on an engine whose index has not been built yet build it first.
type Engine interface {
	// Name identifies the execution model ("broadcast", "rdd").
	Name() string
	// BuildIndex runs the offline stage on the simulated cluster and
	// returns the resulting index. The index is cached: repeated calls
	// return the same artifact without re-running the stage.
	BuildIndex() (*core.Index, error)
	// SinglePair answers an online MCSP query s(i, j).
	SinglePair(i, j int) (float64, error)
	// SingleSource answers an online MCSS query, returning the sparse
	// similarity vector s(i, ·).
	SingleSource(i int) (*sparse.Vector, error)
	// Close releases the engine's resources. Closing twice is safe; a
	// closed engine rejects further calls.
	Close()
}

// engineBase carries the state and behavior shared by both models: the
// graph, the lazily built index, query execution as cluster stages, and
// reservation cleanup. The concrete engines differ only in build.
type engineBase struct {
	name string
	g    *graph.Graph
	opts core.Options
	cl   *cluster.Cluster

	// build runs the model-specific offline stage. Set by the engine
	// constructor.
	build func() (*core.Index, error)

	mu       sync.Mutex
	idx      *core.Index
	querier  *core.Querier
	reserved int64
	closed   bool
}

// Name returns the execution model's name.
func (e *engineBase) Name() string { return e.name }

// BuildIndex runs (or returns the cached result of) the offline stage.
func (e *engineBase) BuildIndex() (*core.Index, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ensureLocked()
}

// ensureLocked builds the index and querier once. Callers hold e.mu.
func (e *engineBase) ensureLocked() (*core.Index, error) {
	if e.closed {
		return nil, fmt.Errorf("dist: %s engine is closed", e.name)
	}
	if e.idx != nil {
		return e.idx, nil
	}
	idx, err := e.build()
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuerier(e.g, idx)
	if err != nil {
		return nil, err
	}
	e.idx, e.querier = idx, q
	return idx, nil
}

// query ensures the index exists and runs f as a one-task cluster stage,
// so online query latency shows up in the stage log like any other work.
func (e *engineBase) query(stage string, f func(q *core.Querier) error) error {
	e.mu.Lock()
	_, err := e.ensureLocked()
	q := e.querier
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return e.cl.RunStage(stage, []cluster.Task{func() error { return f(q) }})
}

// SinglePair answers an MCSP query through the built index.
func (e *engineBase) SinglePair(i, j int) (float64, error) {
	var s float64
	err := e.query(e.name+"/mcsp", func(q *core.Querier) error {
		var qerr error
		s, qerr = q.SinglePair(i, j)
		return qerr
	})
	return s, err
}

// SingleSource answers an MCSS query through the built index.
func (e *engineBase) SingleSource(i int) (*sparse.Vector, error) {
	var v *sparse.Vector
	err := e.query(e.name+"/mcss", func(q *core.Querier) error {
		var qerr error
		v, qerr = q.SingleSource(i, core.WalkSS)
		return qerr
	})
	return v, err
}

// Close releases the engine's memory reservation. Idempotent.
func (e *engineBase) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.reserved > 0 {
		e.cl.Release(e.reserved)
		e.reserved = 0
	}
}

// checkNew validates the arguments common to both constructors.
func checkNew(model string, g *graph.Graph, opts core.Options, cl *cluster.Cluster) error {
	if g == nil {
		return fmt.Errorf("dist: %s model needs a graph", model)
	}
	if cl == nil {
		return fmt.Errorf("dist: %s model needs a cluster", model)
	}
	if g.NumNodes() == 0 {
		return fmt.Errorf("dist: %s model on an empty graph", model)
	}
	return opts.Validate()
}

// rowRanges splits [0, n) into at most chunks near-equal [lo, hi) ranges —
// the per-task row assignment of the broadcast model's indexing stage.
func rowRanges(n, chunks int) [][2]int {
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	out := make([][2]int, 0, chunks)
	for k := 0; k < chunks; k++ {
		lo := k * n / chunks
		hi := (k + 1) * n / chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
