package dist

import (
	"fmt"

	"cloudwalker/internal/cluster"
	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/rdd"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// walkerRecordBytes is the accounting size of one frontier record in the
// shuffle volume estimates: row id + node id + walker count, 4 bytes each.
const walkerRecordBytes = 12

// frontierKey identifies a group of co-located walkers: the indexing row
// they estimate and the node they currently occupy.
type frontierKey struct {
	Row  int32
	Node int32
}

// RDDEngine is the paper's RDD execution model: the graph is partitioned
// across machines (each machine holds only its share of the adjacency),
// and the walker frontier is shuffled to the partition owning its current
// node at every step. Every step therefore pays a cluster-wide exchange —
// the 5–10× slowdown the paper measures against broadcasting — but no
// machine ever holds more than its partition, which is why this model
// scales past the broadcast model's memory wall.
type RDDEngine struct {
	engineBase
	ctx   *rdd.Context
	parts int
}

// NewRDD creates the partitioned engine on cl. It reserves only one
// machine's share of the graph (MemoryBytes divided by the machine
// count), so graphs that out-of-memory the broadcast model still fit.
func NewRDD(g *graph.Graph, opts core.Options, cl *cluster.Cluster) (*RDDEngine, error) {
	if err := checkNew("rdd", g, opts, cl); err != nil {
		return nil, err
	}
	machines := int64(cl.Config().Machines)
	perMachine := (g.MemoryBytes() + machines - 1) / machines
	if err := cl.Reserve(perMachine, "rdd graph partition"); err != nil {
		return nil, fmt.Errorf("dist: rdd model: %w", err)
	}
	parts := cl.Config().TotalCores()
	if parts > g.NumNodes() {
		parts = g.NumNodes()
	}
	if parts < 1 {
		parts = 1
	}
	e := &RDDEngine{
		engineBase: engineBase{
			name:     "rdd",
			g:        g,
			opts:     opts,
			cl:       cl,
			reserved: perMachine,
		},
		ctx:   rdd.NewContext(cl, walkerRecordBytes),
		parts: parts,
	}
	e.build = e.buildIndex
	return e, nil
}

// buildIndex runs the offline stage as T rounds of step-and-shuffle over a
// walker-frontier RDD. Walkers at the same (row, node) travel as one
// aggregated record; each round is a narrow stage that advances every
// walker one backward step against the local graph partition, followed by
// a wide exchange (ReduceByKey hashed by node) that both merges duplicate
// records and models the shuffle that co-locates walkers with the machine
// owning their new node. The reduced counts are collected to the driver,
// where each row's walk.DepositValue contribution accumulates into the
// indexing system, exactly the estimator the single-machine RowEstimator
// computes — the walks just use different (per-partition, per-step) RNG
// streams, so agreement with core.BuildIndex is statistical, not
// bit-exact.
func (e *RDDEngine) buildIndex() (*core.Index, error) {
	n := e.g.NumNodes()

	accs := make([]*sparse.Accumulator, n)
	init := make([]rdd.Pair[frontierKey, int32], n)
	for i := 0; i < n; i++ {
		accs[i] = sparse.NewAccumulator()
		accs[i].Add(int32(i), 1) // t = 0: every walker sits on its row's node
		init[i] = rdd.Pair[frontierKey, int32]{
			Key: frontierKey{Row: int32(i), Node: int32(i)},
			Val: int32(e.opts.R),
		}
	}
	frontier, err := rdd.Parallelize(e.ctx, init, e.parts)
	if err != nil {
		return nil, err
	}

	ct := 1.0
	for t := 1; t <= e.opts.T && frontier.Count() > 0; t++ {
		ct *= e.opts.C
		// Narrow stage: each partition steps its walkers one backward
		// step. Walkers on a node with no in-links die, like the
		// vanishing mass of the transition operator's zero columns.
		stepped, err := rdd.MapPartitions(frontier, fmt.Sprintf("rdd/step-%d", t),
			func(part int, in []rdd.Pair[frontierKey, int32]) ([]rdd.Pair[frontierKey, int32], error) {
				src := xrand.NewStream(e.opts.Seed^0x5ca1ab1e, uint64(t)<<32|uint64(part))
				counts := make(map[frontierKey]int32, len(in))
				order := make([]frontierKey, 0, len(in))
				for _, kv := range in {
					v := int(kv.Key.Node)
					d := e.g.InDegree(v)
					if d == 0 {
						continue
					}
					for w := int32(0); w < kv.Val; w++ {
						dst := frontierKey{Row: kv.Key.Row, Node: e.g.InNeighborAt(v, src.Intn(d))}
						if counts[dst] == 0 {
							order = append(order, dst)
						}
						counts[dst]++
					}
				}
				out := make([]rdd.Pair[frontierKey, int32], 0, len(order))
				for _, k := range order {
					out = append(out, rdd.Pair[frontierKey, int32]{Key: k, Val: counts[k]})
				}
				return out, nil
			})
		if err != nil {
			return nil, err
		}
		// Wide stage: hash by node only, so all walkers arriving at a
		// node meet in the partition that owns it. This is the per-step
		// shuffle whose bytes dominate the model's simulated cost.
		frontier, err = rdd.ReduceByKey(stepped, fmt.Sprintf("rdd/exchange-%d", t), e.parts,
			func(k frontierKey) uint64 { return uint64(uint32(k.Node)) * 0x9e3779b97f4a7c15 },
			func(a, b int32) int32 { return a + b })
		if err != nil {
			return nil, err
		}
		// Fold this step's contribution into the indexing rows on the
		// driver (a collect, accounted like Spark's).
		for _, kv := range frontier.Collect() {
			accs[kv.Key.Row].Add(kv.Key.Node, walk.DepositValue(ct, int(kv.Val), e.opts.R))
		}
	}

	a := sparse.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.SetRow(i, accs[i].ToVector())
	}
	// Driver-side Jacobi epilogue, same as the broadcast model.
	idx, _, err := core.SolveIndex(e.g, a, e.opts)
	return idx, err
}

// SinglePair answers MCSP, additionally accounting the per-step walker
// exchange the RDD model pays online (the graph is not resident on any
// single machine, so even query walks shuffle).
func (e *RDDEngine) SinglePair(i, j int) (float64, error) {
	s, err := e.engineBase.SinglePair(i, j)
	if err == nil {
		e.cl.AccountShuffle("rdd/mcsp-exchange",
			2*int64(e.opts.RPrime)*int64(e.opts.T)*walkerRecordBytes)
	}
	return s, err
}

// SingleSource answers MCSS with the same online exchange accounting.
func (e *RDDEngine) SingleSource(i int) (*sparse.Vector, error) {
	v, err := e.engineBase.SingleSource(i)
	if err == nil {
		e.cl.AccountShuffle("rdd/mcss-exchange",
			2*int64(e.opts.RPrime)*int64(e.opts.T)*walkerRecordBytes)
	}
	return v, err
}
