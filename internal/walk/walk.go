// Package walk implements the Monte Carlo random-walk engine at the heart
// of CloudWalker.
//
// A SimRank walk moves backward: at node v it steps to a uniformly random
// in-neighbor of v. The empirical distribution of R such walkers after t
// steps is an unbiased estimate of P^t e_start, where P is the graph's
// column-stochastic backward transition operator (sparse.Transition). A
// walker that reaches a node with no in-links terminates, matching the
// vanishing mass of P's zero columns.
//
// The hot kernels run on the batched level-synchronous engine (batch.go):
// all walkers advance together one level at a time, each drawing from its
// own RNG substream xrand.NewStream(seed, walkerID). A level draws every
// walker's edge first and fetches the neighbours second, so no neighbour
// load waits on its row descriptor, and large frontiers are radix-sorted
// by node so the next level's loads issue in address order. Per-walker
// substreams plus integer visit counting make the distribution kernels'
// output bit-identical for a fixed seed at any batch shape or walker
// sharding.
package walk

import (
	"sync"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// StepIn moves one step backward from v: a uniform random in-neighbor,
// or -1 if v has none. It accepts any graph.View (immutable CSR or a
// dynamic overlay) and consumes one Intn call iff v has in-links, the
// same randomness contract as the dense StepInView kernel. The degree
// and the chosen neighbor come from ONE row snapshot (the View contract
// guarantees the returned slice is stable), so a concurrent mutation of
// a live overlay can never tear the (degree, index) pair.
func StepIn(g graph.View, v int, src *xrand.Source) int {
	row := g.InNeighbors(v)
	if len(row) == 0 {
		return -1
	}
	return int(row[src.Intn(len(row))])
}

// Distributions runs R backward walkers from start for T steps and returns
// the empirical distributions p̂_t ≈ P^t e_start for t = 0..T. Each
// distribution sums to (walkers still alive at t)/R ≤ 1. Walker w draws
// from xrand.NewStream(seed, w).
//
// This convenience wrapper draws working memory from a package pool and
// copies the results out; query loops should hold their own Scratch and
// call DistributionsInto instead (same output, zero steady-state
// allocation, no copies).
//
// Distributions accepts any graph.View: the batched engine runs when the
// view can serve a WalkView (an immutable *Graph, or a clean *Dynamic),
// and an interface-stepping path — bit-identical for the same effective
// graph — covers dirty overlays.
func Distributions(g graph.View, start, T, R int, seed uint64) []*sparse.Vector {
	ds := distPool.Get().(*distScratch)
	defer distPool.Put(ds)
	vecs := ds.sc.DistributionsViewInto(&ds.buf, g, start, T, R, seed)
	out := make([]*sparse.Vector, len(vecs))
	for t := range vecs {
		out[t] = vecs[t].Clone()
	}
	return out
}

// distScratch pools the transient workspace of the Distributions
// convenience wrapper, so callers that loop over it don't allocate and
// zero an O(n) histogram per call. A zero-value Scratch grows on first
// use.
type distScratch struct {
	sc  Scratch
	buf DistBuf
}

var distPool = sync.Pool{New: func() any { return new(distScratch) }}

// ForwardWeighted performs the importance-weighted forward walk of the
// MCSS estimator (DESIGN.md §3.4): starting at node k with weight w, take
// `steps` transitions to a uniform random out-neighbor, multiplying the
// weight by |Out(cur)| / |In(next)| at each step. It returns the final
// node and weight, or (-1, 0) if the walk dies at a node with no
// out-links. The expectation of the deposited weight at node j equals
// w * Pr[t-step backward walk from j ends at k].
func ForwardWeighted(g graph.View, k int, w float64, steps int, src *xrand.Source) (int, float64) {
	if vw := graph.FastWalkView(g); vw != nil {
		j, wt := ForwardWeightedView(vw, int32(k), w, steps, src)
		return int(j), wt
	}
	cur := k
	for s := 0; s < steps; s++ {
		row := g.OutNeighbors(cur) // one stable row snapshot per step
		dOut := len(row)
		if dOut == 0 {
			return -1, 0
		}
		next := int(row[src.Intn(dOut)])
		// Same IEEE divide as the dense kernel, so the importance weight
		// (and every estimate built on it) stays bit-identical across
		// the overlay and CSR formulations. A concurrent delete on a
		// live overlay can drop the edge we just walked and leave next
		// with no in-links; treat that exactly like a dead walk instead
		// of dividing by zero.
		din := g.InDegree(next)
		if din == 0 {
			return -1, 0
		}
		w *= float64(dOut) / float64(din)
		cur = next
	}
	return cur, w
}

// MeetingTime runs two coupled backward walks from i and j (independent
// uniform steps) and returns the first step 1..T at which they occupy the
// same node, or 0 if they never meet within T steps. This is the classic
// first-meeting view of SimRank used by the naive MC baseline and by the
// fingerprint index.
func MeetingTime(g graph.View, i, j, T int, src *xrand.Source) int {
	a, b := i, j
	for t := 1; t <= T; t++ {
		a = StepIn(g, a, src)
		b = StepIn(g, b, src)
		if a < 0 || b < 0 {
			return 0
		}
		if a == b {
			return t
		}
	}
	return 0
}
