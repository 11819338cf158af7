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
// output bit-identical for a fixed seed at any batch shape or split into
// waves.
package walk

import (
	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// StepIn moves one step backward from v: a uniform random in-neighbor,
// or -1 if v has none. It consumes one Intn call iff v has in-links, the
// same randomness contract as the dense StepInView kernel, which makes
// it the per-walker reference the batched kernels are tested against.
func StepIn(g *graph.Graph, v int, src *xrand.Source) int {
	row := g.InNeighbors(v)
	if len(row) == 0 {
		return -1
	}
	return int(row[src.Intn(len(row))])
}

// MeetingTime runs two coupled backward walks from i and j (independent
// uniform steps) and returns the first step 1..T at which they occupy the
// same node, or 0 if they never meet within T steps. This is the classic
// first-meeting view of SimRank used by the naive MC baseline and by the
// fingerprint index.
func MeetingTime(g *graph.Graph, i, j, T int, src *xrand.Source) int {
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
