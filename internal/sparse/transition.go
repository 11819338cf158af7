package sparse

import (
	"cloudwalker/internal/graph"
)

// Transition is the column-stochastic backward transition operator P of a
// graph: P[k][i] = 1/|In(i)| if k ∈ In(i), else 0. Columns of nodes with no
// in-links are zero (their walks terminate), matching the paper's random
// walker semantics. The operator applies P without materializing the
// matrix; tests use it as the exact reference for walk distributions and
// index rows.
type Transition struct {
	g *graph.Graph
}

// NewTransition wraps g's backward transition operator.
func NewTransition(g *graph.Graph) *Transition {
	return &Transition{g: g}
}

// N returns the operator dimension (number of nodes).
func (p *Transition) N() int { return p.g.NumNodes() }

// Apply computes y = P x for sparse x: each mass x_i spreads equally over
// the in-neighbors of i. Cost is proportional to the sum of in-degrees of
// x's support.
func (p *Transition) Apply(x *Vector) *Vector {
	acc := NewAccumulator()
	for t, i := range x.Idx {
		node := int(i)
		d := p.g.InDegree(node)
		if d == 0 {
			continue // dangling column: walk mass vanishes
		}
		share := x.Val[t] / float64(d)
		for _, k := range p.g.InNeighbors(node) {
			acc.Add(k, share)
		}
	}
	return acc.ToVector()
}

// PowerUnit returns the distributions P^t e_i for t = 0..T as sparse
// vectors, computed exactly. This is the deterministic counterpart of the
// Monte Carlo walk histograms, and a test reference: walk tests compare
// their histograms against it.
func (p *Transition) PowerUnit(i, T int) []*Vector {
	out := make([]*Vector, T+1)
	out[0] = Unit(i)
	for t := 1; t <= T; t++ {
		out[t] = p.Apply(out[t-1])
	}
	return out
}
