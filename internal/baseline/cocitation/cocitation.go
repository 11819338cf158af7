// Package cocitation implements the co-citation similarity measure that
// the paper's introduction positions SimRank against ("[SimRank]
// outperforms other similarity measures, such as co-citation").
//
// Co-citation counts one-hop evidence only: two nodes are similar in
// proportion to the overlap of their direct in-neighborhoods,
//
//	cocite(i,j) = |In(i) ∩ In(j)| / sqrt(|In(i)|·|In(j)|)   (cosine form)
//
// It is cheap (no index, one pass over a source's two-hop neighbourhood)
// but blind to similarity that arrives through longer reference chains —
// the gap the effectiveness experiment (bench "fig-effectiveness")
// quantifies.
package cocitation

import (
	"fmt"
	"math"

	"cloudwalker/internal/graph"
)

// Mode selects the overlap normalization.
type Mode int

const (
	// Cosine divides the overlap by sqrt(|In(i)|·|In(j)|).
	Cosine Mode = iota
	// Jaccard divides the overlap by |In(i) ∪ In(j)|.
	Jaccard
	// Raw returns the unnormalized overlap count.
	Raw
)

// SingleSource returns the co-citation similarity of q to every node.
// Cost is Σ_{k ∈ In(q)} |Out(k)| — the two-hop out-neighborhood of In(q).
func SingleSource(g *graph.Graph, q int, mode Mode) ([]float64, error) {
	n := g.NumNodes()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("cocitation: node %d out of range [0,%d)", q, n)
	}
	if mode != Cosine && mode != Jaccard && mode != Raw {
		return nil, fmt.Errorf("cocitation: unknown mode %d", mode)
	}
	overlap := make([]float64, n)
	for _, k := range g.InNeighbors(q) {
		for _, j := range g.OutNeighbors(int(k)) {
			overlap[j]++
		}
	}
	din := float64(g.InDegree(q))
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		if j == q {
			out[j] = 1
			continue
		}
		ov := overlap[j]
		if ov == 0 {
			continue
		}
		switch mode {
		case Raw:
			out[j] = ov
		case Jaccard:
			union := din + float64(g.InDegree(j)) - ov
			if union > 0 {
				out[j] = ov / union
			}
		case Cosine:
			dj := float64(g.InDegree(j))
			if din > 0 && dj > 0 {
				out[j] = ov / math.Sqrt(din*dj)
			}
		default:
			return nil, fmt.Errorf("cocitation: unknown mode %d", mode)
		}
	}
	return out, nil
}
