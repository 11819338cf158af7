// Package cocitation implements the co-citation similarity measure that
// the paper's introduction positions SimRank against ("[SimRank]
// outperforms other similarity measures, such as co-citation").
//
// Co-citation counts one-hop evidence only: two nodes are similar in
// proportion to the overlap of their direct in-neighborhoods,
//
//	cocite(i,j) = |In(i) ∩ In(j)| / sqrt(|In(i)|·|In(j)|)   (cosine form)
//
// It is cheap (no index, one merge per pair) but blind to similarity that
// arrives through longer reference chains — the gap the effectiveness
// experiment (bench "fig-effectiveness") quantifies.
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

// Similarity returns the co-citation similarity of nodes i and j. Only
// tests call it: it is the pairwise reference SingleSource is checked
// against (TestSingleSourceMatchesPairwise).
func Similarity(g *graph.Graph, i, j int, mode Mode) (float64, error) {
	n := g.NumNodes()
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("cocitation: node pair (%d,%d) out of range [0,%d)", i, j, n)
	}
	if i == j {
		return 1, nil
	}
	a, b := g.InNeighbors(i), g.InNeighbors(j)
	overlap := intersectSize(a, b)
	switch mode {
	case Raw:
		return float64(overlap), nil
	case Jaccard:
		union := len(a) + len(b) - overlap
		if union == 0 {
			return 0, nil
		}
		return float64(overlap) / float64(union), nil
	case Cosine:
		if len(a) == 0 || len(b) == 0 {
			return 0, nil
		}
		return float64(overlap) / math.Sqrt(float64(len(a))*float64(len(b))), nil
	default:
		return 0, fmt.Errorf("cocitation: unknown mode %d", mode)
	}
}

// intersectSize counts common elements of two sorted slices.
func intersectSize(a, b []int32) int {
	i, j, count := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

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
