package cocitation

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// diamond: 0->1, 0->2, 1->3, 2->3.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

// similarity returns the co-citation similarity of nodes i and j, one
// pair at a time: the pairwise reference SingleSource is checked against.
func similarity(g *graph.Graph, i, j int, mode Mode) (float64, error) {
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

func TestSimilarityDiamond(t *testing.T) {
	g := diamond(t)
	// In(1) = In(2) = {0}: full overlap.
	s, err := similarity(g, 1, 2, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("cocite(1,2) = %g, want 1", s)
	}
	// In(1) = {0}, In(3) = {1,2}: no overlap.
	if s, _ := similarity(g, 1, 3, Cosine); s != 0 {
		t.Fatalf("cocite(1,3) = %g, want 0", s)
	}
	// Self similarity pinned to 1.
	if s, _ := similarity(g, 2, 2, Cosine); s != 1 {
		t.Fatalf("cocite(2,2) = %g", s)
	}
	// Dangling-in node 0 has similarity 0 to everything else.
	if s, _ := similarity(g, 0, 3, Cosine); s != 0 {
		t.Fatalf("cocite(0,3) = %g", s)
	}
}

func TestSimilarityModes(t *testing.T) {
	// 0->2, 1->2, 0->3, 1->3, 4->3: In(2) = {0,1}, In(3) = {0,1,4}.
	g := graph.MustFromEdges(5, [][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}, {4, 3}})
	raw, _ := similarity(g, 2, 3, Raw)
	if raw != 2 {
		t.Fatalf("raw overlap = %g, want 2", raw)
	}
	jac, _ := similarity(g, 2, 3, Jaccard)
	if math.Abs(jac-2.0/3.0) > 1e-12 {
		t.Fatalf("jaccard = %g, want 2/3", jac)
	}
	cos, _ := similarity(g, 2, 3, Cosine)
	if math.Abs(cos-2/math.Sqrt(6)) > 1e-12 {
		t.Fatalf("cosine = %g, want 2/sqrt(6)", cos)
	}
}

func TestSimilarityErrors(t *testing.T) {
	g := diamond(t)
	if _, err := similarity(g, -1, 0, Cosine); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := similarity(g, 0, 4, Cosine); err == nil {
		t.Error("overflow node accepted")
	}
	if _, err := similarity(g, 0, 1, Mode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSingleSourceMatchesPairwise(t *testing.T) {
	g, err := gen.RMAT(60, 400, gen.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Cosine, Jaccard, Raw} {
		ss, err := SingleSource(g, 7, mode)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < g.NumNodes(); j++ {
			want, err := similarity(g, 7, j, mode)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ss[j]-want) > 1e-12 {
				t.Fatalf("mode %d: SS[%d] = %g, pairwise %g", mode, j, ss[j], want)
			}
		}
	}
}

func TestSingleSourceErrors(t *testing.T) {
	g := diamond(t)
	if _, err := SingleSource(g, 9, Cosine); err == nil {
		t.Error("overflow source accepted")
	}
	if _, err := SingleSource(g, 0, Mode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// Property: symmetry and [0,1] range for normalized modes.
func TestQuickSymmetryAndRange(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(30) + 3
		g, err := gen.ErdosRenyi(n, 4*n, seed)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			i, j := src.Intn(n), src.Intn(n)
			for _, mode := range []Mode{Cosine, Jaccard} {
				a, err1 := similarity(g, i, j, mode)
				b, err2 := similarity(g, j, i, mode)
				if err1 != nil || err2 != nil {
					return false
				}
				if a != b || a < 0 || a > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
