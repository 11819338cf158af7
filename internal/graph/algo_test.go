package graph

import (
	"testing"
	"testing/quick"

	"cloudwalker/internal/xrand"
)

func TestWCCTwoIslands(t *testing.T) {
	// Island A: 0->1->2; island B: 3->4. Node 5 isolated.
	g := MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	labels, count := g.WeaklyConnectedComponents()
	if count != 3 {
		t.Fatalf("component count %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("island A split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Fatalf("island B split: %v", labels)
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatalf("isolated node merged: %v", labels)
	}
	if g.LargestComponentSize() != 3 {
		t.Fatalf("largest component %d, want 3", g.LargestComponentSize())
	}
}

func TestWCCDirectionIgnored(t *testing.T) {
	// 0->1 and 2->1: weakly connected through node 1 either direction.
	g := MustFromEdges(3, [][2]int{{0, 1}, {2, 1}})
	_, count := g.WeaklyConnectedComponents()
	if count != 1 {
		t.Fatalf("count %d, want 1", count)
	}
}

func TestWCCEmpty(t *testing.T) {
	g, _ := NewBuilder(0).Build()
	if g.LargestComponentSize() != 0 {
		t.Fatal("empty graph has a component")
	}
}

func TestSCCCycleAndTail(t *testing.T) {
	// Cycle 0->1->2->0 plus tail 2->3.
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	labels, count := g.StronglyConnectedComponents()
	if count != 2 {
		t.Fatalf("SCC count %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("cycle split: %v", labels)
	}
	if labels[3] == labels[0] {
		t.Fatalf("tail merged into cycle: %v", labels)
	}
}

func TestSCCDag(t *testing.T) {
	// A DAG has n singleton SCCs.
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	_, count := g.StronglyConnectedComponents()
	if count != 4 {
		t.Fatalf("DAG SCC count %d, want 4", count)
	}
}

func TestSCCTwoCycles(t *testing.T) {
	// Two 2-cycles bridged one way.
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}})
	labels, count := g.StronglyConnectedComponents()
	if count != 2 {
		t.Fatalf("SCC count %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("labels %v", labels)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// 50k-node path: recursive Tarjan would blow the stack.
	const n = 50000
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, count := g.StronglyConnectedComponents()
	if count != n {
		t.Fatalf("path SCC count %d, want %d", count, n)
	}
}

// Property: WCC label count equals 1 + number of merges missed — checked
// indirectly: every edge joins nodes with equal labels, and label ids are
// dense in [0, count).
func TestQuickWCCInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(40) + 2
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			_ = b.AddEdge(src.Intn(n), src.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		labels, count := g.WeaklyConnectedComponents()
		seen := make([]bool, count)
		for _, l := range labels {
			if l < 0 || int(l) >= count {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		ok := true
		g.Edges(func(u, v int32) bool {
			if labels[u] != labels[v] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SCC labels refine WCC labels (same SCC implies same WCC).
func TestQuickSCCRefinesWCC(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(30) + 2
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			_ = b.AddEdge(src.Intn(n), src.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		wcc, _ := g.WeaklyConnectedComponents()
		scc, nscc := g.StronglyConnectedComponents()
		if nscc < 1 && n > 0 {
			return false
		}
		perSCC := make(map[int32]int32)
		for v := 0; v < n; v++ {
			if w, ok := perSCC[scc[v]]; ok {
				if w != wcc[v] {
					return false
				}
			} else {
				perSCC[scc[v]] = wcc[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
