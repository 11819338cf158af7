package graph

import (
	"sync"
	"testing"
)

func viewTestGraph(t *testing.T) *Graph {
	t.Helper()
	// Diamond plus a dangling-in node 4: 0->1, 0->2, 1->3, 2->3, 4->0.
	g, err := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWalkViewDegrees(t *testing.T) {
	g := viewTestGraph(t)
	vw := g.WalkView()
	if vw.Graph() != g || vw.NumNodes() != g.NumNodes() {
		t.Fatal("view not bound to its graph")
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if int(vw.InDeg(v)) != g.InDegree(int(v)) {
			t.Fatalf("InDeg(%d) = %d, graph says %d", v, vw.InDeg(v), g.InDegree(int(v)))
		}
		if int(vw.OutDeg(v)) != g.OutDegree(int(v)) {
			t.Fatalf("OutDeg(%d) = %d, graph says %d", v, vw.OutDeg(v), g.OutDegree(int(v)))
		}
		if base, d := vw.InRow(v); int(d) != g.InDegree(int(v)) {
			t.Fatalf("InRow(%d) degree %d", v, d)
		} else {
			for i := 0; i < int(d); i++ {
				if vw.InAt(base+int64(i)) != g.InNeighborAt(int(v), i) {
					t.Fatalf("InAt(%d,%d) mismatch", v, i)
				}
			}
		}
		if base, d := vw.OutRow(v); int(d) != g.OutDegree(int(v)) {
			t.Fatalf("OutRow(%d) degree %d", v, d)
		} else {
			for i := 0; i < int(d); i++ {
				if vw.OutAt(base+int64(i)) != g.OutNeighborAt(int(v), i) {
					t.Fatalf("OutAt(%d,%d) mismatch", v, i)
				}
			}
		}
	}
	// Two int32 degree arrays: 8 bytes a node.
	if got, want := vw.MemoryBytes(), int64(8*g.NumNodes()); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestWalkViewCachedAndConcurrent(t *testing.T) {
	g := viewTestGraph(t)
	const goroutines = 8
	views := make([]*WalkView, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = g.WalkView()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if views[i] != views[0] {
			t.Fatal("concurrent WalkView calls returned different instances")
		}
	}
	if g.WalkView() != views[0] {
		t.Fatal("WalkView not cached")
	}
}

func TestWalkViewTransposeIndependent(t *testing.T) {
	g := viewTestGraph(t)
	vw := g.WalkView()
	tr := g.Transpose()
	tvw := tr.WalkView()
	if tvw == vw {
		t.Fatal("transpose shares the original's walk view")
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if tvw.InDeg(v) != vw.OutDeg(v) || tvw.OutDeg(v) != vw.InDeg(v) {
			t.Fatalf("transpose degrees not swapped at %d", v)
		}
	}
}

// TestPullRows: both pull layouts hold exactly the non-empty rows of their
// direction, shortest first and in index order within a length, each row
// verbatim; concurrent first calls share one build.
func TestPullRows(t *testing.T) {
	// Node 5 is isolated, 4 has no in-links, 3 no out-links.
	g, err := FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {4, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	var wg sync.WaitGroup
	got := make([]*PullRows, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = vw.OutRows()
		}()
	}
	wg.Wait()
	for _, r := range got {
		if r != got[0] {
			t.Fatal("concurrent OutRows calls built separate layouts")
		}
	}
	for name, c := range map[string]struct {
		rows *PullRows
		row  func(int) []int32
	}{"out": {vw.OutRows(), g.OutNeighbors}, "in": {vw.InRows(), g.InNeighbors}} {
		seen := map[int32]bool{}
		adj := c.rows.Adj
		for r, v := range c.rows.Node {
			d := int(c.rows.Deg[r])
			want := c.row(int(v))
			if d == 0 || d != len(want) || seen[v] {
				t.Fatalf("%s rows: node %d listed with length %d (row %v, seen %v)", name, v, d, want, seen[v])
			}
			seen[v] = true
			for k, u := range want {
				if adj[k] != u {
					t.Fatalf("%s rows: node %d's row is %v, want %v", name, v, adj[:d], want)
				}
			}
			adj = adj[d:]
			if r > 0 {
				pd, pv := c.rows.Deg[r-1], c.rows.Node[r-1]
				if pd > c.rows.Deg[r] || (pd == c.rows.Deg[r] && pv > v) {
					t.Fatalf("%s rows out of order at %d: (%d, len %d) before (%d, len %d)", name, r, pv, pd, v, d)
				}
			}
		}
		if len(adj) != 0 {
			t.Fatalf("%s rows: %d adjacency entries belong to no row", name, len(adj))
		}
		for v := 0; v < g.NumNodes(); v++ {
			if (len(c.row(v)) > 0) != seen[int32(v)] {
				t.Fatalf("%s rows: node %d with %d entries, listed %v", name, v, len(c.row(v)), seen[int32(v)])
			}
		}
	}
}
