package graph

import (
	"strings"
	"sync"
	"testing"

	"cloudwalker/internal/xrand"
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

// TestWalkViewDegrees: on a diamond, a random Builder graph and a star,
// and on the transpose of each, every node's view rows, neighbours and
// degrees are the graph's, and the view holds 16 bytes a node plus 8.
func TestWalkViewDegrees(t *testing.T) {
	rnd := NewBuilder(1000)
	src := xrand.New(5)
	for i := 0; i < 4000; i++ {
		if err := rnd.AddEdge(src.Intn(1000), src.Intn(1000)); err != nil {
			t.Fatal(err)
		}
	}
	random, err := rnd.Build()
	if err != nil {
		t.Fatal(err)
	}
	var spokes [][2]int
	for v := 1; v < 300; v++ {
		spokes = append(spokes, [2]int{v, 0})
	}
	star := MustFromEdges(300, spokes)
	for name, g := range map[string]*Graph{"diamond": viewTestGraph(t), "random": random, "star": star} {
		for _, g := range []*Graph{g, transpose(g)} {
			checkWalkView(t, name, g)
		}
	}
}

func checkWalkView(t *testing.T, name string, g *Graph) {
	t.Helper()
	vw := g.WalkView()
	if vw.Graph() != g || vw.NumNodes() != g.NumNodes() {
		t.Fatalf("%s: view not bound to its graph", name)
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if int(vw.InDeg(v)) != g.InDegree(int(v)) || int(vw.OutDeg(v)) != g.OutDegree(int(v)) {
			t.Fatalf("%s: node %d degrees (in %d, out %d), graph says (%d, %d)", name, v,
				vw.InDeg(v), vw.OutDeg(v), g.InDegree(int(v)), g.OutDegree(int(v)))
		}
		for _, dir := range []struct {
			row  func(int32) (int64, int32)
			at   func(int64) int32
			off  []int64
			want []int32
		}{
			{vw.InRow, vw.InAt, g.inOff, g.InNeighbors(int(v))},
			{vw.OutRow, vw.OutAt, g.outOff, g.OutNeighbors(int(v))},
		} {
			base, d := dir.row(v)
			if base != dir.off[v] || int(d) != len(dir.want) {
				t.Fatalf("%s: node %d row (base %d, degree %d), graph says (%d, %d)", name, v, base, d, dir.off[v], len(dir.want))
			}
			for i, u := range dir.want {
				if got := dir.at(base + int64(i)); got != u {
					t.Fatalf("%s: node %d neighbour %d is %d, graph says %d", name, v, i, got, u)
				}
			}
		}
	}
	// Two int32 degree arrays and two uint32 offset arrays.
	if got, want := vw.MemoryBytes(), int64(16*g.NumNodes()+8); got != want {
		t.Fatalf("%s: MemoryBytes = %d, want %d", name, got, want)
	}
}

// TestWalkViewEdgeLimit: a graph whose edges overflow the view's 32-bit
// offsets gets no view. The header alone says so; nothing is allocated.
func TestWalkViewEdgeLimit(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "32-bit offsets") {
			t.Fatalf("recovered %q, want the view's edge limit", msg)
		}
	}()
	newWalkView(&Graph{m: maxViewEdges + 1})
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
	tr := transpose(g)
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
