package graph

import (
	"bytes"
	"math"
	"slices"
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

// TestWalkViewDegrees: on graphs from Build (a diamond, a star and a
// random graph large enough for Build to split its counting passes over
// up to 4 chunks), ReadBinary and Dynamic.Compact, and on the transpose of
// each, every node's rows, InAt/OutAt entries and degrees agree with
// InNeighbors/OutNeighbors, and a row's base is the sum of the rows before
// it.
func TestWalkViewDegrees(t *testing.T) {
	const n, m = 20000, 160000 // buildChunks: 4 chunks at GOMAXPROCS 4
	rnd := NewBuilder(n)
	src := xrand.New(5)
	for i := 0; i < m; i++ {
		if err := rnd.AddEdge(src.Intn(n), src.Intn(n)); err != nil {
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
	var buf bytes.Buffer
	if err := WriteBinary(&buf, random); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(random, 0)
	for i := 0; i < 2000; i++ { // inserts, past the base's nodes too, and deletes
		if u, v := src.Intn(n+10), src.Intn(n+10); u != v {
			if _, err := d.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		if u := src.Intn(n); random.OutDegree(u) > 0 {
			if _, err := d.DeleteEdge(u, int(random.OutNeighbors(u)[0])); err != nil {
				t.Fatal(err)
			}
		}
	}
	compacted, _ := d.Compact()
	for name, g := range map[string]*Graph{
		"diamond": viewTestGraph(t), "star": star, "random": random,
		"read": read, "compacted": compacted,
	} {
		for _, g := range []*Graph{g, transpose(g)} {
			checkRows(t, name, g)
		}
	}
}

func checkRows(t *testing.T, name string, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, dir := range []struct {
		row  func(int32) (int64, int32)
		at   func(int64) int32
		deg  func(int) int
		list func(int) []int32
	}{
		{g.InRow, g.InAt, g.InDegree, g.InNeighbors},
		{g.OutRow, g.OutAt, g.OutDegree, g.OutNeighbors},
	} {
		var next int64
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			want := dir.list(int(v))
			base, d := dir.row(v)
			if base != next || int(d) != len(want) || dir.deg(int(v)) != len(want) {
				t.Fatalf("%s: node %d row (base %d, degree %d, %d), want (%d, %d)",
					name, v, base, d, dir.deg(int(v)), next, len(want))
			}
			for i, u := range want {
				if got := dir.at(base + int64(i)); got != u {
					t.Fatalf("%s: node %d neighbour %d is %d, want %d", name, v, i, got, u)
				}
			}
			next += int64(d)
		}
		if next != int64(g.NumEdges()) {
			t.Fatalf("%s: rows hold %d entries, want %d edges", name, next, g.NumEdges())
		}
	}
}

// TestWalkViewEdgeLimit: the shared edge bound admits math.MaxUint32
// edges and refuses one more, and Dynamic refuses the insert that would
// cross it. Nothing is allocated for the count.
func TestWalkViewEdgeLimit(t *testing.T) {
	if err := checkEdges(math.MaxUint32); err != nil {
		t.Fatalf("math.MaxUint32 edges refused: %v", err)
	}
	if err := checkEdges(math.MaxUint32 + 1); err == nil || !strings.Contains(err.Error(), "32-bit offsets") {
		t.Fatalf("math.MaxUint32+1 edges: err %v, want the 32-bit offset bound", err)
	}
	d := NewDynamic(nil, 0)
	d.m = maxEdges
	if ok, err := d.InsertEdge(0, 1); ok || err == nil {
		t.Fatalf("insert past the bound: (%v, %v), want refused", ok, err)
	}
	if d.Gen() != 0 || d.NumNodes() != 0 {
		t.Fatalf("refused insert moved gen %d / nodes %d", d.Gen(), d.NumNodes())
	}
}

// TestWalkViewTransposeIndependent: a transposed graph's rows are the
// original's other direction, and it builds its own pull rows.
func TestWalkViewTransposeIndependent(t *testing.T) {
	g := viewTestGraph(t)
	tr := transpose(g)
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		ib, id := tr.InRow(v)
		ob, od := g.OutRow(v)
		if ib != ob || id != od || tr.InDegree(int(v)) != g.OutDegree(int(v)) || tr.OutDegree(int(v)) != g.InDegree(int(v)) {
			t.Fatalf("transpose rows not swapped at %d", v)
		}
	}
	if tr.OutRows() == g.InRows() || !slices.Equal(tr.OutRows().Adj, g.InRows().Adj) ||
		!slices.Equal(tr.OutRows().Node, g.InRows().Node) {
		t.Fatal("transpose's out pull rows should be its own copy of the original's in rows")
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
	var wg sync.WaitGroup
	got := make([]*PullRows, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.OutRows()
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
	}{"out": {g.OutRows(), g.OutNeighbors}, "in": {g.InRows(), g.InNeighbors}} {
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
