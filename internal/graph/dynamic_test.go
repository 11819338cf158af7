package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rebuildReference builds a from-scratch CSR graph over n nodes from an
// edge set, the oracle every Dynamic state is compared against.
func rebuildReference(t *testing.T, n int, edges map[[2]int32]bool) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for e, ok := range edges {
		if !ok {
			continue
		}
		if err := b.AddEdge(int(e[0]), int(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkSameGraph asserts two graphs have identical CSR content.
func checkSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape %d/%d, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if !slices.Equal(got.outOff, want.outOff) || !slices.Equal(got.inOff, want.inOff) {
		t.Fatalf("offset arrays differ")
	}
	if !slices.Equal(got.outAdj, want.outAdj) || !slices.Equal(got.inAdj, want.inAdj) {
		t.Fatalf("adjacency arrays differ")
	}
}

// checkViewMatches asserts the Dynamic's merged reads agree with the
// reference graph at every node.
func checkViewMatches(t *testing.T, d *Dynamic, want *Graph) {
	t.Helper()
	if d.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes %d, want %d", d.NumNodes(), want.NumNodes())
	}
	if d.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges %d, want %d", d.NumEdges(), want.NumEdges())
	}
	for u := 0; u < want.NumNodes(); u++ {
		if d.OutDegree(u) != want.OutDegree(u) {
			t.Fatalf("OutDegree(%d) = %d, want %d", u, d.OutDegree(u), want.OutDegree(u))
		}
		if d.InDegree(u) != want.InDegree(u) {
			t.Fatalf("InDegree(%d) = %d, want %d", u, d.InDegree(u), want.InDegree(u))
		}
		for i, v := range want.OutNeighbors(u) {
			if got := d.OutNeighborAt(u, i); got != v {
				t.Fatalf("OutNeighborAt(%d,%d) = %d, want %d", u, i, got, v)
			}
			if !d.HasEdge(u, int(v)) {
				t.Fatalf("HasEdge(%d,%d) = false, want true", u, v)
			}
		}
		for i, v := range want.InNeighbors(u) {
			if got := d.InNeighborAt(u, i); got != v {
				t.Fatalf("InNeighborAt(%d,%d) = %d, want %d", u, i, got, v)
			}
		}
	}
}

func TestDynamicInsertDeleteSemantics(t *testing.T) {
	base := MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	d := NewDynamic(base)

	if d.Gen() != 0 || d.Dirty() {
		t.Fatalf("fresh dynamic: gen %d dirty %v", d.Gen(), d.Dirty())
	}
	// Duplicate insert: no-op, no generation bump.
	if ok, err := d.InsertEdge(0, 1); err != nil || ok {
		t.Fatalf("duplicate insert: ok=%v err=%v", ok, err)
	}
	if d.Gen() != 0 {
		t.Fatalf("duplicate insert bumped gen to %d", d.Gen())
	}
	// Real insert.
	if ok, err := d.InsertEdge(2, 0); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	if d.Gen() != 1 || d.Pending() != 1 || !d.HasEdge(2, 0) {
		t.Fatalf("after insert: gen %d pending %d has %v", d.Gen(), d.Pending(), d.HasEdge(2, 0))
	}
	// Delete absent edge: no-op.
	if ok, err := d.DeleteEdge(2, 1); err != nil || ok {
		t.Fatalf("absent delete: ok=%v err=%v", ok, err)
	}
	// Delete a base edge.
	if ok, err := d.DeleteEdge(0, 1); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if d.HasEdge(0, 1) || d.NumEdges() != 2 {
		t.Fatalf("after delete: has=%v m=%d", d.HasEdge(0, 1), d.NumEdges())
	}
	// Growth: inserting an edge naming a new id extends the node range.
	if ok, err := d.InsertEdge(1, 5); err != nil || !ok {
		t.Fatalf("growing insert: ok=%v err=%v", ok, err)
	}
	if d.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d after growth, want 6", d.NumNodes())
	}
	// Invalid edges.
	if _, err := d.InsertEdge(-1, 0); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := d.InsertEdge(3, 3); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := d.DeleteEdge(4, 4); err == nil {
		t.Fatal("self-loop delete accepted")
	}
}

func TestDynamicMatchesRebuildUnderRandomOps(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(7))
	base := MustFromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 9}})
	edges := map[[2]int32]bool{}
	base.Edges(func(u, v int32) bool { edges[[2]int32{u, v}] = true; return true })

	d := NewDynamic(base)
	for op := 0; op < 400; op++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			ok, err := d.DeleteEdge(int(u), int(v))
			if err != nil {
				t.Fatal(err)
			}
			if ok != edges[[2]int32{u, v}] {
				t.Fatalf("delete(%d,%d) applied=%v, reference says %v", u, v, ok, edges[[2]int32{u, v}])
			}
			delete(edges, [2]int32{u, v})
		} else {
			ok, err := d.InsertEdge(int(u), int(v))
			if err != nil {
				t.Fatal(err)
			}
			if ok == edges[[2]int32{u, v}] {
				t.Fatalf("insert(%d,%d) applied=%v, reference says %v", u, v, ok, edges[[2]int32{u, v}])
			}
			edges[[2]int32{u, v}] = true
		}
		// Periodic mid-sequence compactions exercise the rebase path.
		if op%97 == 96 {
			if _, _, err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}

	want := rebuildReference(t, n, edges)
	checkViewMatches(t, d, want)

	got, gen, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if gen != d.Gen() || d.Dirty() {
		t.Fatalf("post-compact gen %d (dynamic %d), dirty %v", gen, d.Gen(), d.Dirty())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("compacted graph invalid: %v", err)
	}
	checkSameGraph(t, got, want)
	// Compact on a clean graph is a no-op returning the same snapshot.
	again, gen2, err := d.Compact()
	if err != nil || again != got || gen2 != gen {
		t.Fatalf("clean compact: %p/%d vs %p/%d, err %v", again, gen2, got, gen, err)
	}
}

// TestDynamicWalkViewInvalidation: pending edits never reach the base's
// cached walk view, and compaction swaps in the new snapshot's view.
func TestDynamicWalkViewInvalidation(t *testing.T) {
	base := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := NewDynamic(base)
	vw := base.WalkView()
	if _, err := d.InsertEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if d.Base().WalkView() != vw || vw.InDeg(0) != 0 {
		t.Fatal("a pending edit must not reach the base's walk view")
	}
	ng, _, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Base().WalkView(); got != ng.WalkView() || got == vw || got.InDeg(0) != 1 {
		t.Fatal("compaction should serve the (new) snapshot's cached walk view")
	}
}

// TestDynamicConcurrentMutateCompact hammers insertions from several
// goroutines while compactions run concurrently, then verifies no update
// was lost to a racing rebase. Run under -race in CI.
func TestDynamicConcurrentMutateCompact(t *testing.T) {
	const writers = 4
	const perWriter = 300
	d := NewDynamic(nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Distinct edges per writer: (w*perWriter+i) -> target.
				u := w*perWriter + i + 1
				if _, err := d.InsertEdge(u, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, _, err := d.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	g, _, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != writers*perWriter {
		t.Fatalf("lost updates: %d edges, want %d", g.NumEdges(), writers*perWriter)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.InDegree(0) != writers*perWriter {
		t.Fatalf("in-degree of hub = %d, want %d", g.InDegree(0), writers*perWriter)
	}
}

func TestDynamicRowSnapshotsAreStable(t *testing.T) {
	base := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}})
	d := NewDynamic(base)
	row := d.OutNeighbors(0)
	if fmt.Sprint(row) != "[1 2]" {
		t.Fatalf("row = %v", row)
	}
	if _, err := d.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// The previously returned slice must be untouched (copy-on-write).
	if fmt.Sprint(row) != "[1 2]" {
		t.Fatalf("snapshot row mutated: %v", row)
	}
	if got := d.OutNeighbors(0); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("current row = %v, want [2 3]", got)
	}
}
