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

func TestDynamicInsertDeleteSemantics(t *testing.T) {
	base := MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	d := NewDynamic(base, 0)

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
	// Real insert; inserting it again is a duplicate.
	if ok, err := d.InsertEdge(2, 0); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	if d.Gen() != 1 || d.Pending() != 1 {
		t.Fatalf("after insert: gen %d pending %d", d.Gen(), d.Pending())
	}
	if ok, err := d.InsertEdge(2, 0); err != nil || ok {
		t.Fatalf("duplicate pending insert: ok=%v err=%v", ok, err)
	}
	// Delete absent edge: no-op.
	if ok, err := d.DeleteEdge(2, 1); err != nil || ok {
		t.Fatalf("absent delete: ok=%v err=%v", ok, err)
	}
	// Delete a base edge; deleting it again is absent.
	if ok, err := d.DeleteEdge(0, 1); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if ok, err := d.DeleteEdge(0, 1); err != nil || ok {
		t.Fatalf("repeated delete: ok=%v err=%v", ok, err)
	}
	// Deleting an edge from an id the graph does not have is absent.
	if ok, err := d.DeleteEdge(7, 0); err != nil || ok {
		t.Fatalf("delete past the node range: ok=%v err=%v", ok, err)
	}
	// Growth: inserting an edge naming a new id extends the node range.
	if ok, err := d.InsertEdge(1, 5); err != nil || !ok {
		t.Fatalf("growing insert: ok=%v err=%v", ok, err)
	}
	if d.NumNodes() != 6 || d.Gen() != 3 || d.Pending() != 3 {
		t.Fatalf("after growth: nodes %d gen %d pending %d", d.NumNodes(), d.Gen(), d.Pending())
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
	got, gen := d.Compact()
	if gen != 3 || d.Dirty() {
		t.Fatalf("compact: gen %d dirty %v", gen, d.Dirty())
	}
	checkSameGraph(t, got, MustFromEdges(6, [][2]int{{1, 2}, {2, 0}, {1, 5}}))
}

// TestDynamicInsertThenDeleteNewEdge: both edits count, but they cancel,
// so the compacted graph is the base at the new generation.
func TestDynamicInsertThenDeleteNewEdge(t *testing.T) {
	base := MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	d := NewDynamic(base, 0)
	if ok, err := d.InsertEdge(2, 0); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	if ok, err := d.DeleteEdge(2, 0); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if d.Pending() != 2 || d.Gen() != 2 {
		t.Fatalf("pending %d gen %d, want 2 and 2", d.Pending(), d.Gen())
	}
	got, gen := d.Compact()
	if gen != 2 || d.Dirty() {
		t.Fatalf("compact: gen %d dirty %v", gen, d.Dirty())
	}
	checkSameGraph(t, got, base)
}

func TestDynamicMatchesRebuildUnderRandomOps(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(7))
	base := MustFromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 9}})
	edges := map[[2]int32]bool{}
	base.Edges(func(u, v int32) bool { edges[[2]int32{u, v}] = true; return true })

	d := NewDynamic(base, 0)
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
			d.Compact()
		}
	}

	want := rebuildReference(t, n, edges)
	got, gen := d.Compact()
	if gen != d.Gen() || d.Dirty() {
		t.Fatalf("post-compact gen %d (dynamic %d), dirty %v", gen, d.Gen(), d.Dirty())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("compacted graph invalid: %v", err)
	}
	checkSameGraph(t, got, want)
	// Compact on a clean graph is a no-op returning the same snapshot.
	again, gen2 := d.Compact()
	if again != got || gen2 != gen {
		t.Fatalf("clean compact: %p/%d vs %p/%d", again, gen2, got, gen)
	}
}

// TestDynamicWalkViewInvalidation: pending edits never reach the base's
// cached walk view, and the compacted snapshot carries its own.
func TestDynamicWalkViewInvalidation(t *testing.T) {
	base := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := NewDynamic(base, 0)
	vw := base.WalkView()
	if _, err := d.InsertEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if base.WalkView() != vw || vw.InDeg(0) != 0 {
		t.Fatal("a pending edit must not reach the base's walk view")
	}
	ng, _ := d.Compact()
	if ng == base || ng.WalkView() == vw || ng.WalkView().InDeg(0) != 1 {
		t.Fatal("the compacted snapshot should serve its own walk view")
	}
	if again, _ := d.Compact(); again != ng || again.WalkView() != ng.WalkView() {
		t.Fatal("a clean compaction should return the snapshot and its cached walk view")
	}
}

// TestDynamicConcurrentMutateCompact hammers insertions from several
// goroutines while compactions run concurrently, then verifies no update
// was lost to a racing rebase. Run under -race in CI.
func TestDynamicConcurrentMutateCompact(t *testing.T) {
	const writers = 4
	const perWriter = 300
	d := NewDynamic(nil, 0)
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
			d.Compact()
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	g, _ := d.Compact()
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

// TestDynamicConcurrentToggleCompact flips edges in and out of the graph
// while compactions run, so edits land on log entries a running merge
// has already taken: an entry reverted to the old base during the merge
// must come back as an entry against the new one. Each writer owns its
// edges, so it knows every edit applies, and the final graph is known.
func TestDynamicConcurrentToggleCompact(t *testing.T) {
	const writers, perWriter, rounds = 4, 50, 41
	var initial [][2]int
	for u := 1; u <= writers*perWriter; u += 2 {
		initial = append(initial, [2]int{u, 0})
	}
	d := NewDynamic(MustFromEdges(writers*perWriter+1, initial), 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perWriter; i++ {
					u := w*perWriter + i + 1
					apply := d.InsertEdge
					if (u%2 == 1) == (r%2 == 0) {
						apply = d.DeleteEdge
					}
					if ok, err := apply(u, 0); err != nil || !ok {
						t.Errorf("round %d edge (%d,0): ok=%v err=%v", r, u, ok, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.Compact()
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	// An odd number of rounds flips every edge against the base.
	var want [][2]int
	for u := 2; u <= writers*perWriter; u += 2 {
		want = append(want, [2]int{u, 0})
	}
	g, gen := d.Compact()
	if gen != writers*perWriter*rounds || d.Dirty() {
		t.Fatalf("gen %d dirty %v, want gen %d", gen, d.Dirty(), writers*perWriter*rounds)
	}
	checkSameGraph(t, g, MustFromEdges(writers*perWriter+1, want))
}

// BenchmarkDynamicApplyCompact times applying k edits (half inserts of
// random edges, half deletes of base edges) to a fresh log over a
// 100k-node, 1M-edge graph and compacting them.
func BenchmarkDynamicApplyCompact(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	bl := NewBuilder(n)
	for i := 0; i < 1_000_000; i++ {
		if err := bl.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
			b.Fatal(err)
		}
	}
	base, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 1000, 100_000} {
		b.Run(fmt.Sprint("pending=", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(2))
				d := NewDynamic(base, 0)
				for e := 0; e < k; e++ {
					u := rng.Intn(n)
					if row := base.OutNeighbors(u); e%2 == 1 && len(row) > 0 {
						d.DeleteEdge(u, int(row[rng.Intn(len(row))]))
					} else {
						d.InsertEdge(u, rng.Intn(n))
					}
				}
				d.Compact()
			}
		})
	}
}
