package graph

import (
	"sort"
	"testing"

	"cloudwalker/internal/xrand"
)

// referenceBuild is the comparison-sort Build that the two counting passes
// replaced: order the edges by (src, dst) with sort.Slice, drop self-loops
// and duplicates in one scan, then derive the reverse CSR. It is kept only
// as the oracle the differential tests compare Build against.
func referenceBuild(b *Builder) *Graph {
	m := len(b.src)
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if b.src[i] != b.src[j] {
			return b.src[i] < b.src[j]
		}
		return b.dst[i] < b.dst[j]
	})

	g := &Graph{n: b.n}
	g.outOff = make([]uint32, b.n+1)
	g.outAdj = make([]int32, 0, m)
	var prevU, prevV int32 = -1, -1
	for _, idx := range order {
		u, v := b.src[idx], b.dst[idx]
		if u == v && !b.keepLoops {
			continue
		}
		if u == prevU && v == prevV {
			continue
		}
		prevU, prevV = u, v
		g.outAdj = append(g.outAdj, v)
		g.outOff[u+1]++
	}
	for u := 0; u < b.n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	g.m = len(g.outAdj)

	g.inOff = make([]uint32, b.n+1)
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for v := 0; v < b.n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	g.inAdj = make([]int32, g.m)
	cursor := make([]uint32, b.n)
	copy(cursor, g.inOff[:b.n])
	for u := 0; u < b.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			g.inAdj[cursor[v]] = int32(u)
			cursor[v]++
		}
	}
	return g
}

// buildChunkCounts are the chunk counts the differential tests force on
// Build's counting passes besides its own choice: one chunk is the serial
// sort, and 3 and 7 leave chunks uneven or, on small inputs, empty.
var buildChunkCounts = []int{1, 2, 3, 7}

// checkBuildMatchesReference builds b, by Build and at every count in
// buildChunkCounts, and requires each result to equal referenceBuild's
// bit for bit and to pass Validate.
func checkBuildMatchesReference(t *testing.T, b *Builder) {
	t.Helper()
	want := referenceBuild(b)
	check := func(got *Graph) {
		t.Helper()
		if err := got.Validate(); err != nil {
			t.Fatalf("Build produced an invalid graph: %v", err)
		}
		checkSameGraph(t, got, want)
	}
	check(mustBuild(t, b))
	for _, chunks := range buildChunkCounts {
		t.Logf("building in %d chunks", chunks)
		check(b.build(chunks))
	}
}

func TestBuildMatchesReference(t *testing.T) {
	addAll := func(t *testing.T, b *Builder, edges [][2]int) {
		t.Helper()
		for _, e := range edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	random := func(n, m int, seed uint64) [][2]int {
		src := xrand.New(seed)
		edges := make([][2]int, m)
		for i := range edges {
			edges[i] = [2]int{src.Intn(n), src.Intn(n)}
		}
		return edges
	}

	t.Run("empty", func(t *testing.T) {
		checkBuildMatchesReference(t, NewBuilder(0))
	})
	t.Run("isolated-only", func(t *testing.T) {
		checkBuildMatchesReference(t, NewBuilder(7))
	})
	t.Run("duplicates", func(t *testing.T) {
		b := NewBuilder(5)
		addAll(t, b, [][2]int{{3, 1}, {0, 4}, {3, 1}, {0, 4}, {0, 4}, {2, 2}, {3, 0}, {3, 1}})
		checkBuildMatchesReference(t, b)
	})
	for _, keep := range []bool{false, true} {
		name := "self-loops-dropped"
		if keep {
			name = "self-loops-kept"
		}
		t.Run(name, func(t *testing.T) {
			b := NewBuilder(4)
			if keep {
				b.KeepSelfLoops()
			}
			addAll(t, b, [][2]int{{1, 1}, {1, 0}, {1, 1}, {0, 0}, {3, 3}, {1, 2}, {2, 1}})
			checkBuildMatchesReference(t, b)
		})
	}
	t.Run("grow", func(t *testing.T) {
		b := NewBuilder(2)
		addAll(t, b, [][2]int{{0, 1}, {1, 0}})
		b.Grow(6)
		addAll(t, b, [][2]int{{5, 2}, {2, 5}})
		for _, e := range [][2]int{{9, 3}, {3, 9}, {12, 12}, {9, 3}} {
			if err := b.AddEdgeGrow(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		b.Grow(20) // isolated tail nodes 13..19
		checkBuildMatchesReference(t, b)
	})
	t.Run("isolated-tail", func(t *testing.T) {
		b := NewBuilder(1000)
		addAll(t, b, random(10, 200, 1))
		checkBuildMatchesReference(t, b)
	})
	t.Run("hub-row", func(t *testing.T) {
		const n = 1 << 17
		b := NewBuilder(n)
		src := xrand.New(2)
		for i := 0; i < 100000; i++ {
			if err := b.AddEdge(7, src.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		addAll(t, b, random(n, 1000, 3))
		checkBuildMatchesReference(t, b)
	})
	t.Run("random", func(t *testing.T) {
		b := NewBuilder(3000)
		addAll(t, b, random(3000, 50000, 4))
		checkBuildMatchesReference(t, b)
	})
	t.Run("add-edges", func(t *testing.T) {
		edges := random(300, 4000, 6)
		src, dst := make([]int32, len(edges)), make([]int32, len(edges))
		for i, e := range edges {
			src[i], dst[i] = int32(e[0]), int32(e[1])
		}
		b := NewBuilder(300)
		if err := b.AddEdges(src[:1000], dst[:1000]); err != nil {
			t.Fatal(err)
		}
		addAll(t, b, edges[1000:2000])
		if err := b.AddEdges(src[2000:], dst[2000:]); err != nil {
			t.Fatal(err)
		}
		ref := NewBuilder(300)
		addAll(t, ref, edges)
		checkSameGraph(t, mustBuild(t, b), referenceBuild(ref))
		checkBuildMatchesReference(t, b)
		if err := b.AddEdges(src[:2], dst[:1]); err == nil {
			t.Fatal("AddEdges accepted arrays of different lengths")
		}
		if err := b.AddEdges([]int32{1, 300}, []int32{2, 3}); err == nil {
			t.Fatal("AddEdges accepted an out-of-range source")
		}
		if err := b.AddEdges([]int32{1}, []int32{-1}); err == nil {
			t.Fatal("AddEdges accepted a negative destination")
		}
	})
	t.Run("reused", func(t *testing.T) {
		b := NewBuilder(50)
		addAll(t, b, random(50, 400, 5))
		checkBuildMatchesReference(t, b)
		checkBuildMatchesReference(t, b)
		addAll(t, b, [][2]int{{49, 0}, {0, 49}, {49, 0}})
		checkBuildMatchesReference(t, b)
	})
}

// FuzzBuilderBuild differentially tests Build against referenceBuild on
// arbitrary edge lists.
//
// Encoding: data[0] bit 0 keeps self-loops; data[1] % 32 is the initial
// node count. The rest is consumed 2 bytes at a time as (u, v) = (b0 % 48,
// b1 % 48): an edge inside the current node count goes through AddEdge,
// one beyond it through AddEdgeGrow. The builder is built once halfway
// through the edges and again at the end, so reuse is covered.
func FuzzBuilderBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 8, 1, 2, 1, 2, 2, 1, 3, 3})          // duplicate and self-loop
	f.Add([]byte{1, 8, 1, 2, 1, 2, 2, 1, 3, 3, 3, 3})    // self-loops kept
	f.Add([]byte{0, 2, 0, 1, 40, 3, 3, 40, 47, 47})      // growth past n
	f.Add([]byte{0, 31, 5, 0, 5, 9, 5, 3, 5, 9, 5, 30})  // one hub row
	f.Add([]byte{1, 4, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1}) // all loops, odd tail
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		b := NewBuilder(int(data[1] % 32))
		if data[0]&1 != 0 {
			b.KeepSelfLoops()
		}
		pairs := data[2:]
		half := len(pairs) / 4 * 2
		for i := 0; i+1 < len(pairs); i += 2 {
			if i == half {
				checkBuildMatchesReference(t, b)
			}
			u, v := int(pairs[i]%48), int(pairs[i+1]%48)
			var err error
			if u < b.NumNodes() && v < b.NumNodes() {
				err = b.AddEdge(u, v)
			} else {
				err = b.AddEdgeGrow(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		checkBuildMatchesReference(t, b)
	})
}

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BenchmarkBuilderBuild times Build alone on 2M uniform random edges over
// 200k nodes; the edges are added once, outside the timer. It reports
// ns/edge besides ns/op.
func BenchmarkBuilderBuild(b *testing.B) {
	const n, m = 200000, 2000000
	bl := NewBuilder(n)
	src := xrand.New(1)
	for i := 0; i < m; i++ {
		if err := bl.AddEdge(src.Intn(n), src.Intn(n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/edge")
}
