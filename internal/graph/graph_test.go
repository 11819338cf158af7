package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cloudwalker/internal/xrand"
)

// diamond: 0->1, 0->2, 1->3, 2->3
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 4/4", g.NumNodes(), g.NumEdges())
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := g.InNeighbors(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("In(3) = %v", got)
	}
	if g.InDegree(0) != 0 || g.OutDegree(3) != 0 {
		t.Fatalf("degrees wrong: in(0)=%d out(3)=%d", g.InDegree(0), g.OutDegree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDedupAndLoops(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(1, 1); err != nil { // self loop, dropped by default
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedup failed: m=%d, want 2", g.NumEdges())
	}
	if g.HasEdge(1, 1) {
		t.Fatal("self loop retained")
	}
}

func TestBuildKeepSelfLoops(t *testing.T) {
	b := NewBuilder(2).KeepSelfLoops()
	if err := b.AddEdge(0, 0); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop dropped despite KeepSelfLoops")
	}
	st := g.ComputeStats()
	if st.SelfLoops != 1 {
		t.Fatalf("SelfLoops = %d, want 1", st.SelfLoops)
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestAddEdgeGrow(t *testing.T) {
	b := NewBuilder(0)
	if err := b.AddEdgeGrow(5, 3); err != nil {
		t.Fatal(err)
	}
	if b.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", b.NumNodes())
	}
	if err := b.AddEdgeGrow(-1, 2); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedNodes(t *testing.T) {
	g, err := FromEdges(10, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.DanglingIn != 9 { // all but node 1
		t.Fatalf("DanglingIn = %d, want 9", st.DanglingIn)
	}
	if st.DanglingOut != 9 { // all but node 0
		t.Fatalf("DanglingOut = %d, want 9", st.DanglingOut)
	}
}

// transpose returns a new graph with every edge reversed. Because both
// directions are already stored, this is a cheap structural swap; the
// walk-view tests check the WalkView of a transposed graph against its
// CSR.
func transpose(g *Graph) *Graph {
	return &Graph{
		n:      g.n,
		m:      g.m,
		outOff: g.inOff,
		outAdj: g.inAdj,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(t)
	tg := transpose(g)
	if tg.NumNodes() != g.NumNodes() || tg.NumEdges() != g.NumEdges() {
		t.Fatal("transpose changed size")
	}
	g.Edges(func(u, v int32) bool {
		if !tg.HasEdge(int(v), int(u)) {
			t.Errorf("edge %d->%d missing from transpose", v, u)
		}
		return true
	})
	// Double transpose is the original.
	ttg := transpose(tg)
	if !sameGraph(g, ttg) {
		t.Fatal("double transpose differs from original")
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		x, y := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

func TestEdgesEarlyStop(t *testing.T) {
	g := diamond(t)
	count := 0
	g.Edges(func(u, v int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed, visited %d edges", count)
	}
}

func TestStats(t *testing.T) {
	g := diamond(t)
	st := g.ComputeStats()
	if st.Nodes != 4 || st.Edges != 4 {
		t.Fatalf("stats size wrong: %+v", st)
	}
	if st.MaxInDegree != 2 || st.MaxOutDegree != 2 {
		t.Fatalf("max degrees wrong: %+v", st)
	}
	if st.AvgDegree != 1.0 {
		t.Fatalf("avg degree %g, want 1.0", st.AvgDegree)
	}
	if st.DanglingIn != 1 || st.DanglingOut != 1 {
		t.Fatalf("dangling wrong: %+v", st)
	}
}

func TestEdgeListRoundtrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("edge list roundtrip changed the graph")
	}
}

// TestEdgeListKeepsTrailingNodes: a graph whose last nodes have no edge
// reads back whole with no node-count hint, through the header line.
func TestEdgeListKeepsTrailingNodes(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatalf("round trip: %d nodes, %d edges; want 5, 2", g2.NumNodes(), g2.NumEdges())
	}
	for in, want := range map[string]int{
		"# nodes=2 edges=1\n0 4\n":  5, // a floor: ids past it still count
		"0 1\n# nodes=9 edges=1\n":  2, // a header past line 1 is a comment
		"# nodes=9 edges=1x\n0 1\n": 2, // ... and so is a malformed one
		"# nodes=9  edges=1\n0 1\n": 2,
	} {
		g, err := ReadEdgeList(strings.NewReader(in), 0)
		if err != nil || g.NumNodes() != want {
			t.Errorf("ReadEdgeList(%q): %v nodes (err %v), want %d", in, g.NumNodes(), err, want)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"0\n", `graph: line 1: want 'src dst', got "0"`},
		{"0\r\n", `graph: line 1: want 'src dst', got "0"`},
		{"0 1\n\t 7  \n", `graph: line 2: want 'src dst', got "7"`},
		{"\u00a0 7 \u2003\n", `graph: line 1: want 'src dst', got "7"`},
		{"a b\n", `graph: line 1: bad source "a": strconv.ParseInt: parsing "a": invalid syntax`},
		{"0 x\n", `graph: line 1: bad target "x": strconv.ParseInt: parsing "x": invalid syntax`},
		{"+ 2\n", `graph: line 1: bad source "+": strconv.ParseInt: parsing "+": invalid syntax`},
		{"1_0 2\n", `graph: line 1: bad source "1_0": strconv.ParseInt: parsing "1_0": invalid syntax`},
		{"0 1\x00\n", `graph: line 1: bad target "1\x00": strconv.ParseInt: parsing "1\x00": invalid syntax`},
		{"\xff 1\n", `graph: line 1: bad source "\xff": strconv.ParseInt: parsing "\xff": invalid syntax`},
		{"5 9999999999\n", `graph: line 1: bad target "9999999999": strconv.ParseInt: parsing "9999999999": value out of range`},
		{"0 -2147483649\n", `graph: line 1: bad target "-2147483649": strconv.ParseInt: parsing "-2147483649": value out of range`},
		{"-1 0\n", `graph: line 1: graph: negative node in edge (-1,0)`},
		{"0 2147483647\n", `graph: line 1: graph: edge (0,2147483647) exceeds int32 node-id range`},
		{"# nodes=2147483648 edges=0\n", `graph: line 1: bad node count "2147483648": strconv.ParseInt: parsing "2147483648": value out of range`},
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.in), 0)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ReadEdgeList(%q) error %v, want %s", tc.in, err, tc.want)
		}
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	src := xrand.New(7)
	b := NewBuilder(50)
	for i := 0; i < 400; i++ {
		if err := b.AddEdge(src.Intn(50), src.Intn(50)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("binary roundtrip changed the graph")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid header wrong magic.
	var buf bytes.Buffer
	buf.Write(make([]byte, 32))
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("zero magic accepted")
	}
	// A first offset below zero must be an error, not a slice panic.
	buf.Reset()
	if err := WriteBinary(&buf, diamond(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[32:], uint64(1<<64-1))
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("negative first offset accepted")
	}
	// Offsets that cover fewer entries than the header's edge count (n=1,
	// m=1, offsets [0 0], adjacency [0]) must be an error, not a panic in
	// the reverse CSR's transpose.
	short := binaryHeader(1, 1)
	for _, w := range []uint64{0, 0} {
		short = binary.LittleEndian.AppendUint64(short, w)
	}
	short = binary.LittleEndian.AppendUint32(short, 0)
	if _, err := ReadBinary(bytes.NewReader(short)); err == nil {
		t.Fatal("offsets short of the edge count accepted")
	}
}

// binaryHeader is a graph file's 32-byte header claiming n nodes and m
// edges, with nothing after it.
func binaryHeader(n, m uint64) []byte {
	var b []byte
	for _, w := range []uint64{binaryMagic, binaryVersion, n, m} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TestBinaryHugeHeader: a header claiming more nodes or edges than a graph
// may have, or more than the input holds, is an error, and decoding it
// allocates a bounded amount rather than what the header asks for.
func TestBinaryHugeHeader(t *testing.T) {
	for _, h := range [][2]uint64{
		{1 << 36, 0},
		{4, 1 << 36},
		{math.MaxInt32, math.MaxUint32}, // within the limits, but no body
	} {
		before := totalAlloc()
		_, err := ReadBinary(bytes.NewReader(binaryHeader(h[0], h[1])))
		if grew := totalAlloc() - before; err == nil || grew >= 64<<20 {
			t.Errorf("header n=%d m=%d: err %v, allocated %d MB", h[0], h[1], err, grew>>20)
		}
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {3, 0, false}, {0, 3, false}, {0, 0, false},
		// A source outside [0, n) has no edges (Dynamic's edit log asks
		// the base about edges from ids the base does not have yet).
		{4, 0, false}, {99, 1, false}, {-1, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestNeighborAt(t *testing.T) {
	g := diamond(t)
	if got := g.InNeighborAt(3, 0); got != 1 {
		t.Fatalf("InNeighborAt(3,0) = %d, want 1", got)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	g := diamond(t)
	if g.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

// Property: building from any random edge multiset yields a valid graph
// whose in/out degree sums both equal the deduplicated edge count.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw % 500)
		src := xrand.New(seed)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			if err := b.AddEdge(src.Intn(n), src.Intn(n)); err != nil {
				return false
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		sumIn, sumOut := 0, 0
		for u := 0; u < n; u++ {
			sumIn += g.InDegree(u)
			sumOut += g.OutDegree(u)
		}
		return sumIn == g.NumEdges() && sumOut == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: text codec roundtrips arbitrary random graphs.
func TestQuickEdgeListRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(30) + 2
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			if err := b.AddEdge(src.Intn(n), src.Intn(n)); err != nil {
				return false
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteEdgeList(&buf, g) != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf, 0)
		if err != nil {
			return false
		}
		return sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: in-adjacency rows stay sorted (walk sampling relies on it).
func TestQuickInAdjacencySorted(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(25) + 2
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			_ = b.AddEdge(src.Intn(n), src.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			in := g.InNeighbors(v)
			if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
