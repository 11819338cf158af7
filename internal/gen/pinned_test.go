package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// fingerprint hashes a graph's whole CSR with FNV-64a: n, m, the out
// offsets and adjacency, then the in offsets and adjacency, all as
// little-endian integers. Any change to which edges a generator draws, or
// to how Build orders and deduplicates them, moves it.
func fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put32 := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(x))
		h.Write(buf[:4])
	}
	n := g.NumNodes()
	put(int64(n))
	put(int64(g.NumEdges()))
	for _, side := range []struct {
		deg  func(int) int
		nbrs func(int) []int32
	}{{g.OutDegree, g.OutNeighbors}, {g.InDegree, g.InNeighbors}} {
		var off int64
		put(off)
		for u := 0; u < n; u++ {
			off += int64(side.deg(u))
			put(off)
		}
		for u := 0; u < n; u++ {
			for _, v := range side.nbrs(u) {
				put32(v)
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorsPinned fixes every random generator's output bit for bit.
// The graphs stand in for the paper's datasets and feed every golden
// downstream, so a faster generator or Build must reproduce them exactly;
// a deliberate change to a generator moves its constant in the same diff.
func TestGeneratorsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*graph.Graph, error)
		want  uint64
	}{
		{"RMAT", func() (*graph.Graph, error) { return RMAT(20000, 200000, DefaultRMAT, 1003) }, 0x18937c16b1a663d2},
		{"ErdosRenyi", func() (*graph.Graph, error) { return ErdosRenyi(20000, 200000, 1) }, 0x025064c84c2739d1},
		{"BarabasiAlbert", func() (*graph.Graph, error) { return BarabasiAlbert(20000, 10, 2) }, 0x02296fdc80476dd0},
		{"Copying", func() (*graph.Graph, error) { return Copying(20000, 10, 0.3, 3) }, 0xff731ad94e173b63},
		{"PlantedPartition", func() (*graph.Graph, error) { return PlantedPartition(20, 1000, 10, 0.8, 4) }, 0x613dde36ca45dbd5},
		{"Bipartite", func() (*graph.Graph, error) { return Bipartite(10000, 10000, 20, 5) }, 0x094c8fdefe617082},
	} {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprint(g); got != tc.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x (n=%d m=%d)", tc.name, got, tc.want, g.NumNodes(), g.NumEdges())
		}
	}
}

// serialRMAT is RMAT's draw loop on one core: every edge from the one
// stream in order, through AddEdge. It is the oracle the split-stream
// workers are held to.
func serialRMAT(t *testing.T, n, m int, p RMATParams, seed uint64) *graph.Graph {
	t.Helper()
	scale := 0
	for 1<<scale < n {
		scale++
	}
	src := xrand.New(seed)
	draws := make([]float64, 5*scale)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := rmatEdge(src, draws, p)
		if err := b.AddEdge(u%n, v%n); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRMATWorkers holds RMAT to one graph at any worker count: each
// worker's advanced copy of the stream must start exactly where the
// previous worker's run of edges stopped drawing. The cases cover no
// edges, fewer edges than workers, an edge count no worker count divides,
// a one-node graph (scale 0, no draws at all) and TestGeneratorsPinned's
// graph, whose pinned fingerprint it must keep.
func TestRMATWorkers(t *testing.T) {
	for _, tc := range []struct {
		n, m   int
		seed   uint64
		pinned uint64
	}{
		{20000, 200000, 1003, 0x18937c16b1a663d2},
		{1000, 0, 1, 0},
		{1000, 5, 2, 0},
		{1, 10, 3, 0},
		{3000, 29989, 4, 0},
	} {
		want := tc.pinned
		if want == 0 {
			want = fingerprint(serialRMAT(t, tc.n, tc.m, DefaultRMAT, tc.seed))
		}
		for _, workers := range []int{1, 2, 3, 4, 5, 7} {
			g, err := rmat(tc.n, tc.m, DefaultRMAT, tc.seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(g); got != want {
				t.Errorf("RMAT(%d, %d) on %d workers: fingerprint %#016x, serial %#016x", tc.n, tc.m, workers, got, want)
			}
		}
	}
}

// BenchmarkRMAT times RMAT(200k, 2M), the graph index_build indexes: the
// draw loop and Build together. It reports ns/edge besides ns/op.
func BenchmarkRMAT(b *testing.B) {
	const m = 2000000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(200000, m, DefaultRMAT, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/edge")
}
