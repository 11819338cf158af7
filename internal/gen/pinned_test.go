package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cloudwalker/internal/graph"
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

// BenchmarkRMAT times RMAT(200k, 2M), the graph index_build indexes: the
// draw loop and Build together.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(200000, 2000000, DefaultRMAT, 1); err != nil {
			b.Fatal(err)
		}
	}
}
