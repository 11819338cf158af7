package graph

import (
	"bytes"
	"fmt"
	"testing"

	"cloudwalker/internal/xrand"
)

// edgeListText renders m random edges over n nodes as an edge-list file.
func edgeListText(n, m int, seed uint64) []byte {
	src := xrand.New(seed)
	var buf bytes.Buffer
	for i := 0; i < m; i++ {
		fmt.Fprintf(&buf, "%d %d\n", src.Intn(n), src.Intn(n))
	}
	return buf.Bytes()
}

// TestReadEdgeListAllocs holds the parser to a constant number of
// allocations per file: the builder's amortized growth and Build's arrays,
// none per line.
func TestReadEdgeListAllocs(t *testing.T) {
	const lines = 10000
	data := edgeListText(1000, lines, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadEdgeList(bytes.NewReader(data), 0); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / lines; perLine > 0.01 {
		t.Fatalf("%.0f allocations for %d lines (%.4f per line), want <= 0.01 per line", allocs, lines, perLine)
	}
}

// BenchmarkReadEdgeList parses a 2M-edge, 200k-node text edge list held
// in memory, Build included.
func BenchmarkReadEdgeList(b *testing.B) {
	data := edgeListText(200000, 2000000, 1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(data), 0); err != nil {
			b.Fatal(err)
		}
	}
}
