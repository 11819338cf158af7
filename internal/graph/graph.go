// Package graph provides the immutable compressed-sparse-row (CSR) directed
// graph that every CloudWalker component operates on.
//
// SimRank walks travel along in-links, so the graph stores both the out-
// adjacency (forward edges) and the in-adjacency (reverse edges) in CSR
// form, and that one CSR is what every kernel reads: the Monte Carlo walks
// through InRow/OutRow and InAt/OutAt, the linearized series through
// InRows/OutRows. Node identifiers are dense integers in [0, NumNodes()),
// and a graph holds at most math.MaxUint32 edges. The structure is
// immutable after construction and safe for concurrent reads.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an immutable directed graph in CSR form.
//
// The offsets are uint32, half the size of int64 ones, so a walk that
// touches nodes all over the graph keeps twice as many rows' descriptors
// in cache (RMAT(200000, 2000000)'s row walk, median of 12 rotated runs on
// a 2-vCPU VM: 0.91x the time of int64 offsets). A row's base and degree
// come from one offset pair, off[v] and off[v+1], which share a cache
// line: a walk step standing on v needs no separate degree lookup, and a
// degree costs one 8-byte read.
type Graph struct {
	n int // number of nodes
	m int // number of directed edges

	// Forward (out-link) CSR: outAdj[outOff[u]:outOff[u+1]] are the
	// targets of edges leaving u, sorted ascending.
	outOff []uint32
	outAdj []int32

	// Reverse (in-link) CSR: inAdj[inOff[v]:inOff[v+1]] are the sources
	// of edges entering v, sorted ascending.
	inOff []uint32
	inAdj []int32

	// Pull layouts of the two directions, built on first use (pullrows.go).
	outRows, inRows lazyRows
}

// maxEdges bounds a graph's edge count: its offsets are uint32. (2^32
// edges are 32 GB of adjacency.)
const maxEdges = math.MaxUint32

// checkEdges refuses an edge count the uint32 offsets cannot hold. Build,
// ReadBinary and Dynamic.InsertEdge share it.
func checkEdges(m uint64) error {
	if m > maxEdges {
		return fmt.Errorf("graph: %d edges exceed the 32-bit offsets (at most %d)", m, uint64(maxEdges))
	}
	return nil
}

// WalkView is Graph: the walk kernels read the graph's own CSR.
//
// Deprecated: the alias and Graph.WalkView remain only because the
// benchmark module still names them (env.go, trace.go); they go with its
// next change (ROADMAP item 1).
type WalkView = Graph

// WalkView returns g.
//
// Deprecated: use g itself; see the WalkView type.
func (g *Graph) WalkView() *WalkView { return g }

// NumNodes returns the number of nodes n; valid node ids are [0, n).
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.m }

// OutDegree returns |Out(u)|, read off u's offset pair.
func (g *Graph) OutDegree(u int) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns |In(v)|, read off v's offset pair.
func (g *Graph) InDegree(v int) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the targets of edges leaving u, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u int) []int32 {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the sources of edges entering v, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v int) []int32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// InNeighborAt returns the i-th in-neighbor of v (0-indexed). It is the
// hot call of the walk engine, so it avoids slicing.
func (g *Graph) InNeighborAt(v, i int) int32 {
	return g.inAdj[int(g.inOff[v])+i]
}

// InRow returns the base index into the in-adjacency and the in-degree
// of v from one offset pair; in-neighbor i of v is InAt(base + i).
func (g *Graph) InRow(v int32) (base int64, deg int32) {
	b := g.inOff[v]
	return int64(b), int32(g.inOff[v+1] - b)
}

// OutRow returns the base index into the out-adjacency and the
// out-degree of u; out-neighbor i of u is OutAt(base + i).
func (g *Graph) OutRow(u int32) (base int64, deg int32) {
	b := g.outOff[u]
	return int64(b), int32(g.outOff[u+1] - b)
}

// InAt indexes the in-adjacency array (see InRow).
func (g *Graph) InAt(i int64) int32 { return g.inAdj[i] }

// OutAt indexes the out-adjacency array (see OutRow).
func (g *Graph) OutAt(i int64) int32 { return g.outAdj[i] }

// HasEdge reports whether the edge u->v exists, by binary search over
// Out(u). A source outside [0, n) has no edges.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// Edges calls fn for every directed edge (u, v) in node order. It stops
// early if fn returns false.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !fn(int32(u), v) {
				return
			}
		}
	}
}

// MemoryBytes estimates the resident size of the CSR arrays in bytes, 8 a
// node plus 8 an edge (pull rows, built on first use, are not counted).
// The simulated cluster uses it to enforce per-worker memory budgets.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.outOff)+len(g.inOff)+len(g.outAdj)+len(g.inAdj)) * 4
}

// Validate checks structural invariants and returns the first violation.
// It is used by tests and by the binary codec after deserialization.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative node count %d", g.n)
	}
	if len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return fmt.Errorf("graph: offset arrays have lengths %d/%d, want %d",
			len(g.outOff), len(g.inOff), g.n+1)
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	if int(g.outOff[g.n]) != g.m || int(g.inOff[g.n]) != g.m {
		return fmt.Errorf("graph: edge count %d disagrees with offsets %d/%d",
			g.m, g.outOff[g.n], g.inOff[g.n])
	}
	for _, spec := range []struct {
		name string
		off  []uint32
		adj  []int32
	}{{"out", g.outOff, g.outAdj}, {"in", g.inOff, g.inAdj}} {
		if len(spec.adj) != int(spec.off[g.n]) {
			return fmt.Errorf("graph: %s adjacency length %d, offsets say %d",
				spec.name, len(spec.adj), spec.off[g.n])
		}
		for u := 0; u < g.n; u++ {
			if spec.off[u] > spec.off[u+1] {
				return fmt.Errorf("graph: %s offsets decrease at node %d", spec.name, u)
			}
			row := spec.adj[spec.off[u]:spec.off[u+1]]
			for i, v := range row {
				if v < 0 || int(v) >= g.n {
					return fmt.Errorf("graph: %s edge from %d to out-of-range node %d", spec.name, u, v)
				}
				if i > 0 && row[i-1] >= v {
					return fmt.Errorf("graph: %s adjacency of %d not strictly sorted", spec.name, u)
				}
			}
		}
	}
	// Cross-check: edge u->v in forward CSR must appear in reverse CSR.
	// Full verification is O(m log d); acceptable for test-size graphs.
	var mismatch error
	g.Edges(func(u, v int32) bool {
		in := g.InNeighbors(int(v))
		i := sort.Search(len(in), func(i int) bool { return in[i] >= u })
		if i >= len(in) || in[i] != u {
			mismatch = fmt.Errorf("graph: edge %d->%d missing from reverse CSR", u, v)
			return false
		}
		return true
	})
	return mismatch
}

// Stats summarizes degree structure; used by the datasets table and the CLI.
type Stats struct {
	Nodes        int
	Edges        int
	MaxInDegree  int
	MaxOutDegree int
	AvgDegree    float64 // m / n
	DanglingIn   int     // nodes with no in-links (walks from them stop)
	DanglingOut  int     // nodes with no out-links
	SelfLoops    int
}

// ComputeStats scans the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats {
	st := Stats{Nodes: g.n, Edges: g.m}
	if g.n > 0 {
		st.AvgDegree = float64(g.m) / float64(g.n)
	}
	for u := 0; u < g.n; u++ {
		din, dout := g.InDegree(u), g.OutDegree(u)
		if din > st.MaxInDegree {
			st.MaxInDegree = din
		}
		if dout > st.MaxOutDegree {
			st.MaxOutDegree = dout
		}
		if din == 0 {
			st.DanglingIn++
		}
		if dout == 0 {
			st.DanglingOut++
		}
		if g.HasEdge(u, u) {
			st.SelfLoops++
		}
	}
	return st
}
