// Package graph provides the immutable compressed-sparse-row (CSR) directed
// graph that every CloudWalker component operates on.
//
// SimRank walks travel along in-links, so the graph stores both the out-
// adjacency (forward edges) and the in-adjacency (reverse edges) in CSR
// form. Node identifiers are dense integers in [0, NumNodes()). The
// structure is immutable after construction and safe for concurrent reads.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is an immutable directed graph in CSR form.
type Graph struct {
	n int // number of nodes
	m int // number of directed edges

	// Forward (out-link) CSR: outAdj[outOff[u]:outOff[u+1]] are the
	// targets of edges leaving u, sorted ascending.
	outOff []int64
	outAdj []int32

	// Reverse (in-link) CSR: inAdj[inOff[v]:inOff[v+1]] are the sources
	// of edges entering v, sorted ascending.
	inOff []int64
	inAdj []int32

	// view caches the lazily-built WalkView (see walkview.go).
	view atomic.Pointer[WalkView]
}

// NumNodes returns the number of nodes n; valid node ids are [0, n).
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.m }

// OutDegree returns |Out(u)|.
func (g *Graph) OutDegree(u int) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns |In(v)|.
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
	return g.inAdj[g.inOff[v]+int64(i)]
}

// OutNeighborAt returns the i-th out-neighbor of u (0-indexed). Only
// tests call it: the walk tests' CSR reference of the forward step picks
// neighbours with it.
func (g *Graph) OutNeighborAt(u, i int) int32 {
	return g.outAdj[g.outOff[u]+int64(i)]
}

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

// Transpose returns a new graph with every edge reversed. Because both
// directions are already stored, this is a cheap structural swap. Only
// tests call it: the graph tests check the WalkView of a transposed graph
// against its CSR.
func (g *Graph) Transpose() *Graph {
	return &Graph{
		n:      g.n,
		m:      g.m,
		outOff: g.inOff,
		outAdj: g.inAdj,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
	}
}

// MemoryBytes estimates the resident size of the CSR arrays in bytes. The
// simulated cluster uses it to enforce per-worker memory budgets.
func (g *Graph) MemoryBytes() int64 {
	offsets := int64(len(g.outOff)+len(g.inOff)) * 8
	adj := int64(len(g.outAdj)+len(g.inAdj)) * 4
	return offsets + adj
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
		off  []int64
		adj  []int32
	}{{"out", g.outOff, g.outAdj}, {"in", g.inOff, g.inAdj}} {
		if int64(len(spec.adj)) != spec.off[g.n] {
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
