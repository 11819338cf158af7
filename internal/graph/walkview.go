package graph

import (
	"fmt"
	"math"
)

// WalkView is the cache-friendly companion of a Graph for Monte Carlo
// walk kernels. It serves the three memory accesses a walk step actually
// performs with the fewest possible cache lines:
//
//   - InRow/OutRow return a row's adjacency base offset AND degree from
//     one load pair (off[v] and off[v+1] share a cache line), so the
//     stepping loop never does a separate degree lookup for the node it
//     is standing on. The view keeps its own uint32 copy of each offset
//     array, half the size of the graph's int64 CSR offsets, so a walk
//     that touches nodes all over the graph keeps twice as many rows'
//     descriptors in cache (RMAT(200000, 2000000)'s row walk, median of
//     12 rotated runs on a 2-vCPU VM: 0.91x the time of int64 offsets).
//     A graph of 2^32 or more edges has no view;
//   - InDeg/OutDeg are dense int32 degree arrays (4 bytes/node instead
//     of a 16-byte offset pair) for the frequent case of needing only a
//     neighbor's degree — the MCSS importance-weight update reads
//     |In(next)| without ever visiting next's in-adjacency.
//
// Determinism contract: kernels convert the int32 degrees with
// float64(d) — exact for any realistic degree — and keep the IEEE
// divide, so results match the CSR formulation bit for bit.
//
// A WalkView is immutable after construction and safe for concurrent use.
// Obtain one with Graph.WalkView, which builds it once and caches it.
// OutRows/InRows add, on first use, a copy of the adjacency laid out for
// the pull direction of a sparse matvec (see PullRows).
type WalkView struct {
	g *Graph

	inDeg, outDeg []int32

	// 32-bit copies of the graph's CSR offsets, and aliases of its
	// adjacency so neighbor fetches don't chase the *Graph pointer.
	inOff, outOff []uint32
	inAdj, outAdj []int32

	// Pull layouts of the two directions, built on first use (pullrows.go).
	outRows, inRows lazyRows
}

// maxViewEdges bounds the edge count of a graph with a walk view: its
// offsets are uint32. (2^32 edges are 32 GB of adjacency.)
const maxViewEdges = math.MaxUint32

// newWalkView precomputes the degree arrays and 32-bit offsets of g. It
// panics if g has more than maxViewEdges edges.
func newWalkView(g *Graph) *WalkView {
	if int64(g.m) > maxViewEdges {
		panic(fmt.Sprintf("graph: %d edges exceed the walk view's 32-bit offsets (at most %d)", g.m, int64(maxViewEdges)))
	}
	n := g.n
	w := &WalkView{
		g:      g,
		inDeg:  make([]int32, n),
		outDeg: make([]int32, n),
		inOff:  make([]uint32, n+1),
		outOff: make([]uint32, n+1),
		inAdj:  g.inAdj,
		outAdj: g.outAdj,
	}
	for v := 0; v <= n; v++ {
		w.inOff[v] = uint32(g.inOff[v])
		w.outOff[v] = uint32(g.outOff[v])
	}
	for v := 0; v < n; v++ {
		w.inDeg[v] = int32(w.inOff[v+1] - w.inOff[v])
		w.outDeg[v] = int32(w.outOff[v+1] - w.outOff[v])
	}
	return w
}

// WalkView returns the graph's precomputed walk view, building it on
// first use. Concurrent first calls may build it twice; the result is
// identical and one copy wins, so the race is benign.
func (g *Graph) WalkView() *WalkView {
	if v := g.view.Load(); v != nil {
		return v
	}
	g.view.CompareAndSwap(nil, newWalkView(g))
	return g.view.Load()
}

// Graph returns the underlying graph.
func (w *WalkView) Graph() *Graph { return w.g }

// NumNodes returns the node count.
func (w *WalkView) NumNodes() int { return w.g.n }

// InRow returns the base index into the in-adjacency and the in-degree
// of v; in-neighbor i of v is InAt(base + i).
func (w *WalkView) InRow(v int32) (base int64, deg int32) {
	b := w.inOff[v]
	return int64(b), int32(w.inOff[v+1] - b)
}

// OutRow returns the base index into the out-adjacency and the
// out-degree of u; out-neighbor i of u is OutAt(base + i).
func (w *WalkView) OutRow(u int32) (base int64, deg int32) {
	b := w.outOff[u]
	return int64(b), int32(w.outOff[u+1] - b)
}

// InAt indexes the in-adjacency array (see InRow).
func (w *WalkView) InAt(i int64) int32 { return w.inAdj[i] }

// OutAt indexes the out-adjacency array (see OutRow).
func (w *WalkView) OutAt(i int64) int32 { return w.outAdj[i] }

// InDeg returns |In(v)| from the dense degree array (one 4-byte load).
func (w *WalkView) InDeg(v int32) int32 { return w.inDeg[v] }

// OutDeg returns |Out(u)| from the dense degree array (one 4-byte load).
func (w *WalkView) OutDeg(u int32) int32 { return w.outDeg[u] }

// MemoryBytes reports the resident size of the precomputed arrays, 16
// bytes a node plus 8: two int32 degree arrays and two uint32 offset
// arrays (the adjacency aliases are owned by the graph and not counted,
// nor are pull rows).
func (w *WalkView) MemoryBytes() int64 {
	return int64(len(w.inDeg)+len(w.outDeg)+len(w.inOff)+len(w.outOff)) * 4
}
