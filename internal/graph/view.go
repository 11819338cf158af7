package graph

// View is the read interface shared by the immutable CSR *Graph and the
// mutable *Dynamic overlay. Walk kernels and baselines that only need
// neighborhood reads accept a View so they can run against either a
// frozen snapshot or a live graph with pending edge updates.
//
// Contract: node ids are dense integers in [0, NumNodes()); adjacency
// rows are sorted ascending and duplicate-free; InNeighborAt(v, i) is
// valid for 0 <= i < InDegree(v) (same for the out direction). A View
// must be safe for concurrent readers, and InNeighbors/OutNeighbors must
// return a STABLE slice: immutable for as long as the caller holds it,
// even if the view is mutated afterwards (*Graph rows are frozen CSR;
// *Dynamic rows are copy-on-write). Concurrent readers that need a
// consistent (degree, neighbor) pair — every walk kernel does — must
// take one row snapshot and index into it rather than pairing separate
// InDegree/InNeighborAt calls, which may straddle a mutation on a live
// *Dynamic.
//
// Performance: *Graph serves these calls straight from CSR arrays;
// *Dynamic takes a read lock per call and merges its overlay, which is
// correct but slower. The hot walk kernels therefore take no View: they
// run on a compacted snapshot's Graph.WalkView, and only the per-walker
// helpers that must read a live overlay go through this interface.
type View interface {
	NumNodes() int
	NumEdges() int
	InDegree(v int) int
	OutDegree(u int) int
	InNeighbors(v int) []int32
	OutNeighbors(u int) []int32
	InNeighborAt(v, i int) int32
	OutNeighborAt(u, i int) int32
	HasEdge(u, v int) bool
}

// Compile-time checks that both graph types satisfy the read interface.
var (
	_ View = (*Graph)(nil)
	_ View = (*Dynamic)(nil)
)
