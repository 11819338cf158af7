package graph

import (
	"fmt"
	"math"
)

// Builder accumulates directed edges and produces an immutable Graph.
// It deduplicates parallel edges and can optionally drop self-loops
// (SimRank's definition works on simple digraphs; the paper's datasets are
// deduplicated web/social graphs).
type Builder struct {
	n         int
	src       []int32
	dst       []int32
	keepLoops bool
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// KeepSelfLoops makes Build retain edges u->u. Default is to drop them.
func (b *Builder) KeepSelfLoops() *Builder {
	b.keepLoops = true
	return b
}

// Grow raises the node count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the directed edge u->v. Nodes must already be in range;
// use Grow or AddEdgeGrow for dynamic sizing.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	b.src = append(b.src, int32(u))
	b.dst = append(b.dst, int32(v))
	return nil
}

// AddEdgeGrow records u->v, growing the node count as needed. Ids must
// fit in int32 (the adjacency representation); larger ids are rejected
// rather than silently wrapped.
func (b *Builder) AddEdgeGrow(u, v int) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node in edge (%d,%d)", u, v)
	}
	if int64(u) >= math.MaxInt32 || int64(v) >= math.MaxInt32 {
		return fmt.Errorf("graph: edge (%d,%d) exceeds int32 node-id range", u, v)
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	return b.AddEdge(u, v)
}

// Build orders, deduplicates, and freezes the edges into a Graph with two
// stable counting passes, O(n + m) and no comparison sort: pass 1 buckets
// the sources by destination, pass 2 walks destinations in ascending order
// and scatters each one into its source's out-row, so every out-row comes
// out sorted. Self-loops (unless KeepSelfLoops) and duplicates are then
// dropped while the rows are compacted in place. The Builder can be reused
// afterwards (its edge buffer is retained).
func (b *Builder) Build() (*Graph, error) {
	n, m := b.n, len(b.src)
	keep := b.keepLoops

	// Pass 1: tu[dstOff[v]:dstOff[v+1]] are the sources of the edges
	// entering v, in insertion order.
	dstOff := make([]int64, n+1)
	prefixCounts(dstOff, b.dst)
	cursor := make([]int64, n)
	copy(cursor, dstOff[:n])
	tu := make([]int32, m)
	for i, v := range b.dst {
		tu[cursor[v]] = b.src[i]
		cursor[v]++
	}

	// Pass 2: destinations in ascending order into the out-rows.
	g := &Graph{n: n}
	g.outOff = make([]int64, n+1)
	prefixCounts(g.outOff, b.src)
	copy(cursor, g.outOff[:n])
	outAdj := make([]int32, m)
	for v := 0; v < n; v++ {
		for _, u := range tu[dstOff[v]:dstOff[v+1]] {
			outAdj[cursor[u]] = int32(v)
			cursor[u]++
		}
	}

	// Compact each sorted row in place, dropping loops and repeats.
	var w, start int64
	for u := 0; u < n; u++ {
		end := g.outOff[u+1]
		prev := int32(-1)
		for _, v := range outAdj[start:end] {
			if v == prev || (v == int32(u) && !keep) {
				continue
			}
			outAdj[w] = v
			w++
			prev = v
		}
		g.outOff[u+1] = w
		start = end
	}
	g.outAdj = outAdj[:w]
	g.m = int(w)

	// Reverse CSR via counting sort over destinations; tu is free again.
	g.inOff = dstOff
	prefixCounts(g.inOff, g.outAdj)
	g.inAdj = tu[:g.m]
	copy(cursor, g.inOff[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			g.inAdj[cursor[v]] = int32(u)
			cursor[v]++
		}
	}
	// Sources arrive in increasing u, so each in-adjacency row is sorted.
	return g, nil
}

// prefixCounts sets off[k] to the number of keys below k, so
// off[k]:off[k+1] is key k's bucket. Every key must be below len(off)-1.
func prefixCounts(off []int64, keys []int32) {
	clear(off)
	for _, k := range keys {
		off[k+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
}

// FromEdges is a convenience constructor: build a graph with n nodes from
// an edge list given as (u, v) pairs.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error; for tests and examples.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
