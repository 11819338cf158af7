package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"cloudwalker/internal/par"
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

// AddEdges records the edges src[i]->dst[i] in order, as len(src) AddEdge
// calls would. A generator that fills its edge arrays in parallel hands
// them over in this one call; an empty Builder keeps the slices rather than
// copying them, so the caller must not modify them afterwards.
func (b *Builder) AddEdges(src, dst []int32) error {
	if len(src) != len(dst) {
		return fmt.Errorf("graph: %d sources for %d destinations", len(src), len(dst))
	}
	for i, u := range src {
		if v := dst[i]; u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		}
	}
	if len(b.src) == 0 {
		b.src, b.dst = src[:len(src):len(src)], dst[:len(dst):len(dst)]
		return nil
	}
	b.src = append(b.src, src...)
	b.dst = append(b.dst, dst...)
	return nil
}

// minChunkEdges is the fewest edges Build hands one chunk of a counting
// pass; below it a goroutine costs more than it saves.
const minChunkEdges = 1 << 15

// Build orders, deduplicates, and freezes the edges into a Graph with
// stable counting passes, O(n + m) and no comparison sort: pass 1 buckets
// the sources by destination, pass 2 walks destinations in ascending order
// and scatters each one into its source's out-row, so every out-row comes
// out sorted. Self-loops (unless KeepSelfLoops) and duplicates are then
// dropped while the rows are compacted in place, and a third pass derives
// the reverse CSR. Each pass splits into up to one chunk per core
// (buildChunks, chunkSort), and any chunk count yields the same graph bit
// for bit. The Builder can be reused afterwards (its edge buffer is retained).
//
// The offsets are uint32, so Build refuses more than math.MaxUint32 edges,
// counted as recorded: duplicates and dropped loops included.
func (b *Builder) Build() (*Graph, error) {
	if err := checkEdges(uint64(len(b.src))); err != nil {
		return nil, err
	}
	return b.build(buildChunks(b.n, len(b.src))), nil
}

// buildChunks is the chunk count of a counting pass over m edges and n
// buckets: one per core, but none under minChunkEdges edges, and no more
// than the average degree, so the chunks' counters (n each) add up to no
// more than the edges.
func buildChunks(n, m int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/minChunkEdges, m/max(n, 1)))
}

// build is Build with the chunk count fixed.
func (b *Builder) build(chunks int) *Graph {
	n, m := b.n, len(b.src)
	keep := b.keepLoops
	cs := newChunkSort(n, chunks)

	// Pass 1: tu[dstOff[v]:dstOff[v+1]] are the sources of the edges
	// entering v, in insertion order. Chunk c holds a contiguous run of
	// the edges.
	dstOff := make([]uint32, n+1)
	tu := make([]int32, m)
	cs.sort(m, dstOff, func(cnt []uint32, lo, hi int) {
		for _, v := range b.dst[lo:hi] {
			cnt[v]++
		}
	}, func(cur []uint32, lo, hi int) {
		// Locals, not captured variables: a store through a captured
		// slice would make the compiler reload its header every edge.
		src, dst, tu := b.src[lo:hi], b.dst[lo:hi], tu
		for i, v := range dst {
			tu[cur[v]] = src[i]
			cur[v]++
		}
	})

	// Pass 2: destinations in ascending order into the out-rows.
	g := &Graph{n: n}
	g.outOff = make([]uint32, n+1)
	outAdj := make([]int32, m)
	cs.transpose(dstOff, tu, g.outOff, outAdj)

	// Compact each sorted row in place, dropping loops and repeats.
	var w, start uint32
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

	// Pass 3: the reverse CSR; dstOff and tu are free again.
	g.inOff, g.inAdj = dstOff, tu[:g.m]
	cs.transpose(g.outOff, g.outAdj, g.inOff, g.inAdj)
	return g
}

// chunkSort runs stable counting sorts over n buckets, split into
// chunks that run in parallel. Each chunk is a contiguous run of the input
// and counts its own keys; the bucket offsets are then a prefix over
// (bucket, chunk), so chunk c's share of bucket k starts after every
// earlier chunk's share of it, and each chunk scatters into slots no other
// chunk writes. Elements keep their input order within a bucket, whatever
// the chunk count, so one chunk is the plain serial counting sort and
// every count gives the same output.
type chunkSort struct {
	cnt [][]uint32 // per chunk: bucket counts, then that chunk's cursors
}

func newChunkSort(n, chunks int) *chunkSort {
	cs := &chunkSort{cnt: make([][]uint32, chunks)}
	for c := range cs.cnt {
		cs.cnt[c] = make([]uint32, n)
	}
	return cs
}

// sort splits m elements into the chunks' runs [lo, hi) (par.Chunks),
// runs count on every run to tally its keys into cnt, sets off (length
// n+1) to the bucket offsets, then runs scatter on every run, which must
// place each element at cur[key] and bump cur[key].
func (cs *chunkSort) sort(m int, off []uint32, count, scatter func(cnt []uint32, lo, hi int)) {
	chunks := len(cs.cnt)
	par.Chunks(m, chunks, func(c, lo, hi int) {
		clear(cs.cnt[c])
		count(cs.cnt[c], lo, hi)
	})
	var total uint32
	for k := range len(off) - 1 {
		off[k] = total
		for _, cnt := range cs.cnt {
			total, cnt[k] = total+cnt[k], total
		}
	}
	off[len(off)-1] = total
	par.Chunks(m, chunks, func(c, lo, hi int) { scatter(cs.cnt[c], lo, hi) })
}

// transpose writes the CSR (off, adj) turned around into (toOff, toAdj):
// entry v of row r becomes entry r of row v. Rows are read in ascending
// order, so every transposed row comes out sorted. The chunks are row
// ranges holding about equal shares of the off[n] entries the offsets
// cover (adj may be longer when a decoder has not yet validated it): a
// chunk's run starts at the first row that begins inside it.
func (cs *chunkSort) transpose(off []uint32, adj []int32, toOff []uint32, toAdj []int32) {
	rows := func(lo, hi int) (int, int) {
		r0, _ := slices.BinarySearch(off, uint32(lo))
		r1, _ := slices.BinarySearch(off, uint32(hi))
		return r0, r1
	}
	cs.sort(int(off[len(off)-1]), toOff, func(cnt []uint32, lo, hi int) {
		r0, r1 := rows(lo, hi)
		for _, v := range adj[off[r0]:off[r1]] {
			cnt[v]++
		}
	}, func(cur []uint32, lo, hi int) {
		off, adj, toAdj := off, adj, toAdj
		r0, r1 := rows(lo, hi)
		for r := r0; r < r1; r++ {
			for _, v := range adj[off[r]:off[r+1]] {
				toAdj[cur[v]] = int32(r)
				cur[v]++
			}
		}
	})
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
