package graph

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"cloudwalker/internal/par"
)

// Dynamic is a log of pending edge edits over an immutable CSR Graph.
// Nothing reads the pending state: InsertEdge and DeleteEdge record
// edits, and Compact merges them into a fresh immutable *Graph in
// parallel, which becomes the new base. Queries run on compacted
// snapshots only.
//
// The log holds the net state (present or absent) of each edited edge,
// and only while that state differs from the base: inserting a new edge
// and deleting it again leaves no entry, though both edits count in
// Pending and Gen.
//
// Generations: Gen() is a monotonic counter bumped by every applied
// edit. Compact returns its graph with the generation that graph is the
// state of, which is what lets serving tiers key caches by generation.
//
// A Dynamic is safe for concurrent use. Compact merges outside the lock
// and blocks writers only for the short rebase step, so edits that land
// during a compaction survive it.
type Dynamic struct {
	mu      sync.RWMutex
	base    *Graph
	edits   map[[2]int32]bool // net state of each edge that differs from base
	n       int               // node count (monotone: grows with inserted ids)
	m       int               // edge count of the current state
	gen     uint64            // bumped on every applied edit
	pending int               // edits applied since the last compaction

	// compactMu serializes compactions: one merge at a time keeps the
	// rebase trivial and matches how a serving tier drives it (a single
	// background compactor).
	compactMu sync.Mutex
}

// NewDynamic starts an edit log over base (nil means an empty graph) at
// generation gen. A daemon reloading a persisted snapshot passes the
// generation it saved: generations identify graph content to serving
// caches and the fleet router, so restarting at zero would reuse spent
// generation numbers for different graphs.
func NewDynamic(base *Graph, gen uint64) *Dynamic {
	if base == nil {
		base = &Graph{outOff: make([]uint32, 1), inOff: make([]uint32, 1)}
	}
	return &Dynamic{base: base, edits: make(map[[2]int32]bool), n: base.n, m: base.m, gen: gen}
}

// NumNodes returns the current node count (grows as edges name new ids).
func (d *Dynamic) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// Gen returns the edit generation: a monotonic counter identifying the
// current graph content.
func (d *Dynamic) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Pending returns the number of edits applied since the last compaction
// (or construction).
func (d *Dynamic) Pending() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pending
}

// Dirty reports whether any edits are pending.
func (d *Dynamic) Dirty() bool { return d.Pending() > 0 }

// CheckEdge reports whether (u, v) is a valid edge for a Dynamic
// edit: non-negative ids inside the int32 range, no self-loop (SimRank
// runs on simple digraphs, matching Builder's policy). It is exactly
// the validation InsertEdge/DeleteEdge perform, exported so batch
// appliers (the serving tier's POST /edges) can pre-validate a whole
// request and reject it atomically instead of applying a prefix and
// then failing.
func CheckEdge(u, v int) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node in edge (%d,%d)", u, v)
	}
	if int64(u) >= math.MaxInt32 || int64(v) >= math.MaxInt32 {
		return fmt.Errorf("graph: edge (%d,%d) exceeds int32 node-id range", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not supported (SimRank runs on simple digraphs)", u, v)
	}
	return nil
}

// InsertEdge adds the directed edge u->v, growing the node count to
// cover new ids. It returns false (and no generation bump) when the edge
// already exists, and an error for invalid edges (see CheckEdge) and for
// an edge past the most a graph holds (math.MaxUint32).
func (d *Dynamic) InsertEdge(u, v int) (bool, error) { return d.apply(u, v, true) }

// DeleteEdge removes the directed edge u->v. It returns false when the
// edge does not exist (the node count never shrinks).
func (d *Dynamic) DeleteEdge(u, v int) (bool, error) { return d.apply(u, v, false) }

// apply makes edge u->v present or absent and reports whether that
// changed the graph.
func (d *Dynamic) apply(u, v int, present bool) (bool, error) {
	if err := CheckEdge(u, v); err != nil {
		return false, err
	}
	k := [2]int32{int32(u), int32(v)}
	d.mu.Lock()
	defer d.mu.Unlock()
	inBase := d.base.HasEdge(u, v)
	cur, edited := d.edits[k]
	if !edited {
		cur = inBase
	}
	if cur == present {
		return false, nil
	}
	if present {
		if err := checkEdges(uint64(d.m) + 1); err != nil {
			return false, err
		}
	}
	if present == inBase {
		delete(d.edits, k)
	} else {
		d.edits[k] = present
	}
	d.gen++
	d.pending++
	if present {
		d.n = max(d.n, u+1, v+1)
		d.m++
	} else {
		d.m--
	}
	return true, nil
}

// edit is one log entry of a compaction snapshot: edge u->v is present
// (or absent) in the merged graph.
type edit struct {
	u, v    int32
	present bool
}

// Compact merges the pending edits into a fresh immutable CSR *Graph,
// installs it as the new base, and returns it together with the
// generation it corresponds to. The merge runs without holding the
// graph lock; edits applied meanwhile stay pending against the new base.
//
// With nothing pending, Compact returns the current base.
func (d *Dynamic) Compact() (*Graph, uint64) {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	d.mu.RLock()
	base, n, gen, pending := d.base, d.n, d.gen, d.pending
	if pending == 0 {
		d.mu.RUnlock()
		return base, gen
	}
	edits := make([]edit, 0, len(d.edits))
	for k, present := range d.edits {
		edits = append(edits, edit{k[0], k[1], present})
	}
	d.mu.RUnlock()

	ng := merge(base, edits, n)

	// Rebase the log onto ng. ng differs from the old base exactly at the
	// snapshot entries, so only those need a look: one still in the log
	// with the same state is in ng and goes; one that an edit during the
	// merge reverted to the old base now differs from ng and comes back.
	d.mu.Lock()
	defer d.mu.Unlock()
	d.base = ng
	d.pending -= pending
	for _, e := range edits {
		k := [2]int32{e.u, e.v}
		switch cur, ok := d.edits[k]; {
		case !ok:
			d.edits[k] = !e.present
		case cur == e.present:
			delete(d.edits, k)
		}
	}
	return ng, gen
}

// merge builds the CSR graph of n nodes that is base with edits
// applied. It reorders edits.
func merge(base *Graph, edits []edit, n int) *Graph {
	g := &Graph{n: n}
	g.outOff, g.outAdj = mergeRows(base.outOff, base.outAdj, edits, n)
	in := make([]edit, len(edits))
	for i, e := range edits {
		in[i] = edit{e.v, e.u, e.present}
	}
	g.inOff, g.inAdj = mergeRows(base.inOff, base.inAdj, in, n)
	g.m = len(g.outAdj)
	return g
}

// mergeRows rebuilds one CSR direction over n rows: row r is the base
// row r (empty past the base) with the edits whose u is r applied. It
// sorts edits by (u, v) once, merges each touched row with its run of
// edits, and copies untouched rows, in parallel over row ranges.
func mergeRows(off []uint32, adj []int32, edits []edit, n int) ([]uint32, []int32) {
	slices.SortFunc(edits, func(a, b edit) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	baseN := len(off) - 1
	row := func(r int) []int32 {
		if r < baseN {
			return adj[off[r]:off[r+1]]
		}
		return nil
	}
	newOff := make([]uint32, n+1)
	for r := 0; r < baseN; r++ {
		newOff[r+1] = off[r+1] - off[r]
	}
	for _, e := range edits {
		if e.present {
			newOff[e.u+1]++
		} else {
			newOff[e.u+1]--
		}
	}
	for r := 0; r < n; r++ {
		newOff[r+1] += newOff[r]
	}
	newAdj := make([]int32, newOff[n])

	par.Chunks(n, max(1, min(runtime.GOMAXPROCS(0), n)), func(_, lo, hi int) {
		i, _ := slices.BinarySearchFunc(edits, lo, func(e edit, r int) int { return cmp.Compare(int(e.u), r) })
		for r := lo; r < hi; r++ {
			j := i
			for j < len(edits) && int(edits[j].u) == r {
				j++
			}
			mergeRow(newAdj[newOff[r]:newOff[r+1]], row(r), edits[i:j])
			i = j
		}
	})
	return newOff, newAdj
}

// mergeRow writes the sorted row src with run applied into dst. run is
// sorted by v; an entry that is present is absent from src, and one that
// is absent is in src.
func mergeRow(dst, src []int32, run []edit) {
	k := 0
	for _, e := range run {
		for len(src) > 0 && src[0] < e.v {
			dst[k] = src[0]
			k++
			src = src[1:]
		}
		if e.present {
			dst[k] = e.v
			k++
		} else {
			src = src[1:]
		}
	}
	copy(dst[k:], src)
}
