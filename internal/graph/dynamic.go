package graph

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// edgeDelta is one applied mutation, recorded in arrival order. The log
// suffix past a compaction snapshot is replayed onto the fresh base when
// the snapshot is installed, so updates that race a background
// compaction are never lost.
type edgeDelta struct {
	u, v int32
	del  bool
}

// Dynamic is a mutable delta-overlay over an immutable CSR Graph. It
// accepts incremental edge insertions and deletions with O(degree) work
// per update, serves the full graph.View read interface over the merged
// state, and compacts the overlay into a fresh immutable *Graph in
// parallel when asked.
//
// Representation: nodes whose adjacency changed since the last
// compaction hold a materialized copy-on-write row (base row merged with
// the deltas, kept sorted); untouched nodes read straight from the base
// CSR. Every mutation replaces the affected rows with fresh slices, so a
// row slice handed to a reader is immutable and remains valid across
// later updates.
//
// Generations: Gen() is a monotonic counter bumped by every applied
// mutation. Two reads under the same generation observe the identical
// graph, which is what lets serving tiers key caches by generation.
// The dense walk kernels need a WalkView, which only an immutable Graph
// has: callers Compact and walk the snapshot.
//
// A Dynamic is safe for concurrent use. Reads take a shared lock;
// mutations take an exclusive lock; Compact builds the new CSR outside
// any lock and only blocks writers for the short rebase step. Each
// individual call is atomic, but a SEQUENCE of calls may straddle a
// mutation: pairing InDegree(v) with a later InNeighborAt(v, i) can
// index a row that shrank in between. Readers that need a consistent
// (degree, neighbor) view of a row must take one InNeighbors /
// OutNeighbors snapshot and work on that slice — rows are copy-on-write,
// so a returned slice is immutable forever (walk.StepIn does exactly
// this).
type Dynamic struct {
	mu   sync.RWMutex
	base *Graph
	out  map[int32][]int32 // COW merged out-rows of dirty nodes, sorted
	in   map[int32][]int32 // COW merged in-rows of dirty nodes, sorted
	n    int               // node count (monotone: grows with inserted ids)
	m    int               // live edge count
	gen  uint64            // bumped on every applied mutation

	log      []edgeDelta // deltas since base, in application order
	logStart uint64      // absolute index of log[0] (log is truncated by rebase)
	baseGen  uint64      // generation the current base corresponds to

	// compactMu serializes compactions; one snapshot build at a time
	// keeps the rebase bookkeeping trivial and matches how a serving
	// tier drives it (a single background compactor).
	compactMu sync.Mutex
}

// emptyGraph is the zero-node base used when NewDynamic is given nil.
func emptyGraph() *Graph {
	return &Graph{outOff: make([]int64, 1), inOff: make([]int64, 1)}
}

// NewDynamic wraps base (nil means an empty graph) in a mutable overlay.
// The base is shared, not copied; it must not be mutated elsewhere
// (Graph is immutable by construction, so this only matters for callers
// reaching into internals).
func NewDynamic(base *Graph) *Dynamic {
	if base == nil {
		base = emptyGraph()
	}
	return &Dynamic{
		base: base,
		out:  make(map[int32][]int32),
		in:   make(map[int32][]int32),
		n:    base.NumNodes(),
		m:    base.NumEdges(),
	}
}

// NewDynamicAt wraps base like NewDynamic but resumes the generation
// counter at gen instead of zero — the restart path of snapshot
// persistence. A daemon reloading a persisted snapshot must continue the
// generation sequence it saved: generations identify graph content to
// serving caches and the fleet router, so restarting at zero would reuse
// already-spent generation numbers for different graphs.
func NewDynamicAt(base *Graph, gen uint64) *Dynamic {
	d := NewDynamic(base)
	d.gen = gen
	d.baseGen = gen
	return d
}

// outRowLocked returns u's current merged out-row (caller holds mu).
func (d *Dynamic) outRowLocked(u int32) []int32 {
	if row, ok := d.out[u]; ok {
		return row
	}
	if int(u) < d.base.n {
		return d.base.OutNeighbors(int(u))
	}
	return nil
}

// inRowLocked returns v's current merged in-row (caller holds mu).
func (d *Dynamic) inRowLocked(v int32) []int32 {
	if row, ok := d.in[v]; ok {
		return row
	}
	if int(v) < d.base.n {
		return d.base.InNeighbors(int(v))
	}
	return nil
}

// NumNodes returns the current node count (grows as edges name new ids).
func (d *Dynamic) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// NumEdges returns the current live edge count.
func (d *Dynamic) NumEdges() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.m
}

// OutDegree returns |Out(u)| over the merged state.
func (d *Dynamic) OutDegree(u int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.outRowLocked(int32(u)))
}

// InDegree returns |In(v)| over the merged state.
func (d *Dynamic) InDegree(v int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.inRowLocked(int32(v)))
}

// OutNeighborAt returns the i-th out-neighbor of u (0 <= i < OutDegree).
func (d *Dynamic) OutNeighborAt(u, i int) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.outRowLocked(int32(u))[i]
}

// InNeighborAt returns the i-th in-neighbor of v (0 <= i < InDegree).
func (d *Dynamic) InNeighborAt(v, i int) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inRowLocked(int32(v))[i]
}

// OutNeighbors returns u's merged out-row, sorted ascending. The slice
// is an immutable snapshot: later updates replace rows rather than
// editing them, so it stays valid (and stale) after mutations.
func (d *Dynamic) OutNeighbors(u int) []int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.outRowLocked(int32(u))
}

// InNeighbors returns v's merged in-row, sorted ascending (same snapshot
// semantics as OutNeighbors).
func (d *Dynamic) InNeighbors(v int) []int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inRowLocked(int32(v))
}

// HasEdge reports whether u->v exists in the merged state.
func (d *Dynamic) HasEdge(u, v int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		return false
	}
	row := d.outRowLocked(int32(u))
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// Gen returns the mutation generation: a monotonic counter identifying
// the current graph content. Serving caches key entries by it.
func (d *Dynamic) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// BaseGen returns the generation the current compacted base corresponds
// to (Gen() minus the pending overlay edits).
func (d *Dynamic) BaseGen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.baseGen
}

// Pending returns the number of applied updates not yet compacted.
func (d *Dynamic) Pending() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.log)
}

// Dirty reports whether any updates are pending since the last
// compaction (or construction).
func (d *Dynamic) Dirty() bool { return d.Pending() > 0 }

// Base returns the current compacted base snapshot. Pending overlay
// edits are NOT visible through it; see Compact for a full snapshot.
func (d *Dynamic) Base() *Graph {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base
}

// CheckEdge reports whether (u, v) is a valid edge for a Dynamic
// mutation: non-negative ids inside the int32 range, no self-loop
// (SimRank runs on simple digraphs, matching Builder's policy). It is
// exactly the validation InsertEdge/DeleteEdge perform, exported so
// batch appliers (the serving tier's POST /edges) can pre-validate a
// whole request and reject it atomically instead of mutating a prefix
// and then failing.
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
// already exists, and an error for invalid edges (negative ids, ids
// beyond int32, self-loops — matching Builder's simple-digraph policy).
func (d *Dynamic) InsertEdge(u, v int) (bool, error) {
	if err := CheckEdge(u, v); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.applyLocked(int32(u), int32(v), false) {
		return false, nil
	}
	d.gen++
	d.log = append(d.log, edgeDelta{u: int32(u), v: int32(v)})
	return true, nil
}

// DeleteEdge removes the directed edge u->v. It returns false when the
// edge does not exist (the node count never shrinks).
func (d *Dynamic) DeleteEdge(u, v int) (bool, error) {
	if err := CheckEdge(u, v); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.applyLocked(int32(u), int32(v), true) {
		return false, nil
	}
	d.gen++
	d.log = append(d.log, edgeDelta{u: int32(u), v: int32(v), del: true})
	return true, nil
}

// applyLocked merges one delta into the overlay rows (caller holds mu
// exclusively and has validated the edge). Returns whether the state
// changed.
func (d *Dynamic) applyLocked(u, v int32, del bool) bool {
	if del {
		if int(u) >= d.n || int(v) >= d.n {
			return false
		}
		outRow, ok := removeSorted(d.outRowLocked(u), v)
		if !ok {
			return false
		}
		inRow, _ := removeSorted(d.inRowLocked(v), u)
		d.out[u] = outRow
		d.in[v] = inRow
		d.m--
		return true
	}
	outRow, ok := insertSorted(d.outRowLocked(u), v)
	if !ok {
		return false
	}
	inRow, _ := insertSorted(d.inRowLocked(v), u)
	d.out[u] = outRow
	d.in[v] = inRow
	d.m++
	if int(u) >= d.n {
		d.n = int(u) + 1
	}
	if int(v) >= d.n {
		d.n = int(v) + 1
	}
	return true
}

// insertSorted returns a fresh sorted row with x inserted, or (row,
// false) when x is already present. Copy-on-write: the input row is
// never modified.
func insertSorted(row []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
	if i < len(row) && row[i] == x {
		return row, false
	}
	next := make([]int32, len(row)+1)
	copy(next, row[:i])
	next[i] = x
	copy(next[i+1:], row[i:])
	return next, true
}

// removeSorted returns a fresh sorted row with x removed, or (row,
// false) when x is absent. Copy-on-write: the input row is never
// modified.
func removeSorted(row []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
	if i >= len(row) || row[i] != x {
		return row, false
	}
	next := make([]int32, len(row)-1)
	copy(next, row[:i])
	copy(next[i:], row[i+1:])
	return next, true
}

// Compact merges the overlay into a fresh immutable CSR *Graph in
// parallel, installs it as the new base, and returns it together with
// the generation it corresponds to. Updates that arrive while the CSR is
// being built are preserved: the snapshot captures a consistent
// (base, overlay) prefix up front, the build runs without holding the
// graph lock, and the delta suffix applied during the build is replayed
// onto the fresh base during the short exclusive rebase step.
//
// On a clean Dynamic, Compact is cheap: it returns the current base
// without rebuilding.
func (d *Dynamic) Compact() (*Graph, uint64, error) {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	// Snapshot a consistent state. The row maps are shallow-copied (rows
	// themselves are COW, so sharing slices with concurrent writers is
	// safe — writers replace, never edit).
	d.mu.RLock()
	if len(d.log) == 0 {
		base, gen := d.base, d.gen
		d.mu.RUnlock()
		return base, gen, nil
	}
	base := d.base
	n := d.n
	m := d.m
	gen := d.gen
	absLen := d.logStart + uint64(len(d.log))
	out := make(map[int32][]int32, len(d.out))
	for k, v := range d.out {
		out[k] = v
	}
	in := make(map[int32][]int32, len(d.in))
	for k, v := range d.in {
		in[k] = v
	}
	d.mu.RUnlock()

	ng, err := buildMerged(base, out, in, n, m)
	if err != nil {
		return nil, 0, err
	}

	// Rebase: install the snapshot and replay the delta suffix that
	// arrived during the build.
	d.mu.Lock()
	suffix := d.log[absLen-d.logStart:]
	d.base = ng
	d.baseGen = gen
	d.out = make(map[int32][]int32)
	d.in = make(map[int32][]int32)
	// Rewind the counters to the snapshot state: the replay below applies
	// the suffix deltas again (rows AND counts).
	d.n = n
	d.m = m
	newLog := make([]edgeDelta, len(suffix))
	copy(newLog, suffix)
	d.log = newLog
	d.logStart = absLen
	for _, e := range newLog {
		// Replaying the exact delta sequence from the state it was
		// recorded against always applies cleanly; applyLocked returning
		// false here would mean the log and rows disagree.
		d.applyLocked(e.u, e.v, e.del)
	}
	d.mu.Unlock()
	return ng, gen, nil
}

// buildMerged assembles a CSR graph of n nodes / m edges from a base
// plus materialized dirty rows, filling both directions' adjacency in
// parallel.
func buildMerged(base *Graph, out, in map[int32][]int32, n, m int) (*Graph, error) {
	rowOf := func(dirty map[int32][]int32, baseOff []int64, baseAdj []int32, u int) []int32 {
		if row, ok := dirty[int32(u)]; ok {
			return row
		}
		if u < base.n {
			return baseAdj[baseOff[u]:baseOff[u+1]]
		}
		return nil
	}

	g := &Graph{n: n, m: m}
	g.outOff = make([]int64, n+1)
	g.inOff = make([]int64, n+1)
	for u := 0; u < n; u++ {
		g.outOff[u+1] = g.outOff[u] + int64(len(rowOf(out, base.outOff, base.outAdj, u)))
		g.inOff[u+1] = g.inOff[u] + int64(len(rowOf(in, base.inOff, base.inAdj, u)))
	}
	if int(g.outOff[n]) != m || int(g.inOff[n]) != m {
		return nil, fmt.Errorf("graph: overlay rows sum to %d out / %d in edges, expected %d",
			g.outOff[n], g.inOff[n], m)
	}
	g.outAdj = make([]int32, m)
	g.inAdj = make([]int32, m)

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				copy(g.outAdj[g.outOff[u]:g.outOff[u+1]], rowOf(out, base.outOff, base.outAdj, u))
				copy(g.inAdj[g.inOff[u]:g.inOff[u+1]], rowOf(in, base.inOff, base.inAdj, u))
			}
		}(lo, hi)
	}
	wg.Wait()
	return g, nil
}
