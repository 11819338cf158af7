package walk

// The batched level-synchronous walk engine.
//
// Instead of running each of the R walkers to completion (a dependent
// chain of cold CSR row loads per walker), the engine advances ALL live
// walkers one level at a time. Walker state is structure-of-arrays: the
// live frontier is a []uint64 of packed (node << 32 | walkerID) keys,
// and every walker draws from its own RNG substream
// xrand.NewStream(seed, walkerID). Per-walker substreams are what make
// the batch shape invisible: however the frontier is ordered, sorted,
// or sharded across workers, walker w consumes exactly the same draws,
// so output is bit-identical for a fixed seed at any worker count.
//
// Every backward level steps the same way, in two passes over the
// frontier (step): drawIn reads each walker's row descriptor and records
// the edge it draws, then a fetch pass loads those edges into the keys.
// Fused, each neighbour load waited on its descriptor; split, every
// iteration of either loop is one independent load and the memory
// system overlaps them. Children keep the parent frontier's order. What
// a level does with them is one of two modes, chosen by a crossover
// heuristic on the frontier size:
//
//   - sorted (large frontiers): the children are LSD-radix-sorted by
//     node, so the next level's descriptor loads issue in ascending
//     address order (co-located walkers read the same line back to
//     back), and the per-level distribution falls out of the sorted runs
//     as (node, count) pairs with no histogram scatter and no separate
//     extraction sort.
//
//   - scatter (small frontiers): sorting cannot amortize, so the
//     children are counted in a dense histogram, the Scratch's int32
//     one on the query paths, where extraction sorts only the touched
//     list. The row path counts in a byte per node instead, reads the
//     counts back in frontier order and keeps the nodes two or more
//     walkers share.
//
// Both modes count integer visits and convert each per-node total to
// float64 exactly once, so mode selection never changes emitted values.
// A walker that reaches a zero-in-degree node is counted at that final
// position and lingers one level: the next drawIn's d == 0 check drops
// it. Testing liveness eagerly per child was measured slower — deaths
// are the minority, and the deferred check piggybacks on a load drawIn
// already makes. The engine stops at the first childless level.

import (
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// batchSortMin is the crossover point of the level engine: frontiers
// with at least this many live walkers are radix-sorted by node per
// level, smaller ones use the scatter mode. The modes step alike and
// differ only in how a level's counts are extracted. On the benchmark's
// 100k-node rmat graph, whole T = 10 walks of R walkers from nodes with
// in-links, every level forced into one mode, cost (ns per walker step,
// sorted / scatter, median of three runs of 10⁴ walks on a 2-vCPU VM):
// R = 16: 104 / 72, R = 32: 61 / 78, R = 64: 52 / 81, R = 128: 46 / 47,
// R = 256: 38 / 46, R = 1000: 37 / 41. Sorting pays from a few dozen
// walkers up, so 128 sits in the flat stretch above the crossover
// rather than on it. It stays: at 32, the row path's R = 50 and 100
// frontiers would sort, and BenchmarkRowEstimator's rows would cost
// 4.6 µs instead of 2.7 and 8.6 instead of 5.9 (same VM); the MCSS
// spawn order, which follows the mode, would move single-source bits.
const batchSortMin = 128

// prepBatch sizes the frontier and seeds one RNG substream per walker:
// walker w draws from xrand.NewStream(seed, first+w). first offsets the
// walker-ID space, so every walker of an indexing row, and every walker
// of an adaptive wave, owns its own stream.
func (s *Scratch) prepBatch(R int, seed, first uint64) {
	if cap(s.keys) < R {
		s.keys = make([]uint64, R)
		s.keysB = make([]uint64, R)
		s.edges = make([]int64, R)
	}
	s.keys = s.keys[:R]
	s.keysB = s.keysB[:R]
	s.edges = s.edges[:R]
	if cap(s.srcs) < R {
		s.srcs = make([]xrand.Source, R)
	}
	s.srcs = s.srcs[:R]
	xrand.SeedStreams(s.srcs, seed, first)
}

// deadStart reports whether start has no in-links. Every walker from such
// a start dies on its first draw without consuming one, so a walk from it
// is its level-0 entry alone: the kernels return that without seeding R
// substreams (nearly half the nodes of the benchmark's RMAT graphs).
func deadStart(g *graph.Graph, start int) bool {
	_, d := g.InRow(int32(start))
	return d == 0
}

// step advances the m frontier walkers one level: drawIn, then a fetch
// pass that moves every walker it kept to the neighbour it drew. The
// children — walkers alive at the new level, dead ends included, since
// they occupy their final node at this level — stay in s.keys in the
// parent frontier's order. Returns the child count.
func (s *Scratch) step(g *graph.Graph, m int) int {
	m = s.drawIn(g, m)
	keys := s.keys[:m]
	for w, e := range s.edges[:m] {
		keys[w] = uint64(uint32(g.InAt(e)))<<32 | uint64(uint32(keys[w]))
	}
	return m
}

// sortFrontier sorts keys[:m] by the node half of the packed key (walker
// IDs ride along in the low half, in stable order). After an odd pass
// count the sorted data is in the swap buffer: the buffers trade places.
func (s *Scratch) sortFrontier(m int, maxNode uint32) {
	a := radixSort(&s.radix, s.keys[:m], s.keysB[:m], maxNode)
	if m > 0 && &a[0] != &s.keys[0] {
		s.keys, s.keysB = s.keysB, s.keys
	}
}

// emitRuns scans a sorted frontier and appends one (node, count) entry
// per run to the level-t output. Dead-end runs stay in the frontier for
// the next drawIn to drop, which profiling showed is cheaper than
// compacting the array or testing the dead bitset per run here.
// Termination still falls out — an all-dead frontier produces zero
// children on the next step.
func (s *Scratch) emitRuns(buf *DistBuf, t, m int) {
	idx, cnt := buf.idx[t], buf.cnt[t]
	keys := s.keys
	for i := 0; i < m; {
		v := int32(keys[i] >> 32)
		j := i
		for j < m && int32(keys[j]>>32) == v {
			j++
		}
		idx = append(idx, v)
		cnt = append(cnt, int32(j-i))
		i = j
	}
	buf.idx[t], buf.cnt[t] = idx, cnt
}

// drawIn is the first pass of every backward level (the second is
// step's fetch): it reads each of the m frontier walkers' row
// descriptor, drops the walkers standing on a dead end (counted there
// last level) and records in s.edges the edge base+Intn(d) each of the
// rest drew. Walker w draws exactly once per level from its own
// substream, so trajectories do not move. Returns the live count; the
// frontier is compacted in order, its node halves stale until the
// second pass rewrites them.
func (s *Scratch) drawIn(g *graph.Graph, m int) int {
	keys, edges := s.keys[:m], s.edges
	out := 0
	for _, k := range keys {
		base, d := g.InRow(int32(k >> 32))
		if d == 0 {
			continue
		}
		edges[out] = base + int64(s.srcs[uint32(k)].Intn(int(d)))
		keys[out] = k
		out++
	}
	return out
}

// countFrontier counts the nodes of keys in the dense histogram
// (touched is appended without a dedup branch; duplicates collapse at
// extraction).
func (s *Scratch) countFrontier(keys []uint64) {
	for _, k := range keys {
		next := int32(k >> 32)
		s.touched = append(s.touched, next)
		s.cnt[next]++
	}
}

// emitCounts extracts the level-t (node, count) entries accumulated by
// countFrontier: sort the touched list, skip duplicate occurrences (their
// slot is already zeroed), clear as it goes.
func (s *Scratch) emitCounts(buf *DistBuf, t int) {
	s.sortTouched()
	idx, cnt := buf.idx[t], buf.cnt[t]
	for _, k := range s.touched {
		if c := s.cnt[k]; c != 0 {
			idx = append(idx, k)
			cnt = append(cnt, c)
			s.cnt[k] = 0
		}
	}
	s.touched = s.touched[:0]
	buf.idx[t], buf.cnt[t] = idx, cnt
}

// distCounts is the count-domain core of DistributionsInto: it runs R
// walkers from start for T levels and fills buf.idx/buf.cnt with
// per-level integer visit counts, which the caller divides by R exactly
// once (DistBuf.scale).
func (s *Scratch) distCounts(buf *DistBuf, g *graph.Graph, start, T, R int, seed uint64) {
	s.grow(g.NumNodes())
	buf.prep(T)
	buf.idx[0] = append(buf.idx[0], int32(start))
	buf.cnt[0] = append(buf.cnt[0], int32(R))
	if deadStart(g, start) {
		return
	}
	s.prepBatch(R, seed, 0)
	for w := range s.keys {
		s.keys[w] = uint64(start)<<32 | uint64(w)
	}
	// m counts frontier entries; dead walkers linger one level (the next
	// drawIn drops them), so the loop ends at the first childless step
	// rather than on a per-walker liveness count — cheaper, and the
	// emitted counts are identical either way.
	m := R
	maxNode := uint32(g.NumNodes() - 1)
	for t := 1; t <= T && m > 0; t++ {
		sorted := m >= batchSortMin
		m = s.step(g, m)
		if sorted {
			s.sortFrontier(m, maxNode)
			s.emitRuns(buf, t, m)
		} else {
			s.countFrontier(s.keys[:m])
			s.emitCounts(buf, t)
		}
	}
}

// DistributionsInto runs R backward walkers from start for T steps over
// the graph g and fills buf with the empirical distributions
// p̂_t ≈ P^t e_start for t = 0..T; each sums to (walkers still alive at
// t)/R ≤ 1. The returned slice aliases buf. Walker w draws from
// xrand.NewStream(seed, w); the warm path performs zero allocations.
func (s *Scratch) DistributionsInto(buf *DistBuf, g *graph.Graph, start, T, R int, seed uint64) []sparse.Vector {
	if R <= 0 || T < 0 {
		s.grow(g.NumNodes())
		return s.degenerateInto(buf, start)
	}
	s.distCounts(buf, g, start, T, R, seed)
	return buf.scale(T, R)
}

// RowEstimator estimates indexing rows a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)
// with reusable buffers: the batch walk state advances the R walkers
// level-synchronously, and each level appends its visit counts as packed
// (node << 32 | level << cntBits | count) deposits, one per node two or
// more walkers share. Scatter-mode levels count through the estimator's
// own byte-wide histogram, cleared as it is read; sorted levels read the
// counts off their runs. Extraction (emit, rowsys.go) sorts the short
// deposit list into the coded row. It is what the offline stage's
// workers use (RowWriter): after the first rows, a row allocates nothing.
type RowEstimator struct {
	g    *graph.Graph
	walk *Scratch // frontier, substreams, sort counters
	r    int
	code *rowCode // deposit layout and value table of the current (T, c)

	// cnt is the scatter levels' per-node walker count, n bytes where the
	// Scratch's int32 histogram would take 4n: a quarter of the cache
	// lines for a row walk's scattered increments to miss on. A scatter
	// level has fewer than batchSortMin walkers, so a byte cannot wrap.
	cnt []uint8

	pairs []uint64 // packed per-(node, level) deposits

	row []uint64 // the coded row of the Into forms, decoded on the way out
}

// NewRowEstimator creates an estimator for graph g with R walkers.
func NewRowEstimator(g *graph.Graph, r int) *RowEstimator {
	return &RowEstimator{
		g:    g,
		walk: NewScratch(0),
		r:    r,
	}
}

// EstimateRowInto runs R walkers for T steps from node i and writes the
// Monte Carlo row (including the t = 0 unit diagonal term) into out,
// reset first and filled by appending: a reused vector allocates
// nothing. The row is the coded row decoded to floats, so it carries the
// bits a RowSystem's solve multiplies. Walker w of row i draws from
// xrand.NewStream(seed, i·R+w) — a globally unique substream, so the
// estimated system does not depend on how rows are sharded across
// workers.
func (re *RowEstimator) EstimateRowInto(i, T int, c float64, seed uint64, out *sparse.Vector) {
	if re.code == nil || re.code.T != T || re.code.c != c {
		re.code = newRowCode(re.g.NumNodes(), T, re.r, c)
	}
	re.walkRow(i, seed)
	re.row, _, _ = emit(re, i, re.row[:0])
	decode(re.row, re.code.lowBits, re.code.tab, out)
}

// walkRow runs the R walkers of row i for the layout's T levels and
// leaves their deposits, the t = 0 one included, in re.pairs: at most
// one per (node, level), and at levels ≥ 1 only where two or more
// walkers stand, since a lone walker's deposit is worth 0.
func (re *RowEstimator) walkRow(i int, seed uint64) {
	s, R, T := re.walk, re.r, re.code.T
	if n := re.g.NumNodes(); len(re.cnt) < n {
		re.cnt = make([]uint8, n)
	}
	re.pairs = append(re.pairs[:0], uint64(i)<<32|uint64(R)) // t = 0
	if deadStart(re.g, i) {
		return
	}
	s.prepBatch(R, seed, uint64(i)*uint64(R))
	for w := range s.keys {
		s.keys[w] = uint64(i)<<32 | uint64(w)
	}
	m := R
	maxNode := uint32(re.g.NumNodes() - 1)
	for t := 1; t <= T && m > 0; t++ {
		lvl := uint64(t) << re.code.cntBits
		sorted := m >= batchSortMin
		m = s.step(re.g, m)
		if sorted {
			s.sortFrontier(m, maxNode)
			re.appendRunPairs(lvl, m)
		} else {
			re.appendCountPairs(lvl, m)
		}
	}
}

// appendRunPairs packs one deposit per sorted run of two or more
// walkers. lvl is the level already shifted into place.
func (re *RowEstimator) appendRunPairs(lvl uint64, m int) {
	keys := re.walk.keys
	for i := 0; i < m; {
		v := keys[i] >> 32
		j := i + 1
		for j < m && keys[j]>>32 == v {
			j++
		}
		if j-i >= 2 {
			re.pairs = append(re.pairs, v<<32|lvl|uint64(j-i))
		}
		i = j
	}
}

// A scatter level's m < batchSortMin walkers must fit re.cnt's bytes.
const _ uint8 = batchSortMin - 1

// appendCountPairs is the scatter-mode level's extraction: it counts the
// m frontier walkers per node in the dense histogram, then packs one
// deposit per node two or more of them stand on, clearing every counter
// it touched. The count stays a pass of its own: fused into step's fetch,
// each increment waited on the neighbour load before it.
func (re *RowEstimator) appendCountPairs(lvl uint64, m int) {
	keys, cnt := re.walk.keys[:m], re.cnt
	for _, k := range keys {
		cnt[k>>32]++
	}
	pairs := re.pairs
	for _, k := range keys {
		v := k >> 32
		if c := cnt[v]; c >= 2 {
			pairs = append(pairs, v<<32|lvl|uint64(c))
		}
		cnt[v] = 0
	}
	re.pairs = pairs
}

// SingleSourceWalkInto runs the paper's MCSS walk estimator with the
// batched engine and flushes the estimate into out. Phase one advances
// the R walkers level-synchronously; at level t every walker alive at t
// spawns a phase-two importance-weighted forward walk of t steps,
// seeded with weight c^t·diag[k_t]/R (the diag lookup amortizes over
// co-located walkers), and the phase-two batch itself runs
// level-synchronously with weights riding the sort. A walker's draws
// interleave exactly as in the per-walker formulation — backward step
// t, then its t forward steps, then backward step t+1 — but on its own
// substream xrand.NewStream(seed, walkerID), so the batch order never
// changes its trajectory. ctTable[t] must hold c^t for t = 0..T.
func (s *Scratch) SingleSourceWalkInto(g *graph.Graph, q, T, R int, ctTable, diag []float64, seed uint64, out *sparse.Vector) {
	s.grow(g.NumNodes())
	// t = 0 term: c^0 · x_q deposited at q itself. From a dead start it is
	// the whole estimate: no walker reaches level 1 to spawn.
	s.Add(int32(q), diag[q])
	if deadStart(g, q) {
		s.FlushInto(out)
		return
	}
	s.prepBatch(R, seed, 0)
	for w := range s.keys {
		s.keys[w] = uint64(q)<<32 | uint64(w)
	}
	if cap(s.fkeys) < R {
		s.fkeys = make([]uint64, R)
		s.fwts = make([]float64, R)
	}
	invR := 1.0 / float64(R)
	for t, m := 1, R; t <= T && m > 0; t++ {
		var fm int
		m, fm = s.spawnLevel(g, m, ctTable[t]*invR, diag)
		s.forwardDeposit(g, t, fm)
	}
	s.FlushInto(out)
}

// spawnLevel advances the m backward walkers one level and seeds a
// phase-two forward walker, weight w0·diag[node], at every walker's new
// position (none where that weight is zero). It returns the new frontier
// size and the number of forward walkers written to s.fkeys/s.fwts.
func (s *Scratch) spawnLevel(g *graph.Graph, m int, w0 float64, diag []float64) (int, int) {
	sorted := m >= batchSortMin
	m = s.step(g, m)
	if sorted {
		s.sortFrontier(m, uint32(g.NumNodes()-1))
	}
	// Spawn per run of co-located walkers, one diag load per run (a run
	// of a small, unsorted frontier is mostly one walker). Dead walkers
	// spawn too — a walker at its final node still seeds a forward walk —
	// and then stay in the frontier for the next drawIn to drop, as in
	// emitRuns.
	keys := s.keys
	fm := 0
	for i := 0; i < m; {
		v := int32(keys[i] >> 32)
		j := i
		for j < m && int32(keys[j]>>32) == v {
			j++
		}
		if d0 := w0 * diag[v]; d0 != 0 {
			for k := i; k < j; k++ {
				s.fkeys[fm] = keys[k]
				s.fwts[fm] = d0
				fm++
			}
		}
		i = j
	}
	return m, fm
}

// forwardWalk runs the fm phase-two walkers forward `steps` levels,
// structure-of-arrays and level-synchronous, each walker on its own
// substream, and returns how many survive (compacted to the front of
// s.fkeys/s.fwts). A level is three passes, each iteration of each one
// independent load: the out-row descriptor and the draw (the degree
// rides in the key's node half, which the drawn edge index replaces),
// the neighbour fetch, then the neighbour's in-degree and the weight.
// Fused, every neighbour fetch waited on its descriptor and every
// degree on its neighbour. The batch is deliberately NOT sorted by
// node: forward frontiers spread across high-out-degree rows where
// co-location is too thin to pay for moving a 16-byte (key, weight) pair
// per radix pass — measured, sorting here cost more than every row load
// it saved. The weight update float64(dOut)/float64(inDeg) is the same
// IEEE divide as ForwardWeightedView, so weights are bit-identical to
// the per-walker formulation walker by walker.
func (s *Scratch) forwardWalk(g *graph.Graph, steps, fm int) int {
	keys, wts, edges := s.fkeys, s.fwts, s.edges
	for sub := 0; sub < steps && fm > 0; sub++ {
		out := 0
		for i, k := range keys[:fm] {
			base, dOut := g.OutRow(int32(k >> 32))
			if dOut == 0 {
				continue
			}
			id := uint32(k)
			edges[out] = base + int64(s.srcs[id].Intn(int(dOut)))
			keys[out] = uint64(dOut)<<32 | uint64(id)
			wts[out] = wts[i]
			out++
		}
		fm = out
		for i, e := range edges[:fm] {
			edges[i] = int64(g.OutAt(e))
		}
		for i, e := range edges[:fm] {
			next := int32(e)
			k := keys[i]
			keys[i] = uint64(next)<<32 | uint64(uint32(k))
			wts[i] *= float64(int32(k>>32)) / float64(g.InDegree(int(next)))
		}
	}
	return fm
}

// forwardDeposit runs the fm phase-two walkers forward `steps` levels
// (forwardWalk) and deposits the surviving importance weights at their
// endpoints.
func (s *Scratch) forwardDeposit(g *graph.Graph, steps, fm int) {
	fm = s.forwardWalk(g, steps, fm)
	for i := 0; i < fm; i++ {
		if w := s.fwts[i]; w != 0 {
			s.Add(int32(s.fkeys[i]>>32), w)
		}
	}
}

// ForwardWeightedView performs the importance-weighted forward walk of
// the MCSS walk estimator: starting at node k with weight w,
// take `steps` transitions to a uniform random out-neighbor, multiplying
// the weight by |Out(cur)| / |In(next)| at each step. It returns the
// final node and weight, or (-1, 0) if the walk dies at a node with no
// out-links. The expectation of the deposited weight at node j equals
// w · Pr[t-step backward walk from j ends at k]. It is the per-walker
// reference of the batched forwardWalk. The current node's out-row
// offset pair (needed for the neighbor fetch anyway) yields its degree
// for free, and the destination's in-degree comes from its in-row offset
// pair. float64(d) conversion is exact, so the quotient is the exact
// IEEE divide. (Reciprocal in-degrees would save the divide, but
// multiplying by a rounded reciprocal is not bit-identical to dividing.)
func ForwardWeightedView(g *graph.Graph, k int32, w float64, steps int, src *xrand.Source) (int32, float64) {
	cur := k
	for s := 0; s < steps; s++ {
		row, dOut := g.OutRow(cur)
		if dOut == 0 {
			return -1, 0
		}
		next := g.OutAt(row + int64(src.Intn(int(dOut))))
		w *= float64(dOut) / float64(g.InDegree(int(next)))
		cur = next
	}
	return cur, w
}
