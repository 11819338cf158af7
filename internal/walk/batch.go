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
// Each level runs in one of two modes, chosen by a crossover heuristic
// on the live-frontier size:
//
//   - sorted (large frontiers): after stepping, the frontier is
//     LSD-radix-sorted by current node. Co-located walkers then share
//     one row-descriptor load on the next level (the probe on the
//     benchmark rmat graph shows 45 walkers/node on level 1 and ~1.3
//     deep into the walk), the remaining row loads issue in ascending
//     address order, and the per-level distribution falls out of the
//     sorted runs as (node, count) pairs with no histogram scatter and
//     no separate extraction sort.
//
//   - scatter (small frontiers): sorting cannot amortize, so walkers
//     step in frontier order and counts accumulate in the dense int32
//     histogram; extraction sorts only the touched list.
//
// Both modes count integer visits and convert each per-node total to
// float64 exactly once, so mode selection never changes emitted values.
// A walker that reaches a zero-in-degree node is counted at that final
// position and lingers one level: the next step's d == 0 row-descriptor
// check drops it (a whole dead run costs one load in sorted mode).
// Testing liveness eagerly per child was measured slower — deaths are
// the minority, and the deferred check piggybacks on a load the stepping
// loop already makes. The engine stops at the first childless level.

import (
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// batchSortMin is the crossover point of the level engine: frontiers
// with at least this many live walkers are radix-sorted by node per
// level, smaller ones use the scatter mode. The value was tuned on the
// BENCH_walk.json workload (rmat 20k/200k): around 100–200 live walkers
// the two modes cost the same; row-estimation frontiers (R ≈ 50) must
// stay in scatter mode and pair-query frontiers (R' ≈ 500–1000 live)
// must sort.
const batchSortMin = 128

// prepBatch sizes the frontier and seeds one RNG substream per walker:
// walker w draws from xrand.NewStream(seed, first+w). first offsets the
// walker-ID space so sharded drivers can give every global walker its
// own stream.
func (s *Scratch) prepBatch(R int, seed, first uint64) {
	if cap(s.keys) < R {
		s.keys = make([]uint64, R)
		s.keysB = make([]uint64, R)
	}
	s.keys = s.keys[:R]
	s.keysB = s.keysB[:R]
	if cap(s.srcs) < R {
		s.srcs = make([]xrand.Source, R)
	}
	s.srcs = s.srcs[:R]
	xrand.SeedStreams(s.srcs, seed, first)
}

// stepSorted advances a frontier that is sorted by node one level.
// Runs of co-located walkers share one row-descriptor load and one
// degree bound; each walker still draws from its own substream. The
// children (walkers alive at the new level, dead ends included — they
// occupy their final node at this level) land unsorted in s.keys.
// Returns the child count.
func (s *Scratch) stepSorted(vw *graph.WalkView, m int) int {
	keys, dst := s.keys[:m], s.keysB
	out := 0
	for i := 0; i < m; {
		v := int32(keys[i] >> 32)
		base, d := vw.InRow(v)
		j := i
		if d == 0 {
			// Whole run is at a dead end: these walkers were counted at
			// their final node last level and are dropped here, one
			// descriptor load for the entire run.
			for j < m && int32(keys[j]>>32) == v {
				j++
			}
			i = j
			continue
		}
		nd := int(d)
		for ; j < m && int32(keys[j]>>32) == v; j++ {
			id := uint32(keys[j])
			next := vw.InAt(base + int64(s.srcs[id].Intn(nd)))
			dst[out] = uint64(next)<<32 | uint64(id)
			out++
		}
		i = j
	}
	s.keys, s.keysB = s.keysB, s.keys
	return out
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
// per run to the level-t output. Dead-end runs stay in the frontier:
// stepSorted skips a whole dead run with one descriptor load, which
// profiling showed is far cheaper than compacting the array or even
// testing the dead bitset per run here. Termination still falls out —
// an all-dead frontier produces zero children on the next step.
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

// stepScatter advances an unsorted frontier one level, counting every
// child in the dense histogram (touched is appended without a dedup
// branch; duplicates collapse at extraction). Dead children stay in the
// frontier for the next level's d == 0 check to drop uncounted — a
// deferred descriptor load per dying walker, which measured cheaper
// than a liveness test on every child. Returns the child count.
func (s *Scratch) stepScatter(vw *graph.WalkView, m int) int {
	keys := s.keys[:m]
	out := 0
	for i := 0; i < m; i++ {
		v := int32(keys[i] >> 32)
		base, d := vw.InRow(v)
		if d == 0 {
			continue // dead entry: counted at its final node last level
		}
		id := uint32(keys[i])
		next := vw.InAt(base + int64(s.srcs[id].Intn(int(d))))
		s.touched = append(s.touched, next)
		s.cnt[next]++
		keys[out] = uint64(next)<<32 | uint64(id)
		out++
	}
	return out
}

// emitCounts extracts the level-t (node, count) entries accumulated by
// stepScatter: sort the touched list, skip duplicate occurrences (their
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

// distCounts is the count-domain core of the distribution kernels: it
// runs R walkers (IDs first..first+R-1 in the seed's stream space) from
// start for T levels and fills buf.idx/buf.cnt with per-level integer
// visit counts. Callers divide by the total walker population exactly
// once (DistBuf.scale), so shards merge by integer addition.
func (s *Scratch) distCounts(buf *DistBuf, vw *graph.WalkView, start, T, R int, seed, first uint64) {
	s.distCountsTraced(buf, vw, start, T, R, seed, first, nil)
}

// distCountsTraced is distCounts with optional per-walker position
// tracing: when trace is non-nil (length T·R, pre-filled with -1 by the
// caller), trace[(t-1)·R + w] records the node walker w occupies at
// level t. After the step at level t the frontier holds exactly the
// walkers counted at that level — dead arrivals included, dropped
// uncounted by the next level's d == 0 check — so scattering the
// frontier keys is an exact position record in both stepping modes.
func (s *Scratch) distCountsTraced(buf *DistBuf, vw *graph.WalkView, start, T, R int, seed, first uint64, trace []int32) {
	s.grow(vw.NumNodes())
	buf.prep(T)
	buf.idx[0] = append(buf.idx[0], int32(start))
	buf.cnt[0] = append(buf.cnt[0], int32(R))
	s.prepBatch(R, seed, first)
	for w := range s.keys {
		s.keys[w] = uint64(start)<<32 | uint64(w)
	}
	// m counts frontier entries; in sorted mode dead walkers linger one
	// level (stepSorted drops a dead run with one descriptor load), so
	// the loop ends at the first childless step rather than on a
	// per-walker liveness count — cheaper, and the emitted counts are
	// identical either way.
	m := R
	maxNode := uint32(vw.NumNodes() - 1)
	for t := 1; t <= T && m > 0; t++ {
		if m >= batchSortMin {
			m = s.stepSorted(vw, m)
			s.sortFrontier(m, maxNode)
			s.emitRuns(buf, t, m)
		} else {
			m = s.stepScatter(vw, m)
			s.emitCounts(buf, t)
		}
		if trace != nil {
			row := trace[(t-1)*R : t*R]
			for _, k := range s.keys[:m] {
				row[uint32(k)] = int32(k >> 32)
			}
		}
	}
}

// DistributionsInto is the scratch-backed core of Distributions: it
// runs R backward walkers from start for T steps over the walk view and
// fills buf with the empirical distributions p̂_t for t = 0..T. The
// returned slice aliases buf. Walker w draws from
// xrand.NewStream(seed, w); the warm path performs zero allocations.
func (s *Scratch) DistributionsInto(buf *DistBuf, vw *graph.WalkView, start, T, R int, seed uint64) []sparse.Vector {
	if R <= 0 || T < 0 {
		s.grow(vw.NumNodes())
		return s.degenerateInto(buf, start)
	}
	s.distCounts(buf, vw, start, T, R, seed, 0)
	return buf.scale(T, R)
}

// DistributionsViewInto is DistributionsInto against any graph.View. It
// dispatches to the batched engine when the view can serve a WalkView
// (a *Graph, or a *Dynamic with no pending updates) and falls back to
// per-walker interface stepping otherwise. Both paths give walker w the
// same substream and count integer visits, so the output for a dirty
// overlay is bit-identical to compacting it first and walking the CSR.
func (s *Scratch) DistributionsViewInto(buf *DistBuf, g graph.View, start, T, R int, seed uint64) []sparse.Vector {
	if vw := graph.FastWalkView(g); vw != nil {
		return s.DistributionsInto(buf, vw, start, T, R, seed)
	}
	if R <= 0 || T < 0 {
		s.grow(g.NumNodes())
		return s.degenerateInto(buf, start)
	}
	buf.prep(T)
	buf.idx[0] = append(buf.idx[0], int32(start))
	buf.cnt[0] = append(buf.cnt[0], int32(R))
	s.prepBatch(R, seed, 0)
	// On a LIVE overlay the node count can grow mid-walk (a concurrent
	// insert naming a fresh id lands in a row we then step into), so the
	// count histogram cannot be sized from a NumNodes() read taken at
	// entry. Step in frontier order (each walker consumes its own
	// substream, so the stepping order of the dense engine is
	// immaterial), tracking the highest id actually visited and sizing
	// the histogram before each level's counting.
	s.grow(g.NumNodes())
	maxSeen := start
	keys := s.keys
	for w := range keys {
		keys[w] = uint64(start)<<32 | uint64(w)
	}
	for t := 1; t <= T; t++ {
		m := 0
		for _, k := range keys {
			cur := StepIn(g, int(k>>32), &s.srcs[uint32(k)])
			if cur < 0 {
				continue
			}
			if cur > maxSeen {
				maxSeen = cur
			}
			keys[m] = uint64(cur)<<32 | (k & 0xffffffff)
			m++
		}
		keys = keys[:m]
		s.grow(maxSeen + 1)
		for _, k := range keys {
			next := int32(k >> 32)
			s.touched = append(s.touched, next)
			s.cnt[next]++
		}
		s.emitCounts(buf, t)
		if m == 0 {
			break
		}
	}
	return buf.scale(T, R)
}

// RowEstimator estimates indexing rows a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)
// with reusable buffers: the batch walk state advances the R walkers
// level-synchronously while every level's visit counts append as packed
// (node << 32 | level << 16 | count) deposits. Extraction radix-sorts
// the deposit list by node once and combines levels in one scan — no
// dense accumulation array is touched at all, which profiling showed
// was a third of row-estimation time. It is what the offline stage's
// workers use: after the first row, a row allocates nothing.
type RowEstimator struct {
	vw   *graph.WalkView
	walk *Scratch // frontier, substreams, and per-level counts
	r    int

	pairs, pairsB []uint64  // packed per-(node, level) deposits + sort swap
	ct            []float64 // ct[t] = c^t, rebuilt when (T, c) changes
	ctC           float64

	// Dense fallback for R ≥ 2^16, where a visit count can overflow the
	// packed layout's 16 count bits: accumulate into a float histogram
	// instead (bit-identical — each (node, level) deposit is the same
	// ct·(count/R)² term, summed in the same level order).
	row *Scratch

	// Adaptive-mode state (EstimateRowAdaptiveInto): per-wave count
	// buffer, the cross-wave integer accumulator, and the per-walker
	// position trace the stopping statistic reads.
	wbuf  DistBuf
	wav   WaveAccum
	trace []int32
}

// NewRowEstimator creates an estimator for graph g with R walkers.
func NewRowEstimator(g *graph.Graph, r int) *RowEstimator {
	return &RowEstimator{
		vw:   g.WalkView(),
		walk: NewScratch(0),
		r:    r,
	}
}

// EstimateRowInto runs R walkers for T steps from node i and flushes
// the Monte Carlo row (including the t = 0 unit diagonal term) into out,
// reset first and filled by appending: a reused vector allocates nothing,
// and an empty one over spare capacity (a sparse.RowWriter slab) takes
// the row in place. Walker w of row i draws from xrand.NewStream(seed,
// i·R+w) — a globally unique substream, so the estimated system does not
// depend on how rows are sharded across workers.
func (re *RowEstimator) EstimateRowInto(i, T int, c float64, seed uint64, out *sparse.Vector) {
	s := re.prep(T, c)
	R := re.r
	s.prepBatch(R, seed, uint64(i)*uint64(R))
	for w := range s.keys {
		s.keys[w] = uint64(i)<<32 | uint64(w)
	}
	dense := R >= 1<<16
	if dense {
		if re.row == nil {
			re.row = NewScratch(re.vw.NumNodes())
		}
		re.row.grow(re.vw.NumNodes())
		re.row.Add(int32(i), 1) // t = 0
	} else {
		re.pairs = append(re.pairs[:0], uint64(i)<<32|uint64(R)) // t = 0
	}
	m := R
	maxNode := uint32(re.vw.NumNodes() - 1)
	invR := 1.0 / float64(R)
	t0 := 1
	if !dense && R < batchSortMin && T >= 1 {
		// Scatter-mode level one: every walker sits on row i, so the
		// draws aggregate through a tiny per-index count buffer — one
		// deposit per distinct in-neighbor instead of one per walker,
		// before the frontier has spread anywhere.
		m = re.rowStepLevel1(i)
		t0 = 2
	}
	for t := t0; t <= T && m > 0; t++ {
		if m >= batchSortMin {
			m = s.stepSorted(re.vw, m)
			s.sortFrontier(m, maxNode)
			if dense {
				s.foldRuns(re.row, re.ct[t], invR, m)
			} else {
				re.appendRunPairs(t, m)
			}
		} else if dense {
			m = s.stepScatter(re.vw, m)
			s.foldCounts(re.row, re.ct[t], invR)
		} else {
			m = re.rowStepScatter(t, m)
		}
	}
	if dense {
		re.row.FlushInto(out)
		return
	}
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	re.emitPairs(out)
}

// prep sizes the walk scratch for the graph and rebuilds the c^t table
// when (T, c) changed.
func (re *RowEstimator) prep(T int, c float64) *Scratch {
	re.walk.grow(re.vw.NumNodes())
	if len(re.ct) < T+1 || re.ctC != c {
		re.ct = append(re.ct[:0], 1)
		for t := 1; t <= T; t++ {
			re.ct = append(re.ct, re.ct[t-1]*c)
		}
		re.ctC = c
	}
	return re.walk
}

// appendRunPairs packs one deposit per sorted run, the pair-domain twin
// of foldRuns.
func (re *RowEstimator) appendRunPairs(t, m int) {
	keys := re.walk.keys
	lvl := uint64(t) << 16
	for i := 0; i < m; {
		v := keys[i] >> 32
		j := i
		for j < m && keys[j]>>32 == v {
			j++
		}
		re.pairs = append(re.pairs, v<<32|lvl|uint64(j-i))
		i = j
	}
}

// rowStepLevel1 runs the first scatter-mode level of a row walk, where
// the whole frontier occupies row i: one descriptor load serves every
// walker, and for rows up to 64 wide the drawn indices count into a
// stack buffer so the level deposits one pair per distinct in-neighbor
// (summing at emit covers duplicate edges). Each walker still draws
// once from its own substream, so the trajectory — and therefore every
// later level — is identical to the generic path.
func (re *RowEstimator) rowStepLevel1(i int) int {
	s := re.walk
	vw := re.vw
	base, d := vw.InRow(int32(i))
	if d == 0 {
		return 0
	}
	keys := s.keys
	const lvl = uint64(1) << 16
	if d > 64 {
		for w := range keys {
			next := vw.InAt(base + int64(s.srcs[w].Intn(int(d))))
			re.pairs = append(re.pairs, uint64(uint32(next))<<32|lvl|1)
			keys[w] = uint64(uint32(next))<<32 | uint64(uint32(w))
		}
		return len(keys)
	}
	var cbuf [64]int32
	for w := range keys {
		idx := s.srcs[w].Intn(int(d))
		cbuf[idx]++
		keys[w] = uint64(uint32(vw.InAt(base+int64(idx))))<<32 | uint64(uint32(w))
	}
	for idx := int64(0); idx < int64(d); idx++ {
		if c := cbuf[idx]; c != 0 {
			re.pairs = append(re.pairs, uint64(uint32(vw.InAt(base+idx)))<<32|lvl|uint64(uint32(c)))
		}
	}
	return len(keys)
}

// rowStepScatter is the row path's scatter-mode level: step each walker
// and append one count-1 deposit per child, skipping the count
// histogram entirely — the emit-time sort aggregates equal (node, level)
// deposits anyway, so counting eagerly was pure overhead at this
// frontier size. Dead children linger for the next level's d == 0 check,
// as in stepScatter.
func (re *RowEstimator) rowStepScatter(t, m int) int {
	s := re.walk
	vw := re.vw
	keys := s.keys[:m]
	lvl := uint64(t) << 16
	pairs := re.pairs
	out := 0
	for i := 0; i < m; i++ {
		v := int32(keys[i] >> 32)
		base, d := vw.InRow(v)
		if d == 0 {
			continue // dead entry: deposited at its final node last level
		}
		id := uint32(keys[i])
		next := vw.InAt(base + int64(s.srcs[id].Intn(int(d))))
		pairs = append(pairs, uint64(uint32(next))<<32|lvl|1)
		keys[out] = uint64(uint32(next))<<32 | uint64(id)
		out++
	}
	re.pairs = pairs
	return out
}

// emitPairs sorts the deposit list by node and appends the combined row
// to out. The radix sort is stable and deposits were appended in level
// order, so equal (node, level) deposits (count-1 entries from scatter
// levels, pre-aggregated runs from sorted levels) sit adjacent with
// their counts summing exactly, and each node's c^t·(count/R)² terms
// accumulate in level order — the same float64 sequence as the dense
// fallback, bit for bit.
func (re *RowEstimator) emitPairs(out *sparse.Vector) {
	if cap(re.pairsB) < len(re.pairs) {
		re.pairsB = make([]uint64, len(re.pairs))
	}
	a := radixSort(&re.walk.radix, re.pairs, re.pairsB[:len(re.pairs)], uint32(re.vw.NumNodes()-1))
	invR := 1.0 / float64(re.r)
	if cap(out.Idx) == 0 {
		out.Idx = make([]int32, 0, len(a))
		out.Val = make([]float64, 0, len(a))
	}
	prev := int32(-1)
	for i := 0; i < len(a); {
		p := a[i]
		hi := p >> 16 // (node, level)
		c := p & 0xffff
		j := i + 1
		for j < len(a) && a[j]>>16 == hi {
			c += a[j] & 0xffff
			j++
		}
		i = j
		node := int32(p >> 32)
		var val float64
		if lvl := hi & 0xffff; lvl == 0 {
			val = 1 // the exact t = 0 diagonal term
		} else {
			frac := float64(c) * invR
			val = re.ct[lvl] * frac * frac
		}
		if node == prev {
			out.Val[len(out.Val)-1] += val
		} else {
			out.Idx = append(out.Idx, node)
			out.Val = append(out.Val, val)
			prev = node
		}
	}
}

// foldRuns folds one level's sorted runs into the row scratch —
// row[v] += c^t (count/R)² per run — the dense (big-R) twin of
// appendRunPairs.
func (s *Scratch) foldRuns(row *Scratch, ct, invR float64, m int) {
	keys := s.keys
	for i := 0; i < m; {
		v := int32(keys[i] >> 32)
		j := i
		for j < m && int32(keys[j]>>32) == v {
			j++
		}
		frac := float64(j-i) * invR
		row.Add(v, ct*frac*frac)
		i = j
	}
}

// foldCounts folds one level's scatter-mode counts into the row scratch
// and clears them, the dense (big-R) twin of appendCountPairs. Each node
// gets exactly one deposit per level in level order, so the dense and
// packed row paths accumulate identical float64 sums.
func (s *Scratch) foldCounts(row *Scratch, ct, invR float64) {
	for _, k := range s.touched {
		if c := s.cnt[k]; c != 0 {
			frac := float64(c) * invR
			row.Add(k, ct*frac*frac)
			s.cnt[k] = 0
		}
	}
	s.touched = s.touched[:0]
}

// SingleSourceWalkInto runs the MCSS estimator (DESIGN.md §3.4) with the
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
func (s *Scratch) SingleSourceWalkInto(vw *graph.WalkView, q, T, R int, ctTable, diag []float64, seed uint64, out *sparse.Vector) {
	s.grow(vw.NumNodes())
	invR := 1.0 / float64(R)
	// t = 0 term: c^0 · x_q deposited at q itself.
	s.Add(int32(q), diag[q])
	s.prepBatch(R, seed, 0)
	for w := range s.keys {
		s.keys[w] = uint64(q)<<32 | uint64(w)
	}
	if cap(s.fkeys) < R {
		s.fkeys = make([]uint64, R)
		s.fwts = make([]float64, R)
	}
	m := R
	maxNode := uint32(vw.NumNodes() - 1)
	for t := 1; t <= T && m > 0; t++ {
		w0 := ctTable[t] * invR
		fm := 0
		if m >= batchSortMin {
			m = s.stepSorted(vw, m)
			s.sortFrontier(m, maxNode)
			// Spawn phase two per sorted run (one diag load per node).
			// Dead runs spawn too — a walker at its final node still
			// seeds a forward walk — and then stay in the frontier for
			// stepSorted to skip, as in emitRuns.
			keys := s.keys
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
		} else {
			keys := s.keys[:m]
			out := 0
			for i := 0; i < m; i++ {
				v := int32(keys[i] >> 32)
				base, d := vw.InRow(v)
				if d == 0 {
					continue // dead entry: spawned its last walk already
				}
				id := uint32(keys[i])
				next := vw.InAt(base + int64(s.srcs[id].Intn(int(d))))
				if d0 := w0 * diag[next]; d0 != 0 {
					s.fkeys[fm] = uint64(next)<<32 | uint64(id)
					s.fwts[fm] = d0
					fm++
				}
				keys[out] = uint64(next)<<32 | uint64(id)
				out++
			}
			m = out
		}
		s.forwardDeposit(vw, t, fm)
	}
	s.FlushInto(out)
}

// forwardDeposit runs the fm phase-two walkers forward `steps` levels,
// structure-of-arrays and level-synchronous, each walker on its own
// substream, and deposits the surviving importance weights at their
// endpoints. The batch is deliberately NOT sorted by node: forward
// frontiers spread across high-out-degree rows where co-location is too
// thin to pay for moving a 16-byte (key, weight) pair per radix pass —
// measured, sorting here cost more than every row load it saved. The
// weight update float64(dOut)/float64(inDeg) is the same IEEE divide as
// ForwardWeightedView, so deposits are bit-identical to the per-walker
// formulation walker by walker.
func (s *Scratch) forwardDeposit(vw *graph.WalkView, steps, fm int) {
	for sub := 0; sub < steps && fm > 0; sub++ {
		keys, wts := s.fkeys, s.fwts
		out := 0
		for i := 0; i < fm; i++ {
			v := int32(keys[i] >> 32)
			base, dOut := vw.OutRow(v)
			if dOut == 0 {
				continue
			}
			id := uint32(keys[i])
			next := vw.OutAt(base + int64(s.srcs[id].Intn(int(dOut))))
			keys[out] = uint64(next)<<32 | uint64(id)
			wts[out] = wts[i] * (float64(dOut) / float64(vw.InDeg(next)))
			out++
		}
		fm = out
	}
	for i := 0; i < fm; i++ {
		if w := s.fwts[i]; w != 0 {
			s.Add(int32(s.fkeys[i]>>32), w)
		}
	}
}

// StepInView is StepIn against a precomputed walk view: the offset base
// and degree come from one load pair. It returns -1 if v has no in-links
// (consuming no randomness, like StepIn).
func StepInView(vw *graph.WalkView, v int32, src *xrand.Source) int32 {
	row, d := vw.InRow(v)
	if d == 0 {
		return -1
	}
	return vw.InAt(row + int64(src.Intn(int(d))))
}

// ForwardWeightedView is ForwardWeighted against a precomputed walk view.
// The current node's out-row offset pair (needed for the neighbor fetch
// anyway) yields its degree for free, and the destination's in-degree
// comes from the view's dense int32 array — 4 bytes instead of a 16-byte
// offset pair, the one degree lookup a CSR graph cannot serve from an
// already-loaded line. float64(d) conversion is exact, so the quotient —
// and therefore every estimate built on it — is bit-identical to the CSR
// formulation. (The view's reciprocal in-degrees would save the divide
// too, but multiplying by a rounded reciprocal is not bit-identical to
// dividing — see the WalkView determinism contract.)
func ForwardWeightedView(vw *graph.WalkView, k int32, w float64, steps int, src *xrand.Source) (int32, float64) {
	cur := k
	for s := 0; s < steps; s++ {
		row, dOut := vw.OutRow(cur)
		if dOut == 0 {
			return -1, 0
		}
		next := vw.OutAt(row + int64(src.Intn(int(dOut))))
		w *= float64(dOut) / float64(vw.InDeg(next))
		cur = next
	}
	return cur, w
}
