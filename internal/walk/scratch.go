package walk

import (
	"slices"

	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

// Scratch is the reusable per-worker workspace of the Monte Carlo query
// kernels: a dense float64 histogram plus touched list for weighted
// deposits (MCSS endpoint weights), a dense int32 count histogram for
// unweighted visit counts (distributions and indexing rows), and the
// structure-of-arrays walker state of the batched level-synchronous walk
// engine (see batch.go). Once warm, every kernel built on a Scratch runs
// with zero allocations per query.
//
// Determinism: the distribution and row kernels accumulate integer visit
// counts and convert each per-node total to float64 exactly once, so
// their output is independent of walker batch order, frontier sorting,
// and worker sharding. The weighted MCSS deposits are float64 sums in a
// canonical engine-defined order, deterministic for a fixed seed.
//
// A Scratch is not safe for concurrent use; give each worker its own
// (core.Querier pools them).
type Scratch struct {
	hist    []float64 // dense accumulation target; zero outside Add..Flush
	touched []int32   // indices with nonzero entries; may contain duplicates

	// cnt is the dense per-level visit-count histogram of the scatter
	// (small-frontier) walk mode; zero outside one level's count..emit.
	cnt []int32

	// Batched walk engine state: the live frontier as packed
	// (node << 32 | walker) keys plus a swap buffer for the radix sort,
	// and one RNG substream per walker.
	keys, keysB []uint64
	srcs        []xrand.Source
	// edges carries each walker's drawn adjacency index from the draw
	// pass of a level to its fetch pass (drawIn, forwardWalk).
	edges []int64

	// Forward (phase-two) walker state of the MCSS estimator: packed
	// keys plus importance weights.
	fkeys []uint64
	fwts  []float64

	// sortTouched's swap buffer, and the counters of every radix sort.
	tmp   []int32
	radix radixCounts
}

// NewScratch returns a scratch able to accumulate over n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{hist: make([]float64, n)}
}

// grow ensures the dense histograms cover n nodes.
func (s *Scratch) grow(n int) {
	if len(s.hist) < n {
		s.hist = make([]float64, n)
	}
	if len(s.cnt) < n {
		s.cnt = make([]int32, n)
	}
}

// Add deposits w at index k. Deposits must be positive (the histogram
// uses hist[k] == 0 as the "untouched" marker, which positive sums can
// never re-enter); every walk estimator in this package deposits
// probability mass or positive importance weights, so the precondition
// holds by construction.
func (s *Scratch) Add(k int32, w float64) {
	if s.hist[k] == 0 {
		s.touched = append(s.touched, k)
	}
	s.hist[k] += w
}

// sortTouched sorts the touched list ascending. Touched lists on the
// query path run to R' ≈ 10⁴ dense small ints, where the shared radix
// sort beats comparison sorting by ~3×; lists too short to pay for its
// histograms go to the stdlib sort. Every touched index addresses hist,
// so its length bounds the keys. After an odd pass count the swap buffer
// holds the sorted data and becomes the touched list.
func (s *Scratch) sortTouched() {
	a := s.touched
	const radixMin = 64
	if len(a) < radixMin {
		slices.Sort(a)
		return
	}
	if cap(s.tmp) < len(a) {
		s.tmp = make([]int32, cap(a))
	}
	b := s.tmp[:len(a)]
	if &radixSort(&s.radix, a, b, uint32(len(s.hist)-1))[0] != &a[0] {
		s.touched, s.tmp = b, a
	}
}

// FlushInto sorts the touched indices, appends the accumulated (index,
// value) entries to v (which is reset first, keeping its capacity), and
// clears the scratch for reuse. Duplicate touched entries (the batched
// kernels append without a dedup branch) collapse here: the first
// occurrence reads and zeroes the slot, later ones see zero and are
// skipped — which also drops explicit Add(k, 0) deposits never followed
// by a positive one, matching sparse.Accumulator.ToVector.
func (s *Scratch) FlushInto(v *sparse.Vector) {
	s.sortTouched()
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
	for _, k := range s.touched {
		if x := s.hist[k]; x != 0 {
			v.Idx = append(v.Idx, k)
			v.Val = append(v.Val, x)
		}
		s.hist[k] = 0
	}
	s.touched = s.touched[:0]
}

// DistBuf owns the per-step output buffers of DistributionsInto. The
// returned vectors alias its storage and stay valid until the next
// DistributionsInto call with the same buffer. The cnt buffers hold the
// raw integer visit counts the engine emits before the single
// count→float conversion; the sharded driver merges those directly so
// its sums stay integer (and therefore worker-count independent).
type DistBuf struct {
	idx  [][]int32
	cnt  [][]int32
	val  [][]float64
	vecs []sparse.Vector
}

// prep resets the buffer for T+1 step vectors, keeping capacity.
func (b *DistBuf) prep(T int) {
	for len(b.idx) < T+1 {
		b.idx = append(b.idx, nil)
		b.cnt = append(b.cnt, nil)
		b.val = append(b.val, nil)
	}
	for t := 0; t <= T; t++ {
		b.idx[t] = b.idx[t][:0]
		b.cnt[t] = b.cnt[t][:0]
	}
	if cap(b.vecs) < T+1 {
		b.vecs = make([]sparse.Vector, T+1)
	}
	b.vecs = b.vecs[:T+1]
}

// scale converts the integer step counts into empirical distributions:
// val = count/R, one float64 conversion and rounding per entry, so the
// result depends only on the per-node totals — not on the order walkers
// were counted in.
func (b *DistBuf) scale(T, R int) []sparse.Vector {
	invR := 1.0 / float64(R)
	for t := 0; t <= T; t++ {
		idx, cnt := b.idx[t], b.cnt[t]
		val := b.val[t][:0]
		for i := range idx {
			val = append(val, float64(cnt[i])*invR)
		}
		b.val[t] = val
		b.vecs[t] = sparse.Vector{Idx: idx, Val: val}
	}
	return b.vecs
}

// degenerateInto emits the single unit vector of a degenerate request
// (R <= 0 or T < 0).
func (s *Scratch) degenerateInto(buf *DistBuf, start int) []sparse.Vector {
	buf.prep(0) // T may be negative; the degenerate result is one unit vector
	buf.idx[0] = append(buf.idx[0][:0], int32(start))
	buf.val[0] = append(buf.val[0][:0], 1)
	buf.vecs = buf.vecs[:1]
	buf.vecs[0] = sparse.Vector{Idx: buf.idx[0], Val: buf.val[0]}
	return buf.vecs
}
