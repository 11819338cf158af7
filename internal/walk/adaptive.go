// Adaptive sampling: the wave-mode entry points of the batched engine.
//
// The fixed-budget kernels (batch.go) always run R walkers. The adaptive
// layer launches the same walker population in geometric waves — walker
// IDs [0, n₁), [n₁, n₂), … following AdaptiveSchedule — and lets the
// caller stop as soon as an empirical-Bernstein confidence interval on
// its estimate is narrower than the requested ε. Three invariants make
// early stopping safe:
//
//   - Walker w of a wave draws from xrand.NewStream(seed, first+w), the
//     SAME substream it would own in the one-shot run, so the set of
//     trajectories depends only on the stop point, never on the wave
//     boundaries.
//   - Waves emit integer visit counts that WaveAccum merges by integer
//     addition, and the caller converts each per-node total to float64
//     exactly once. Running every wave to the cap therefore reproduces
//     the fixed-budget integers — and the fixed-budget floats — bit for
//     bit.
//   - The schedule is capped by the configured budget, so the worst case
//     costs exactly what the fixed-budget path costs.
package walk

import (
	"math"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

// adaptiveMinWave is the smallest first wave: below this the variance
// estimate is too noisy to act on and the checkpoint overhead exceeds
// the walkers it could save.
const adaptiveMinWave = 32

// AdaptiveSchedule returns the cumulative walker targets of the geometric
// wave schedule for a budget of R walkers: roughly R/8 doubling up to R,
// e.g. 126, 252, 504, 1000 for R = 1000. Every intermediate target is
// even so estimators that pair consecutive walkers never straddle a
// checkpoint; the final target is the budget itself (the cap). A budget
// small enough for one wave yields a single entry and no checkpoints.
func AdaptiveSchedule(budget int) []int {
	if budget <= 0 {
		return nil
	}
	r0 := (budget + 7) / 8
	if r0 < adaptiveMinWave {
		r0 = adaptiveMinWave
	}
	r0 = (r0 + 1) &^ 1 // round up to even
	if r0 >= budget {
		return []int{budget}
	}
	sched := make([]int, 0, 5)
	for c := r0; c < budget; c *= 2 {
		sched = append(sched, c)
	}
	return append(sched, budget)
}

// AdaptiveLogTerm distributes the caller's failure probability δ over the
// schedule's intermediate checkpoints (union bound) and returns the log
// term L = ln(3/δ′) the half-width formula consumes. checkpoints is
// len(AdaptiveSchedule(R)) - 1; with no checkpoints there is no stopping
// decision and the term is moot but still finite.
func AdaptiveLogTerm(delta float64, checkpoints int) float64 {
	if checkpoints < 1 {
		checkpoints = 1
	}
	return math.Log(3 * float64(checkpoints) / delta)
}

// AdaptiveHalfWidth is the empirical-Bernstein-style confidence half
// width for the mean of n iid samples in [0, b] with running sum and sum
// of squares: sqrt(2·V̂·L/n) + b·L/n, where V̂ is the biased empirical
// variance and L = AdaptiveLogTerm(δ, checkpoints). The variance term is
// the textbook Audibert–Munos–Szepesvári bound; the additive range term
// uses κ = 1 instead of the worst-case κ = 3 — calibrated, not proven,
// and the coverage test in internal/core pins that the resulting
// intervals still cover the exact value well beyond 1−δ on SimRank
// workloads (meeting indicators concentrate far below their range).
func AdaptiveHalfWidth(sum, sumsq float64, n int, L, b float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	fn := float64(n)
	mean := sum / fn
	v := sumsq/fn - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(2*v*L/fn) + b*L/fn
}

// DistCountsWave runs one wave of R walkers (IDs first..first+R-1 in the
// seed's stream space) from start for T levels, filling buf with the
// wave's per-level integer visit counts exactly like distCounts, and
// records every walker's position in trace: trace[(t-1)·R + w] is the
// node walker first+w occupies at level t, or -1 once it has died (the
// first T·R entries of trace are overwritten). The trace is what lets
// per-walker samples — meeting indicators between two coupled waves —
// be computed without ever touching the walk order, so the counts stay
// bit-compatible with the fixed-budget engine.
func (s *Scratch) DistCountsWave(buf *DistBuf, vw *graph.WalkView, start, T, R int, seed, first uint64, trace []int32) {
	trace = trace[:T*R]
	for i := range trace {
		trace[i] = -1
	}
	s.distCountsTraced(buf, vw, start, T, R, seed, first, trace)
}

// WaveAccum accumulates the integer visit counts of successive waves.
// Each level's (node, count) list is kept sorted by node; Merge sums a
// new wave in by a two-pointer integer merge, so after any number of
// waves the lists are exactly the integers the one-shot run over the
// same walker population would have emitted, in the same order.
type WaveAccum struct {
	idx [][]int32
	cnt [][]int32
	val [][]float64
	// tIdx/tCnt are the merge scratch, reused across levels and calls.
	tIdx []int32
	tCnt []int32
	vecs []sparse.Vector
}

// Reset clears the accumulator for T+1 levels, keeping capacity.
func (a *WaveAccum) Reset(T int) {
	for len(a.idx) < T+1 {
		a.idx = append(a.idx, nil)
		a.cnt = append(a.cnt, nil)
		a.val = append(a.val, nil)
	}
	for t := 0; t <= T; t++ {
		a.idx[t] = a.idx[t][:0]
		a.cnt[t] = a.cnt[t][:0]
	}
	if cap(a.vecs) < T+1 {
		a.vecs = make([]sparse.Vector, T+1)
	}
	a.vecs = a.vecs[:T+1]
}

// Merge folds one wave's per-level counts (as filled by DistCountsWave)
// into the accumulator.
func (a *WaveAccum) Merge(buf *DistBuf, T int) {
	for t := 0; t <= T; t++ {
		ai, ac := a.idx[t], a.cnt[t]
		bi, bc := buf.idx[t], buf.cnt[t]
		if len(bi) == 0 {
			continue
		}
		if len(ai) == 0 {
			a.idx[t] = append(ai, bi...)
			a.cnt[t] = append(ac, bc...)
			continue
		}
		mi, mc := a.tIdx[:0], a.tCnt[:0]
		i, j := 0, 0
		for i < len(ai) && j < len(bi) {
			switch {
			case ai[i] < bi[j]:
				mi = append(mi, ai[i])
				mc = append(mc, ac[i])
				i++
			case ai[i] > bi[j]:
				mi = append(mi, bi[j])
				mc = append(mc, bc[j])
				j++
			default:
				mi = append(mi, ai[i])
				mc = append(mc, ac[i]+bc[j])
				i++
				j++
			}
		}
		mi = append(mi, ai[i:]...)
		mc = append(mc, ac[i:]...)
		mi = append(mi, bi[j:]...)
		mc = append(mc, bc[j:]...)
		a.idx[t] = append(a.idx[t][:0], mi...)
		a.cnt[t] = append(a.cnt[t][:0], mc...)
		a.tIdx, a.tCnt = mi[:0], mc[:0]
	}
}

// Level returns the accumulated (node, count) list of level t.
func (a *WaveAccum) Level(t int) ([]int32, []int32) { return a.idx[t], a.cnt[t] }

// Scale converts the accumulated integer counts into empirical
// distributions over a total population of n walkers — val = count/n,
// one float64 conversion per entry, exactly DistBuf.scale over the
// merged integers. The returned vectors alias the accumulator.
func (a *WaveAccum) Scale(T, n int) []sparse.Vector {
	invN := 1.0 / float64(n)
	for t := 0; t <= T; t++ {
		idx, cnt := a.idx[t], a.cnt[t]
		val := a.val[t][:0]
		for i := range idx {
			val = append(val, float64(cnt[i])*invN)
		}
		a.val[t] = val
		a.vecs[t] = sparse.Vector{Idx: idx, Val: val}
	}
	return a.vecs[:T+1]
}
