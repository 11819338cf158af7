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
//   - Waves record walker positions only (TraceWave). At the stop point
//     CountTrace counts the kept prefix once, in integers, and converts
//     each per-node total to float64 exactly once. Running every wave to
//     the cap therefore reproduces the fixed-budget integers — and the
//     fixed-budget floats — bit for bit.
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

// TraceWave runs walkers first..first+R-1 (the same substreams
// xrand.NewStream(seed, first+w) the fixed-budget run gives them) from
// start for T levels and records only where they stand:
// trace[(t-1)·stride + first + w] is the node walker first+w occupies at
// level t, or -1 once it has died. With stride = the query's budget, one
// query's waves fill one level-major buffer of T·stride entries, and
// CountTrace turns any prefix of it into distributions. A wave builds no
// histogram and sorts nothing: after the step at level t the frontier
// holds exactly the walkers alive at t (dead arrivals included, dropped
// by the next level's draw), so scattering its keys is the whole record.
func (s *Scratch) TraceWave(g *graph.Graph, start, T, R int, seed uint64, first int, trace []int32, stride int) {
	m := 0
	if !deadStart(g, start) {
		s.prepBatch(R, seed, uint64(first))
		for w := range s.keys {
			s.keys[w] = uint64(start)<<32 | uint64(w)
		}
		m = R
	}
	for t := 1; t <= T; t++ {
		row := trace[(t-1)*stride+first:][:R]
		for w := range row {
			row[w] = -1
		}
		if m > 0 {
			m = s.step(g, m)
		}
		for _, k := range s.keys[:m] {
			row[uint32(k)] = int32(k >> 32)
		}
	}
}

// CountTrace fills buf with the empirical distributions of the first n
// walkers of a trace TraceWave filled from start: each level's live
// positions are counted once, in the dense histogram, and scaled by n
// once (DistBuf.scale). A node enters the touched list on its first
// count only, so extraction sorts one entry per visited node rather
// than one per walker. The counts are the integers DistributionsInto
// with R = n emits, in the same ascending node order, so the result
// equals it bit for bit. The returned slice aliases buf.
func (s *Scratch) CountTrace(buf *DistBuf, g *graph.Graph, start, T, n int, trace []int32, stride int) []sparse.Vector {
	s.grow(g.NumNodes())
	buf.prep(T)
	buf.idx[0] = append(buf.idx[0], int32(start))
	buf.cnt[0] = append(buf.cnt[0], int32(n))
	for t := 1; t <= T; t++ {
		for _, v := range trace[(t-1)*stride:][:n] {
			if v >= 0 {
				if s.cnt[v] == 0 {
					s.touched = append(s.touched, v)
				}
				s.cnt[v]++
			}
		}
		s.emitCounts(buf, t)
	}
	return buf.scale(T, n)
}
