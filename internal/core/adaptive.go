// The adaptive (ε,δ) pair query: confidence-driven early stopping over
// the wave-mode walk kernels (internal/walk/adaptive.go).
//
// The fixed-budget pair estimator always spends R' walkers per endpoint.
// The adaptive path launches the same walker population in geometric
// waves and stops as soon as an empirical-Bernstein interval on the
// estimate is narrower than the caller's ε at confidence 1−δ, capped by
// R'. Each wave runs the walkers' own substreams and only records their
// positions; the distributions are counted once, from the kept prefix,
// at the stop point. An adaptive query that happens to reach the cap
// therefore returns the fixed-budget answer bit for bit — adaptivity
// only ever removes tail walkers the confidence bound proved
// unnecessary.
// Single-source queries have no adaptive path: they always run the
// paper's fixed-budget MCSS (SingleSourceInto with WalkSS).
package core

import (
	"context"
	"fmt"
	"math"

	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// PairEstimate is an adaptive single-pair result: the score plus what
// the query spent and how tight the bound was when it stopped.
type PairEstimate struct {
	Score float64
	// HalfWidth is the empirical-Bernstein confidence half-width at the
	// stop point: the true MCSP estimand lies within ±HalfWidth of
	// Score with probability ≥ 1−δ.
	HalfWidth float64
	// Walkers actually run per endpoint; Budget is the configured R'
	// cap. Budget−Walkers is what adaptivity saved.
	Walkers int
	Budget  int
	// Stopped reports an early stop (Walkers < Budget).
	Stopped bool
}

// checkAdaptiveParams validates a per-query (ε,δ) request. NaN fails
// every comparison, so finiteness is checked explicitly.
func checkAdaptiveParams(eps, delta float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 || eps >= 1 {
		return fmt.Errorf("core: epsilon %g outside [0,1)", eps)
	}
	if eps > 0 && (math.IsNaN(delta) || delta <= 0 || delta >= 1) {
		return fmt.Errorf("core: adaptive sampling needs delta in (0,1), got %g", delta)
	}
	return nil
}

// SinglePairAdaptiveCtx is SinglePair with per-query accuracy targets:
// it stops launching walkers once the empirical-Bernstein interval
// around the estimate is narrower than eps at confidence 1−delta, capped
// at the index's R'. eps = 0 runs the fixed budget and reports full cost.
//
// The per-walker stopping statistic is the paired sample
// X_w = Σ_t c^t·D[v]·1(walker w of side i and walker w of side j both
// occupy node v at step t) — iid across w with mean equal to the MCSP
// estimand. The bound uses the calibrated single-meeting range
// b = c·max(D) rather than the worst case Σ_t c^t·max(D): a walker pair
// that re-meets contributes exponentially damped extra terms, and the
// rigorous range makes the interval so wide the engine never stops
// inside realistic budgets. The empirical variance term still sees
// multi-meeting samples; the coverage test pins the calibrated
// interval's actual coverage against exact scores. The returned Score
// is the lower-variance cross-product of the two sides' distributions
// over the walkers run, which estimates the same quantity.
//
// The wave loop checks ctx at every wave boundary (the natural
// preemption point — waves are the unit of work between confidence
// checks) and returns ctx.Err() instead of a half-finished estimate. A
// deadline therefore bounds query latency to one wave past expiry. The
// fixed-budget path (eps = 0) has no wave boundaries; it only checks
// ctx once up front.
func (q *Querier) SinglePairAdaptiveCtx(ctx context.Context, i, j int, eps, delta float64) (PairEstimate, error) {
	if err := q.checkNode(i); err != nil {
		return PairEstimate{}, err
	}
	if err := q.checkNode(j); err != nil {
		return PairEstimate{}, err
	}
	if err := checkAdaptiveParams(eps, delta); err != nil {
		return PairEstimate{}, err
	}
	if err := ctx.Err(); err != nil {
		return PairEstimate{}, err
	}
	if i == j {
		return PairEstimate{Score: 1}, nil
	}
	opts := q.index.Opts
	if eps == 0 {
		s, err := q.SinglePair(i, j)
		return PairEstimate{Score: s, Walkers: opts.RPrime, Budget: opts.RPrime}, err
	}
	T := opts.T
	budget := opts.RPrime
	sched := walk.AdaptiveSchedule(budget)
	L := walk.AdaptiveLogTerm(delta, len(sched)-1)
	b := opts.C * q.maxDiag // calibrated single-meeting range; see SinglePairAdaptiveCtx
	diag := q.index.Diag
	seedA := xrand.Mix(opts.Seed, pairStream(i, j, 0))
	seedB := xrand.Mix(opts.Seed, pairStream(i, j, 1))

	qs := q.pool.Get().(*queryScratch)
	defer q.pool.Put(qs)
	// One level-major trace per side holds every walker the query may
	// run: trA[(t-1)·budget + w] is where walker w of side i stands at
	// level t, -1 once it has died.
	if cap(qs.trA) < T*budget {
		qs.trA = make([]int32, T*budget)
		qs.trB = make([]int32, T*budget)
	}
	trA, trB := qs.trA[:T*budget], qs.trB[:T*budget]

	var sum, sumsq float64
	prev := 0
	hw := math.Inf(1)
	stopped := false
	for wi, cum := range sched {
		if err := ctx.Err(); err != nil {
			return PairEstimate{}, err
		}
		// Walkers prev..cum-1 of each side: the same substreams the
		// fixed-budget run would give them, so any stop point is a
		// prefix of the fixed walker population.
		qs.sc.TraceWave(q.vw, i, T, cum-prev, seedA, prev, trA, budget)
		qs.sc.TraceWave(q.vw, j, T, cum-prev, seedB, prev, trB, budget)
		for w := prev; w < cum; w++ {
			x := 0.0
			for t := 1; t <= T; t++ {
				a := trA[(t-1)*budget+w]
				if a < 0 {
					break // side-i walker dead: no further meetings
				}
				if a == trB[(t-1)*budget+w] {
					x += q.ct[t] * diag[a]
				}
			}
			sum += x
			sumsq += x * x
		}
		prev = cum
		hw = walk.AdaptiveHalfWidth(sum, sumsq, prev, L, b)
		if wi < len(sched)-1 && hw <= eps {
			stopped = true
			break
		}
	}

	// Score from the kept walkers' traces, counted and scaled once — at
	// the cap these are exactly the fixed-budget distributions, so the
	// score matches SinglePair bit for bit.
	di := qs.sc.CountTrace(&qs.bufA, q.vw, i, T, prev, trA, budget)
	dj := qs.sc.CountTrace(&qs.bufB, q.vw, j, T, prev, trB, budget)
	s := 0.0
	for t := 1; t <= T; t++ { // t = 0 term is 0 for i != j
		s += q.ct[t] * sparse.WeightedDot(&di[t], &dj[t], diag)
	}
	return PairEstimate{
		Score:     sparse.Clamp01(s),
		HalfWidth: hw,
		Walkers:   prev,
		Budget:    budget,
		Stopped:   stopped,
	}, nil
}
