// Executing a resolved plan: cache → singleflight → estimator. One answer
// type is what the cache holds and what every handler encodes from.

package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cloudwalker/internal/core"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/sparse"
)

// estimate is what a pair estimator reports beside the score: the bound
// it claims and what the answer cost.
type estimate struct {
	score float64
	// halfWidth is the confidence half-width at the stop point of an
	// adaptive Monte Carlo answer; 0 for fixed-budget and deterministic
	// ones.
	halfWidth float64
	// walkers run per walk origin against the budget they were capped by
	// (both 0 for the linearized engine, which samples nothing).
	walkers, budget int
	stopped         bool // an adaptive answer stopped before the budget
}

// estimator is the contract both answering engines sit behind: the Monte
// Carlo index (core.Querier: walks for pairs, the pruned series over its
// diagonal for sources) and the linearized truncated series
// (linserve.Engine). Both take the request context — the walks check it
// at wave boundaries, the series once per level. eps and delta are a
// Monte Carlo pair notion the linearized engine ignores (resolve never
// hands it a plan that depends on them).
type estimator interface {
	pair(ctx context.Context, i, j int, eps, delta float64) (estimate, error)
	sourceInto(ctx context.Context, node int, out *sparse.Vector) error
}

type mcEstimator struct{ q *core.Querier }

// eps = 0 runs the fixed budget (SinglePair), so keys without an ε
// suffix only ever hold fixed answers.
func (m mcEstimator) pair(ctx context.Context, i, j int, eps, delta float64) (estimate, error) {
	pe, err := m.q.SinglePairAdaptiveCtx(ctx, i, j, eps, delta)
	return estimate{score: pe.Score, halfWidth: pe.HalfWidth, walkers: pe.Walkers, budget: pe.Budget, stopped: pe.Stopped}, err
}

// sourceInto is the series over the index's diagonal that /source serves
// (core.Querier.ServedSourceInto), not the paper's MCSS walk.
func (m mcEstimator) sourceInto(ctx context.Context, node int, out *sparse.Vector) error {
	return m.q.ServedSourceInto(ctx, node, out)
}

type linEstimator struct{ e *linserve.Engine }

func (l linEstimator) pair(ctx context.Context, i, j int, _, _ float64) (estimate, error) {
	score, err := l.e.SinglePairCtx(ctx, i, j)
	return estimate{score: score}, err
}

func (l linEstimator) sourceInto(ctx context.Context, node int, out *sparse.Vector) error {
	return l.e.SingleSourceInto(ctx, node, out)
}

// answer is the cached value of every query: a pair's score or a source's
// truncated top-k and — on adaptive pair answers (eps > 0) only — the
// accuracy target and stop-point stats the response reports. The engine
// that computed it is the plan's backend, which its key names. Answers
// are immutable once stored.
type answer struct {
	score     float64
	results   []neighborJSON
	eps       float64
	halfWidth float64
	walkers   int
	stopped   bool
}

// job is one plan on its way through execute: keyed and looked up in the
// cache.
type job struct {
	p   plan
	key string
	ans *answer
	hit bool // ans came from the cache
}

// begin keys a resolved plan and probes the cache.
func (s *Server) begin(gen uint64, p plan) job {
	jb := job{p: p, key: p.key(gen)}
	if s.cache != nil {
		if v, ok := s.cache.Get(jb.key); ok {
			jb.ans, jb.hit = v.(*answer), true
		}
	}
	return jb
}

// finish computes a cache-missed job under the singleflight group: every
// distinct in-flight key computes once, and every completed key is
// served from the cache until evicted. ctx is THIS request's context:
// when a coalesced flight fails with the LEADER's context error (its
// deadline, not ours), a caller whose own context is still live retries
// once as the new leader instead of inheriting a failure it didn't earn.
// Errors never land in the cache.
func (s *Server) finish(ctx context.Context, snap *Snapshot, p plan, key string) (*answer, error) {
	compute := func() (*answer, error) {
		if s.testComputeHook != nil {
			s.testComputeHook(key)
		}
		s.computes.Inc()
		a, err := s.estimate(ctx, snap, p)
		if err == nil && s.cache != nil {
			s.cache.Put(key, a)
		}
		return a, err
	}
	a, shared, err := s.flight.Do(key, compute)
	if shared {
		s.coalesced.Inc()
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			a, _, err = s.flight.Do(key, compute)
		}
	}
	return a, err
}

// execute answers one resolved plan against the snapshot, reporting
// whether the answer came from the result cache (the value is
// bit-identical either way: every estimator is deterministic in its
// query and generation).
func (s *Server) execute(ctx context.Context, snap *Snapshot, p plan) (*answer, bool, error) {
	jb := s.begin(snap.Gen, p)
	if jb.hit {
		return jb.ans, true, nil
	}
	a, err := s.finish(ctx, snap, jb.p, jb.key)
	return a, false, err
}

// executeAll finishes the missed jobs of a batch, the caller working
// beside up to Options.NumWorkers()−1 extra goroutines. It returns the
// first error, which also stops the workers taking further jobs.
func (s *Server) executeAll(ctx context.Context, snap *Snapshot, jobs []job, misses []int) error {
	if len(misses) == 0 {
		return nil // an all-hit batch pays for none of the fan-out state
	}
	workers := snap.Q.Index().Opts.NumWorkers()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	work := func() {
		for n := next.Add(1) - 1; n < int64(len(misses)); n = next.Add(1) - 1 {
			jb := &jobs[misses[n]]
			var err error
			if jb.ans, err = s.finish(ctx, snap, jb.p, jb.key); err != nil {
				errOnce.Do(func() { firstErr = err })
				next.Store(int64(len(misses)))
			}
		}
	}
	for w := 1; w < min(workers, len(misses)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}

// estimate runs the plan's estimator and builds the answer, accounting
// the computation once (cache hits re-serve the stored answer without
// re-spending — or re-saving — walkers).
func (s *Server) estimate(ctx context.Context, snap *Snapshot, p plan) (*answer, error) {
	var est estimator = mcEstimator{snap.Q}
	if p.backend == BackendLin {
		est = linEstimator{snap.Lin}
	}
	a := &answer{}
	var e estimate
	var err error
	if p.kind == kindPair {
		e, err = est.pair(ctx, p.i, p.j, p.eps, p.delta)
		a.score = e.score
	} else {
		var v sparse.Vector
		if err = est.sourceInto(ctx, p.i, &v); err == nil {
			if p.parts > 0 {
				// Partition-restricted top-k (part=i/N): the
				// estimate is the same full single-source vector
				// (deterministic per (node, gen)); only the candidate set
				// narrows, so the merged partials are bit-identical to a
				// whole-space answer.
				keepPart(&v, p.part, p.parts)
			}
			a.results = toNeighborJSON(core.TopKNeighbors(&v, p.i, p.k))
		}
	}
	if err != nil {
		return nil, err
	}
	s.backendQueries[p.backend].Inc()
	if p.eps > 0 { // an adaptive pair: both endpoints walk, both save budget−walkers
		a.eps, a.halfWidth, a.walkers, a.stopped = p.eps, e.halfWidth, e.walkers, e.stopped
		s.walkersSaved.Add(uint64(2 * (e.budget - e.walkers)))
		if e.stopped {
			s.adaptiveStopped.Inc()
		}
	}
	return a, nil
}

// NodePart returns a node's partition among parts, for /source with
// part=i/N: a shard-side restriction of the answer's candidate set (the
// fleet router owner-routes whole answers and never sends it). The
// assignment is a stable hash — NOT the consistent-hash ring — so it is
// identical across processes and independent of fleet membership order.
// parts <= 1 puts every node in partition 0.
func NodePart(node int32, parts int) int {
	if parts <= 1 {
		return 0
	}
	// splitmix64 finalizer: adjacent node ids must land on uncorrelated
	// partitions or partition loads would follow graph locality.
	z := uint64(uint32(node)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(parts))
}

// keepPart filters v in place to the nodes of one partition.
func keepPart(v *sparse.Vector, part, parts int) {
	k := 0
	for i, node := range v.Idx {
		if NodePart(node, parts) == part {
			v.Idx[k], v.Val[k] = node, v.Val[i]
			k++
		}
	}
	v.Idx, v.Val = v.Idx[:k], v.Val[:k]
}
