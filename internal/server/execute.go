// Executing a resolved plan: cache → singleflight → estimator. One answer
// type is what the cache holds and what every handler encodes from.

package server

import (
	"context"
	"errors"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/par"
	"cloudwalker/internal/sparse"
)

// answer is the cached value of every query: a pair's score or a source's
// truncated top-k and — on adaptive pair answers (eps > 0) only — the
// accuracy target and stop-point stats the response reports. The engine
// that computed it is the plan's backend, which its key names. cost is
// the wall time the estimate took, which the cache weighs when it
// evicts; no response carries it. Answers are immutable once stored.
type answer struct {
	score     float64
	results   []neighborJSON
	eps       float64
	halfWidth float64
	walkers   int
	stopped   bool
	cost      time.Duration
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
			s.testComputeHook(ctx, key)
		}
		s.computes.Inc()
		t0 := time.Now()
		a, err := s.estimate(ctx, snap, p)
		if err == nil && s.cache != nil {
			a.cost = time.Since(t0)
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

// executeAll finishes the missed jobs of a batch on up to
// Options.NumWorkers() goroutines, the caller's among them (par.For). It
// returns the first error, which also stops the workers taking further
// jobs.
func (s *Server) executeAll(ctx context.Context, snap *Snapshot, jobs []job, misses []int) error {
	if len(misses) == 0 {
		return nil // an all-hit batch allocates no fan-out closure
	}
	return par.For(len(misses), snap.Q.Index().Opts.NumWorkers(), func() func(int) error {
		return func(n int) (err error) {
			jb := &jobs[misses[n]]
			jb.ans, err = s.finish(ctx, snap, jb.p, jb.key)
			return err
		}
	})
}

// estimate runs the plan's engine and builds the answer, accounting the
// computation once (cache hits re-serve the stored answer without
// re-spending — or re-saving — walkers). Both engines take the request
// context: the walks check it at wave boundaries, the series once per
// level. The Monte Carlo index answers pairs with walks (eps = 0 runs the
// fixed budget, so keys without an ε suffix only ever hold fixed
// answers) and sources with the pruned series over its diagonal
// (ServedSourceInto), not the paper's MCSS walk; the linearized engine
// answers both at its own prune threshold, and resolve never hands it a
// plan with an ε.
func (s *Server) estimate(ctx context.Context, snap *Snapshot, p plan) (*answer, error) {
	var (
		pe  core.PairEstimate
		v   sparse.Vector
		err error
	)
	switch {
	case p.kind == kindPair && p.backend == BackendLin:
		pe.Score, err = snap.Lin.SinglePairCtx(ctx, p.i, p.j, snap.Lin.Options().PruneEps)
	case p.kind == kindPair:
		pe, err = snap.Q.SinglePairAdaptiveCtx(ctx, p.i, p.j, p.eps, p.delta)
	case p.backend == BackendLin:
		err = snap.Lin.SingleSourceInto(ctx, p.i, snap.Lin.Options().PruneEps, &v)
	default:
		err = snap.Q.ServedSourceInto(ctx, p.i, &v)
	}
	if err != nil {
		return nil, err
	}
	a := &answer{score: pe.Score}
	if p.kind == kindSource {
		if p.parts > 0 {
			// Partition-restricted top-k (part=i/N): the estimate is
			// the same full single-source vector (deterministic per
			// (node, gen)); only the candidate set narrows, so the merged
			// partials are bit-identical to a whole-space answer.
			keepPart(&v, p.part, p.parts)
		}
		a.results = toNeighborJSON(core.TopKNeighbors(&v, p.i, p.k))
	}
	s.backendQueries[p.backend].Inc()
	if p.eps > 0 { // an adaptive pair: both endpoints walk, both save budget−walkers
		a.eps, a.halfWidth, a.walkers, a.stopped = p.eps, pe.HalfWidth, pe.Walkers, pe.Stopped
		s.walkersSaved.Add(uint64(2 * (pe.Budget - pe.Walkers)))
		if pe.Stopped {
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
