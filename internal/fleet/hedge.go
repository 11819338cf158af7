package fleet

import (
	"context"
	"time"

	"cloudwalker/internal/metrics"
)

// Hedged requests (GETs only: /pair and /source): when the primary replica
// chain hasn't answered within a hedge delay — explicitly configured, or
// derived from the observed p99 of successful attempts — the router
// races a second replica chain (the ring order rotated by one) and takes
// the first clean answer, cancelling the loser. Hedging trades a bounded
// amount of duplicate work for tail latency: one slow shard no longer
// sets the p99 of every key it owns. A hedge spends a retry-budget token
// for its first attempt (a hedge IS extra load) and then runs the same
// askOrder chain as the primary, so hedging self-disables during a
// brownout instead of amplifying it.

// hedgeWindow is how many recent successful attempt latencies the auto
// hedge delay is derived from.
const hedgeWindow = 128

// minHedgeSamples gates auto-hedging until the window has seen enough
// traffic to make "p99" mean something.
const minHedgeSamples = 20

// hedgeDelayFloor keeps an auto-derived delay from collapsing to ~0 on a
// fast fleet, which would hedge nearly every request.
const hedgeDelayFloor = time.Millisecond

// autoHedgeDelay is the p99 of the observed attempt latencies, floored,
// and whether enough samples exist to trust it.
func autoHedgeDelay(w *metrics.Window) (time.Duration, bool) {
	if w.Count() < minHedgeSamples {
		return 0, false
	}
	return max(w.Quantile(0.99), hedgeDelayFloor), true
}

// hedgeDelayNow resolves the delay to use for a hedged request right
// now: the configured fixed delay, or the auto p99. ok=false means
// hedging is off (or auto mode lacks samples) and the request runs
// unhedged.
func (rt *Router) hedgeDelayNow() (time.Duration, bool) {
	switch {
	case rt.cfg.HedgeDelay > 0:
		return rt.cfg.HedgeDelay, true
	case rt.cfg.HedgeDelay < 0:
		return autoHedgeDelay(rt.latencies)
	default:
		return 0, false
	}
}

// askHedged races the primary replica chain against a delayed secondary
// chain starting one ring position later. The first authoritative answer
// wins and the loser's context is cancelled (Router.do treats
// parent-cancelled attempts as neutral — no down-marking, no breaker
// penalty). If the primary finishes before the delay, no hedge is sent.
func (rt *Router) askHedged(ctx context.Context, order []*shardState, q *query, delay time.Duration) (*shardReply, error) {
	type outcome struct {
		rep   *shardReply
		err   error
		hedge bool
	}
	pctx, cancelPrimary := context.WithCancel(ctx)
	hctx, cancelHedge := context.WithCancel(ctx)
	defer cancelPrimary()
	defer cancelHedge()

	results := make(chan outcome, 2)
	go func() {
		rep, err := rt.askOrder(pctx, order, q)
		results <- outcome{rep, err, false}
	}()

	timer := time.NewTimer(delay)
	defer timer.Stop()

	hedged := false
	launchHedge := func() {
		// The hedge's one token, for its first attempt; askOrder charges
		// whatever follows like any other chain.
		if !rt.charge() {
			return
		}
		hedged = true
		rotated := append(append(make([]*shardState, 0, len(order)), order[1:]...), order[0])
		go func() {
			rep, err := rt.askOrder(hctx, rotated, q)
			results <- outcome{rep, err, true}
		}()
	}

	var firstErr error
	pending := 1
	for {
		select {
		case <-timer.C:
			if !hedged {
				launchHedge()
				if hedged {
					pending++
				}
			}
		case oc := <-results:
			pending--
			if oc.err == nil {
				if hedged {
					if oc.hedge {
						rt.hedgesWon.Inc()
						cancelPrimary()
					} else {
						rt.hedgesLost.Inc()
						cancelHedge()
					}
				}
				return oc.rep, nil
			}
			if firstErr == nil {
				firstErr = oc.err
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
