package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudwalker/internal/xrand"
)

// percentile is the nearest-rank percentile with the rank rounded UP:
// the smallest sample with at least p of the samples at or below it.
// (Rounding down returns the minimum as the p99 of two samples.) sorted
// must be ascending and non-empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of a copy of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return percentile(slices.Sorted(slices.Values(d)), 0.5)
}

// zipf samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF (math/rand's Zipf needs s > 1; the workload wants s = 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank maps a uniform draw u in [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over [0, window): exponential gaps drawn from one seeded
// stream, so the schedule depends on the seed alone.
func poissonSchedule(seed uint64, rate float64, window time.Duration) []time.Duration {
	src := xrand.NewStream(seed, 0x706f6973) // "pois"
	var due []time.Duration
	t := 0.0
	for {
		t += src.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// loadResult is what one measured window observed at the client.
type loadResult struct {
	lat       []time.Duration // latencies of successful operations, unsorted
	done      []time.Time     // when each of them completed, in the order of lat
	late      []time.Duration // open loop: how long after its due instant a request that found an idle connection was sent
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration // window start to last completion
	backlog   int           // open loop: requests sent more than lateStart after they were due
}

// issueFunc performs operation idx of the workload's request stream and
// reports whether it succeeded (status, answer checks).
type issueFunc func(idx int) error

// runClosed drives a closed loop: each of clients goroutines issues its
// next operation only after the previous one completed. Operations are
// stream indices first, first+1, ... handed out in order; no operation
// starts after count have been issued or the window has elapsed.
func runClosed(clients, first, count int, window time.Duration, issue issueFunc) loadResult {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(window)
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				idx := int(next.Add(1) - 1)
				if idx-first >= count {
					return
				}
				err := issue(idx)
				res.record(time.Since(t0), err)
			}
		}(&parts[c])
	}
	wg.Wait()
	return mergeResults(parts, time.Since(start))
}

// lateStart is the send delay beyond which an open-loop request counts as
// backlogged: it waited that long past its due instant for a connection.
const lateStart = 100 * time.Millisecond

// runOpen drives an open loop over conns connections: request k of the
// schedule is due at start+due[k] whether or not earlier requests have
// completed, and every scheduled request is sent. Latency is timed from
// the DUE instant, not the send instant, so a stall delays — and is
// charged to — every request queued behind it (timing from the send would
// hide that queue: coordinated omission).
func runOpen(conns, first int, due []time.Duration, issue issueFunc) (loadResult, error) {
	pacers := make([]*pacer, conns)
	for c := range pacers {
		p, err := newPacer()
		if err != nil {
			return loadResult{}, err
		}
		defer p.close()
		pacers[c] = p
	}
	var next atomic.Int64
	start := time.Now()
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(res *loadResult, pace *pacer) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				dueAt := start.Add(due[k])
				if wait := time.Until(dueAt); wait > 0 {
					if err := pace.sleep(wait); err != nil {
						res.record(0, err)
						return
					}
					res.late = append(res.late, time.Since(dueAt))
				} else if -wait > lateStart {
					res.backlog++
				}
				err := issue(first + k)
				res.record(time.Since(dueAt), err)
			}
		}(&parts[c], pacers[c])
	}
	wg.Wait()
	return mergeResults(parts, time.Since(start)), nil
}

func (r *loadResult) record(lat time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, lat)
	r.done = append(r.done, time.Now())
}

func mergeResults(parts []loadResult, elapsed time.Duration) loadResult {
	out := loadResult{elapsed: elapsed}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.done = append(out.done, p.done...)
		out.late = append(out.late, p.late...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.backlog += p.backlog
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}
