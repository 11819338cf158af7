package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Window is a fixed-size ring of the most recent latency observations.
// Quantiles over a sliding window are what an operator (or a hedging
// policy) actually watches — a daemon that has been up for a week should
// report current p99, not lifetime p99 — and the fixed footprint avoids
// unbounded growth under sustained load. Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	ring  []time.Duration
	count uint64 // total observations; ring position is count % len(ring)
}

// NewWindow returns a window retaining the last size observations.
func NewWindow(size int) *Window {
	return &Window{ring: make([]time.Duration, size)}
}

// Observe records one sample, overwriting the oldest once full.
func (w *Window) Observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.count%uint64(len(w.ring))] = d
	w.count++
	w.mu.Unlock()
}

// Count returns the total number of observations ever made (not the
// retained window size).
func (w *Window) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Quantile returns the p-quantile of the retained samples by ceil
// nearest-rank: the smallest sample with at least a p fraction of the
// window at or below it. The floor form int(p*(n-1)) collapses upper
// quantiles on small windows — with n=2 it reports the MINIMUM as p99.
// An empty window yields 0.
func (w *Window) Quantile(p float64) time.Duration {
	w.mu.Lock()
	n := len(w.ring)
	if w.count < uint64(n) {
		n = int(w.count)
	}
	buf := make([]time.Duration, n)
	copy(buf, w.ring[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	return buf[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)]
}
