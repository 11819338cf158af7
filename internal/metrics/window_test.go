package metrics

import (
	"testing"
	"time"
)

// TestWindowQuantile: ceil nearest-rank over the retained samples only —
// Count keeps the lifetime total while the quantiles forget what the
// ring overwrote.
func TestWindowQuantile(t *testing.T) {
	w := NewWindow(4)
	if w.Count() != 0 || w.Quantile(0.99) != 0 {
		t.Fatal("empty window must report zero")
	}
	w.Observe(30 * time.Millisecond)
	w.Observe(10 * time.Millisecond)
	if got := w.Quantile(0.5); got != 10*time.Millisecond {
		t.Fatalf("p50 of {10,30} = %v, want 10ms", got)
	}
	if got := w.Quantile(0.99); got != 30*time.Millisecond {
		t.Fatalf("p99 of {10,30} = %v, want 30ms (the floor form reports the minimum)", got)
	}
	for ms := 1; ms <= 6; ms++ { // overwrites everything: 3,4,5,6 remain
		w.Observe(time.Duration(ms) * time.Millisecond)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d, want 8 observations", w.Count())
	}
	if lo, hi := w.Quantile(0), w.Quantile(1); lo != 3*time.Millisecond || hi != 6*time.Millisecond {
		t.Fatalf("window spans %v..%v, want 3ms..6ms", lo, hi)
	}
}
