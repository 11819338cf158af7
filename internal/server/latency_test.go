package server

import (
	"sync"
	"testing"
	"time"

	"cloudwalker/internal/metrics"
)

// fill observes 1ms, 2ms, ..., n ms in order (so sorted rank r holds
// (r+1) ms and quantile expectations are exact integers).
func fillRecorder(n int) *metrics.Window {
	rec := metrics.NewWindow(latWindow)
	for i := 1; i <= n; i++ {
		rec.Observe(time.Duration(i) * time.Millisecond)
	}
	return rec
}

// TestLatencyQuantilesNearestRank pins the ceil nearest-rank formula:
// the p-quantile of n samples is the ceil(p*n)-th smallest. The floor
// formula int(p*(n-1)) this replaces collapsed upper quantiles on small
// windows — with n=2 samples it reported the MINIMUM as p99, so an
// operator watching a freshly-started daemon saw a p99 of the best
// request, not the worst. Each row here fails against that code.
func TestLatencyQuantilesNearestRank(t *testing.T) {
	cases := []struct {
		n                int
		wantP50, wantP90 float64 // milliseconds
		wantP99          float64
	}{
		// n=1: every quantile is the only sample.
		{n: 1, wantP50: 1, wantP90: 1, wantP99: 1},
		// n=2: p50 = 1st sample, p90/p99 = 2nd (the max — the floor
		// formula returned 1 for all three).
		{n: 2, wantP50: 1, wantP90: 2, wantP99: 2},
		// n=3: ceil(.5*3)=2nd, ceil(.9*3)=3rd, ceil(.99*3)=3rd.
		{n: 3, wantP50: 2, wantP90: 3, wantP99: 3},
		// n=100: exact ranks 50, 90, 99.
		{n: 100, wantP50: 50, wantP90: 90, wantP99: 99},
		// n=2048 fills the ring exactly: ceil(.5*2048)=1024,
		// ceil(.9*2048)=1844, ceil(.99*2048)=2028.
		{n: 2048, wantP50: 1024, wantP90: 1844, wantP99: 2028},
	}
	for _, tc := range cases {
		st := latencyStats(fillRecorder(tc.n))
		if st.Count != uint64(tc.n) {
			t.Errorf("n=%d: Count = %d", tc.n, st.Count)
		}
		if st.P50Ms != tc.wantP50 || st.P90Ms != tc.wantP90 || st.P99Ms != tc.wantP99 {
			t.Errorf("n=%d: got p50=%v p90=%v p99=%v, want %v/%v/%v",
				tc.n, st.P50Ms, st.P90Ms, st.P99Ms, tc.wantP50, tc.wantP90, tc.wantP99)
		}
	}
}

// TestLatencyRingWraparound overflows the ring and checks the window only
// contains the most recent latWindow samples: after 3000 observations of
// i ms, samples 953..3000 survive (2048 of them), so the minimum
// quantile-able value is 953 and p99 is 953+2027=2980.
func TestLatencyRingWraparound(t *testing.T) {
	const total = 3000
	rec := fillRecorder(total)
	st := latencyStats(rec)
	if st.Count != total {
		t.Fatalf("Count = %d, want %d (total observations, not window size)", st.Count, total)
	}
	first := total - latWindow + 1 // oldest surviving sample, in ms
	if want := float64(first + 1024 - 1); st.P50Ms != want {
		t.Errorf("p50 = %v, want %v", st.P50Ms, want)
	}
	if want := float64(first + 2028 - 1); st.P99Ms != want {
		t.Errorf("p99 = %v, want %v", st.P99Ms, want)
	}
}

func TestLatencyZeroTraffic(t *testing.T) {
	rec := metrics.NewWindow(latWindow)
	st := latencyStats(rec)
	if st.Count != 0 || st.P50Ms != 0 || st.P99Ms != 0 {
		t.Fatalf("zero-traffic stats = %+v, want all zero", st)
	}
}

// TestLatencyConcurrentObserveStats drives observe and stats from many
// goroutines; run under -race this pins the locking discipline, and the
// final count must see every observation.
func TestLatencyConcurrentObserveStats(t *testing.T) {
	rec := metrics.NewWindow(latWindow)
	const writers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.Observe(time.Duration(i+1) * time.Microsecond)
				if i%97 == 0 {
					latencyStats(rec)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st := latencyStats(rec)
			if st.P99Ms < st.P50Ms {
				t.Errorf("p99 %v < p50 %v", st.P99Ms, st.P50Ms)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if st := latencyStats(rec); st.Count != writers*per {
		t.Fatalf("Count = %d, want %d", st.Count, writers*per)
	}
}
