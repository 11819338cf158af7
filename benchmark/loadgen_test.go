package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The percentile is nearest-rank with the rank rounded up. Rounding down
// made the p99 of two samples their minimum (the PR 7 latency bug).
func TestPercentileNearestRankCeil(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	for _, tc := range []struct {
		sorted []time.Duration
		p      float64
		want   int
	}{
		{ms(7), 0.99, 7},
		{ms(7), 0.50, 7},
		{ms(1, 2), 0.99, 2},
		{ms(1, 2), 0.50, 1},
		{ms(1, 2, 3), 0.99, 3},
		{ms(1, 2, 3), 0.50, 2},
		{ms(hundred...), 0.99, 99},
		{ms(hundred...), 0.50, 50},
		{ms(hundred...), 1.00, 100},
	} {
		if got := percentile(tc.sorted, tc.p); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %dms", len(tc.sorted), tc.p, got, tc.want)
		}
	}
}

// An open loop times each request from the instant it was DUE. One
// request that stalls the only connection for 50 ms must therefore show
// up in the latency of every request that was due while it was stalled.
// Timing from the send instant (coordinated omission) would report one
// slow request and ~49 fast ones, and this test would fail.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const n, stalled = 60, 5
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(k) * time.Millisecond
	}
	res, err := runOpen(1, 0, due, func(idx int) error {
		if idx == stalled {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != n || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", res.attempted, res.failed, n)
	}
	inflated := 0
	for _, l := range res.lat {
		if l > 20*time.Millisecond {
			inflated++
		}
	}
	// Requests 6..35 were due during the stall with at least 20 ms of it
	// still to run.
	if inflated < 25 {
		t.Fatalf("only %d of %d latencies exceed 20ms: the stall was not charged to the requests queued behind it", inflated, n)
	}
}

func TestClosedLoopIssuesStreamInOrder(t *testing.T) {
	seen := make(chan int, 1<<16)
	res := runClosed(2, 100, math.MaxInt, 20*time.Millisecond, func(idx int) error {
		seen <- idx
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	close(seen)
	got := map[int]bool{}
	for idx := range seen {
		got[idx] = true
	}
	if res.attempted != len(got) || res.attempted == 0 {
		t.Fatalf("attempted %d, distinct indices %d", res.attempted, len(got))
	}
	for idx := 100; idx < 100+len(got); idx++ {
		if !got[idx] {
			t.Fatalf("stream index %d skipped", idx)
		}
	}
}

// Request streams and arrival schedules are pure functions of the seed:
// the same at any GOMAXPROCS, different for a different seed.
func TestSamplersReproducible(t *testing.T) {
	draw := func(seed uint64) ([]request, []time.Duration) {
		st := zipfStream(seed, 5000, newZipf(zipfKeys, zipfS))
		reqs := make([]request, 500)
		for i := range reqs {
			reqs[i] = st(i)
		}
		return reqs, poissonSchedule(seed, 1000, time.Second)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reqs1, due1 := draw(7)
	runtime.GOMAXPROCS(4)
	reqs4, due4 := draw(7)
	if !reflect.DeepEqual(reqs1, reqs4) || !reflect.DeepEqual(due1, due4) {
		t.Fatal("same seed gave different streams at GOMAXPROCS 1 and 4")
	}
	reqsOther, dueOther := draw(8)
	if reflect.DeepEqual(reqs1, reqsOther) || reflect.DeepEqual(due1, dueOther) {
		t.Fatal("different seeds gave the same stream")
	}
	nodes := make([]int, 5000)
	for i := range nodes {
		nodes[i] = i
	}
	cold := mixedColdStream(7, nodes, 10, 3, false)
	if !reflect.DeepEqual(cold(1234), cold(1234)) {
		t.Fatal("cold stream is not a function of the index")
	}
}

func TestPoissonRateAndZipfMass(t *testing.T) {
	due := poissonSchedule(3, 2000, 10*time.Second)
	if n := float64(len(due)); math.Abs(n-20000) > 600 { // ±4σ
		t.Errorf("Poisson(2000/s) over 10s scheduled %v arrivals", n)
	}
	for k := 1; k < len(due); k++ {
		if due[k] < due[k-1] {
			t.Fatal("schedule not ascending")
		}
	}
	z := newZipf(zipfKeys, zipfS)
	harmonic := 0.0
	for k := 1; k <= zipfKeys; k++ {
		harmonic += 1 / float64(k)
	}
	if got, want := z.cdf[0], 1/harmonic; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(rank 0) = %v, want %v", got, want)
	}
	if z.rank(0) != 0 || z.rank(0.999999999) != zipfKeys-1 {
		t.Errorf("rank endpoints: %d, %d", z.rank(0), z.rank(0.999999999))
	}
}

// The mix of the zipf stream is fixed by rank, not drawn: 70% pairs (a
// quarter of them adaptive), 25% sources, 5% batches at every popularity
// level.
func TestZipfMixByRank(t *testing.T) {
	st := zipfStream(1, 5000, newZipf(20, 0)) // s=0: uniform over 20 ranks
	count := map[reqKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		count[st(i).kind]++
	}
	for kind, want := range map[reqKind]float64{kindPair: 0.50, kindPairEps: 0.20, kindSource: 0.25, kindPairs: 0.05} {
		if got := float64(count[kind]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("kind %d share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestPacerSleepsAtLeastAsAsked(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, d := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond} {
		t0 := time.Now()
		if err := p.sleep(d); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(t0); got < d {
			t.Errorf("sleep(%v) returned after %v", d, got)
		}
	}
}
