package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForRunsEachIndexOnce: every index runs exactly once, on
// min(workers, n) workers, whatever the worker count.
func TestForRunsEachIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 7, n + 5} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			var hits [n]atomic.Int32
			var started atomic.Int32
			err := For(n, workers, func() func(int) error {
				started.Add(1)
				return func(i int) error {
					hits[i].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
			if got, want := int(started.Load()), min(workers, n); got != want {
				t.Fatalf("%d workers started, want %d", got, want)
			}
		})
	}
}

// TestForWorkerClosuresNotShared: each worker's closure is called by one
// goroutine only, one item at a time, so scratch it captures is private.
func TestForWorkerClosuresNotShared(t *testing.T) {
	const n, workers = 4000, 4
	var mu sync.Mutex
	var counts []*int
	err := For(n, workers, func() func(int) error {
		var busy atomic.Bool
		count := new(int) // written without a lock: -race flags sharing
		mu.Lock()
		counts = append(counts, count)
		mu.Unlock()
		return func(int) error {
			if !busy.CompareAndSwap(false, true) {
				return errors.New("worker closure entered concurrently")
			}
			*count++
			busy.Store(false)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != workers {
		t.Fatalf("%d closures, want %d", len(counts), workers)
	}
	total := 0
	for _, c := range counts {
		total += *c
	}
	if total != n {
		t.Fatalf("closures ran %d items, want %d", total, n)
	}
}

// TestForEmptyStartsNothing: n = 0 calls neither worker nor fn.
func TestForEmptyStartsNothing(t *testing.T) {
	for _, n := range []int{0, -3} {
		err := For(n, 8, func() func(int) error {
			t.Errorf("n=%d: worker started", n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestForFirstErrorStopsClaims: after an item fails no further item is
// claimed, and the failure is what For returns.
func TestForFirstErrorStopsClaims(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := For(100, 1, func() func(int) error {
		return func(i int) error {
			calls.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		}
	})
	if err != boom || calls.Load() != 4 {
		t.Fatalf("one worker: err %v after %d calls, want boom after 4", err, calls.Load())
	}

	// With several workers, only items claimed before the failure run:
	// at most one in flight per other worker.
	const workers = 4
	calls.Store(0)
	err = For(1_000_000, workers, func() func(int) error {
		return func(i int) error {
			calls.Add(1)
			if i == 10 {
				return boom
			}
			return nil
		}
	})
	if err != boom {
		t.Fatalf("several workers: err %v, want boom", err)
	}
	if c := calls.Load(); c >= 1_000_000 {
		t.Fatalf("several workers ran all %d items after a failure", c)
	}
}

type codeError struct{ code int }

func (e codeError) Error() string { return fmt.Sprintf("code %d", e.code) }

// TestForMixedErrorTypes: two workers failing at once with errors of
// different concrete types return one of them, without panicking.
func TestForMixedErrorTypes(t *testing.T) {
	plain, typed := errors.New("plain"), codeError{7}
	for range 50 {
		var both sync.WaitGroup
		both.Add(2)
		err := For(2, 2, func() func(int) error {
			return func(i int) error {
				both.Done()
				both.Wait() // both items are in flight before either fails
				if i == 0 {
					return plain
				}
				return typed
			}
		})
		if err != plain && err != typed {
			t.Fatalf("err %v, want one of the two failures", err)
		}
	}
}

// TestChunksCover: the runs are [c·n/k, (c+1)·n/k), every c runs once,
// and together they cover [0, n) exactly, also when chunks > n.
func TestChunksCover(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{
		{0, 1}, {0, 3}, {1, 1}, {10, 1}, {10, 3}, {10, 10}, {3, 8}, {1000, 7},
	} {
		runs := make([][2]int, tc.chunks)
		var calls atomic.Int32
		Chunks(tc.n, tc.chunks, func(c, lo, hi int) {
			calls.Add(1)
			runs[c] = [2]int{lo, hi}
		})
		if int(calls.Load()) != tc.chunks {
			t.Fatalf("n=%d chunks=%d: %d calls", tc.n, tc.chunks, calls.Load())
		}
		for c, r := range runs {
			if want := [2]int{c * tc.n / tc.chunks, (c + 1) * tc.n / tc.chunks}; r != want {
				t.Fatalf("n=%d chunks=%d: run %d is %v, want %v", tc.n, tc.chunks, c, r, want)
			}
		}
		if runs[0][0] != 0 || runs[tc.chunks-1][1] != tc.n {
			t.Fatalf("n=%d chunks=%d: runs %v do not span [0, n)", tc.n, tc.chunks, runs)
		}
		for c := 1; c < tc.chunks; c++ {
			if runs[c][0] != runs[c-1][1] {
				t.Fatalf("n=%d chunks=%d: runs %v leave a gap or overlap", tc.n, tc.chunks, runs)
			}
		}
	}
	Chunks(5, 0, func(int, int, int) { t.Error("chunks=0 ran a run") })
}
