// Package par holds the module's two parallel loops: For, a shared-counter
// queue of independent items (the offline rows, query batches), and
// Chunks, a split of a range into contiguous runs (the Jacobi sweep's row
// ranges, the graph build's counting passes). Every fan-out over a known
// set of items runs on one of them.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs every item in [0, n) on min(workers, n) goroutines, the
// caller's among them; n ≤ 0 starts none. The goroutines claim items from
// a shared counter, so uneven items balance. worker runs once per
// goroutine and returns the function that goroutine calls on its items,
// so per-worker scratch lives in that closure. The first error stops every
// further claim (items already claimed finish) and is returned.
func For(n, workers int, worker func() func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	run := func() {
		fn := worker()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			if err := fn(int(i)); err != nil {
				once.Do(func() { first = err })
				next.Store(int64(n))
			}
		}
	}
	for range max(1, min(workers, n)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return first
}

// Chunks runs fn(c, c·n/chunks, (c+1)·n/chunks) for every c in
// [0, chunks): contiguous runs that cover [0, n) exactly, some empty when
// chunks > n. The runs go concurrently, each on its own goroutine but the
// last, which runs on the caller. chunks < 1 runs nothing.
func Chunks(n, chunks int, fn func(c, lo, hi int)) {
	var wg sync.WaitGroup
	for c := range chunks - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, c*n/chunks, (c+1)*n/chunks)
		}()
	}
	if chunks > 0 {
		fn(chunks-1, (chunks-1)*n/chunks, n)
	}
	wg.Wait()
}
