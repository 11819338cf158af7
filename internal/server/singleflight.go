package server

import (
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent duplicate work: while one goroutine
// computes the value for a key, later callers with the same key wait for
// that result instead of recomputing. A thundering herd on one hot query
// therefore costs one Monte Carlo estimate, not N. (Same contract as
// golang.org/x/sync/singleflight, reimplemented here because the module
// is dependency-free.)
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	wg      sync.WaitGroup
	val     V
	err     error
	waiters int // callers sharing this flight (guarded by flightGroup.mu)
}

// Do runs fn once per concurrent set of callers sharing key. It returns
// fn's result and whether this caller shared another caller's execution.
func (g *flightGroup[V]) Do(key string, fn func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The flight must land (map cleanup + wg.Done) even if fn panics:
	// otherwise every later caller for this key would block forever on a
	// dead flight, each holding an admission slot until the whole query
	// path wedges. A panic is surfaced to all callers as an error.
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("server: computation for %q panicked: %v", key, r)
			}
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			c.wg.Done()
		}()
		c.val, c.err = fn()
	}()
	return c.val, false, c.err
}

// pendingWaiters reports how many callers are currently sharing key's
// in-flight computation (0 when no flight is up). Tests use it to
// assemble a herd deterministically before releasing a blocked flight.
func (g *flightGroup[V]) pendingWaiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}
