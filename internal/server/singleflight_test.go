package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupCoalesces blocks one computation while a herd piles onto
// its key: the function must run once and every caller must see its
// result, with all but the executor reporting shared.
func TestFlightGroupCoalesces(t *testing.T) {
	const herd = 16
	var g flightGroup[any]
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	vals := make([]any, herd)
	shared := make([]bool, herd)
	spawn := func(c int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, sh, err := g.Do("key", func() (any, error) {
				close(started)
				calls.Add(1)
				<-release
				return "result", nil
			})
			if err != nil {
				t.Errorf("client %d: %v", c, err)
			}
			vals[c], shared[c] = v, sh
		}()
	}
	// One executor first; once it is inside fn, the rest of the herd
	// joins and must pile onto the same in-flight call before release.
	spawn(0)
	<-started
	for c := 1; c < herd; c++ {
		spawn(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.pendingWaiters("key") < herd-1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: %d waiters", g.pendingWaiters("key"))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	executors := 0
	for c := 0; c < herd; c++ {
		if vals[c] != "result" {
			t.Fatalf("client %d got %v", c, vals[c])
		}
		if !shared[c] {
			executors++
		}
	}
	if executors != 1 {
		t.Fatalf("%d callers claim to have executed, want 1", executors)
	}
}

// TestFlightGroupKeysIndependent: different keys never coalesce, and a
// key computes again once its previous flight lands (errors propagate to
// the whole flight but are not cached).
func TestFlightGroupKeysIndependent(t *testing.T) {
	var g flightGroup[any]
	a, _, _ := g.Do("a", func() (any, error) { return 1, nil })
	b, _, _ := g.Do("b", func() (any, error) { return 2, nil })
	if a.(int) == b.(int) {
		t.Fatal("distinct keys shared a result")
	}
	if _, _, err := g.Do("a", func() (any, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
	v, _, err := g.Do("a", func() (any, error) { return 3, nil })
	if err != nil || v.(int) != 3 {
		t.Fatalf("key did not recompute after flight landed: %v, %v", v, err)
	}
}

// TestFlightGroupPanicSafe: a panicking fn must land the flight (so the
// key is reusable) and surface as an error to the executor — a wedged
// key would leak admission slots forever in the server.
func TestFlightGroupPanicSafe(t *testing.T) {
	var g flightGroup[any]
	_, _, err := g.Do("k", func() (any, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic surfaced as %v, want panicked error", err)
	}
	v, _, err := g.Do("k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("key unusable after panic: %v, %v", v, err)
	}
}
