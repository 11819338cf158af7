package server

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestCacheStatsZeroTraffic: a fresh cache must report a 0 hit rate, not
// NaN — /stats serializes HitRate straight to JSON, and NaN is not a
// JSON number (the encoder errors out and the endpoint would 500 on a
// daemon that simply hasn't served traffic yet).
func TestCacheStatsZeroTraffic(t *testing.T) {
	c, err := NewCache(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Len != 0 {
		t.Fatalf("fresh cache stats = %+v", st)
	}
	if math.IsNaN(st.HitRate) || st.HitRate != 0 {
		t.Fatalf("zero-traffic hit rate = %v, want 0", st.HitRate)
	}
	if st.Capacity != c.Capacity() {
		t.Fatalf("capacity = %d, want %d", st.Capacity, c.Capacity())
	}
}

// TestCacheStatsCounts pins the exact counter arithmetic on a single
// shard: hits, misses, evictions, and the derived hit rate.
func TestCacheStatsCounts(t *testing.T) {
	c, err := NewCache(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a: out of the window, at cost 0, oldest goes first

	for _, tc := range []struct {
		key string
		hit bool
	}{
		{"c", true}, {"b", true}, {"a", false}, {"zzz", false},
	} {
		if _, ok := c.Get(tc.key); ok != tc.hit {
			t.Fatalf("Get(%q) hit = %v, want %v", tc.key, ok, tc.hit)
		}
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 1 eviction", st)
	}
	if st.Len != 2 {
		t.Fatalf("len = %d, want 2", st.Len)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate)
	}
}

// TestCacheStatsConcurrent hammers Put/Get from many goroutines with
// Stats snapshots interleaved (the /stats and /metrics scrape path runs
// against live traffic). Under -race this pins the memory discipline;
// the final quiescent snapshot must account for every single Get.
func TestCacheStatsConcurrent(t *testing.T) {
	c, err := NewCache(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("k%d", (w*per+i)%100)
				if _, ok := c.Get(key); !ok {
					c.Put(key, i)
				}
				if i%50 == 0 {
					st := c.Stats() // advisory mid-traffic snapshot
					if st.Len > st.Capacity {
						t.Errorf("len %d exceeds capacity %d", st.Len, st.Capacity)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Misses; got != workers*per {
		t.Fatalf("hits+misses = %d, want %d (every Get accounted)", got, workers*per)
	}
	if st.Len > st.Capacity {
		t.Fatalf("final len %d exceeds capacity %d", st.Len, st.Capacity)
	}
}
