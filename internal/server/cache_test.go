package server

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"cloudwalker/internal/xrand"
)

func TestCacheRejectsBadConfig(t *testing.T) {
	if _, err := NewCache(0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewCache(8, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	// More shards than capacity: shard count is clamped, capacity holds.
	c, err := NewCache(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 3 {
		t.Fatalf("capacity = %d, want 3", c.Capacity())
	}
}

// cachedKeys lists the keys a cache holds without touching them (a Get
// would move them into the window).
func cachedKeys(c *Cache) []string {
	var keys []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.items {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	slices.Sort(keys)
	return keys
}

// TestCacheCostAwareOrder pins the eviction order on one shard of 4: a
// window of the 2 most recently used entries, and out of it the lowest
// clock + uses × cost goes first, its priority becoming the clock. Ties
// go oldest out of the window first.
func TestCacheCostAwareOrder(t *testing.T) {
	var c *Cache
	fresh := func() {
		var err error
		if c, err = NewCache(4, 1); err != nil {
			t.Fatal(err)
		}
	}
	put := func(key string, cost time.Duration) { c.Put(key, &answer{cost: cost}) }
	want := func(step string, keys ...string) {
		t.Helper()
		if got := cachedKeys(c); !slices.Equal(got, keys) {
			t.Fatalf("%s: cache holds %v, want %v", step, got, keys)
		}
	}

	// The window keeps a just-put or just-hit entry, however cheap.
	fresh()
	for _, k := range []string{"a", "b", "c", "d"} {
		put(k, 100)
	}
	put("x", 0) // evicts a (clock 100)
	put("y", 100)
	put("z", 100)
	put("w", 100) // x left the window at 200 after d did
	want("just put", "w", "x", "y", "z")
	c.Get("x")
	put("u", 100)
	put("v", 100) // x left the window again at 300
	want("just hit", "u", "v", "w", "x")
	put("s", 100)
	want("out of the window, cost 0", "s", "u", "v", "w")

	// Out of the window, the lowest priority goes, not the oldest.
	fresh()
	put("a", 10)
	put("b", 1)
	put("c", 4)
	put("d", 4) // out: a at 10, b at 1
	put("e", 1)
	want("lowest priority first", "a", "c", "d", "e")

	// Uses multiply cost: b, costing 4 but used 3 times, outlives a.
	fresh()
	put("a", 10)
	put("b", 4)
	c.Get("b")
	c.Get("b")
	put("x", 0)
	put("y", 0) // out: a at 10, b at 3×4
	put("z", 0)
	want("uses multiply cost", "b", "x", "y", "z")

	// The clock lets a newer entry outlive an older, costlier one: e
	// leaves the window after the clock reached 6, at 6+5 > a's 10.
	fresh()
	put("a", 10)
	put("b", 6)
	put("c", 0)
	put("d", 0)
	put("e", 5) // evicts b: clock 6
	put("f", 0)
	put("g", 0) // out: a at 10, e at 11
	put("h", 0)
	want("the clock ages a", "e", "f", "g", "h")
	if st := c.Stats(); st.Evictions != 4 || st.Len != 4 {
		t.Fatalf("stats = %+v, want 4 evictions, 4 held", st)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c, err := NewCache(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: nothing evicted
	if st := c.Stats(); st.Evictions != 0 || st.Len != 2 {
		t.Fatalf("stats after refresh = %+v", st)
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("a = %v (%v), want 10", v, ok)
	}
	c.Put("c", 3) // now b (oldest) goes
	if _, ok := c.Get("b"); ok {
		t.Fatal("refresh did not promote a; b should have been evicted last")
	}
}

// TestCacheConcurrentProperty hammers one cache from parallel readers and
// writers (run under -race) and then checks the invariants that must hold
// regardless of interleaving: every shard's window and heap are intact,
// the hit/miss counters account for exactly the Gets performed, and no
// value ever surfaces under the wrong key.
func TestCacheConcurrentProperty(t *testing.T) {
	const (
		workers = 8
		ops     = 5000
		keys    = 512
	)
	c, err := NewCache(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	gets := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := xrand.NewStream(42, uint64(w))
			for i := 0; i < ops; i++ {
				k := src.Intn(keys)
				key := fmt.Sprintf("k%d", k)
				if src.Intn(2) == 0 {
					c.Put(key, &answer{score: float64(k), cost: time.Duration(k % 7)})
					continue
				}
				gets[w]++
				if v, ok := c.Get(key); ok && v.(*answer).score != float64(k) {
					t.Errorf("key %s returned value %v", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkCacheStructure(t, c)
	st := c.Stats()
	if got := c.Len(); got != st.Len {
		t.Fatalf("Len()=%d disagrees with stats len %d after quiescence", got, st.Len)
	}
	var wantGets uint64
	for _, g := range gets {
		wantGets += g
	}
	if st.Hits+st.Misses != wantGets {
		t.Fatalf("hits %d + misses %d != %d gets performed", st.Hits, st.Misses, wantGets)
	}
	// Every surviving entry must still carry its own key's value.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		if v, ok := c.Get(key); ok && v.(*answer).score != float64(k) {
			t.Fatalf("key %s holds %v after the run", key, v)
		}
	}
	checkCacheStructure(t, c)
}

// checkCacheStructure checks a quiescent cache's bookkeeping: every item
// sits in exactly one of its shard's window and heap, the window's links
// agree both ways and hold at most half the shard, each heap index
// matches its slot and no child outranks its parent, and Len() is within
// Capacity().
func checkCacheStructure(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		seen := map[*cacheItem]bool{}
		n := 0
		for it := s.win.next; it != &s.win; it = it.next {
			if it.next.prev != it || it.idx != -1 || seen[it] || n > len(s.items) {
				s.mu.Unlock()
				t.Fatalf("shard %d: window corrupt at %q", i, it.key)
			}
			seen[it] = true
			n++
		}
		if n != s.winLen || n > s.capacity/2 {
			s.mu.Unlock()
			t.Fatalf("shard %d: window holds %d (winLen %d) of capacity %d", i, n, s.winLen, s.capacity)
		}
		for slot, it := range s.out {
			if it.idx != slot || seen[it] || (slot > 0 && s.out.Less(slot, (slot-1)/2)) {
				s.mu.Unlock()
				t.Fatalf("shard %d: heap slot %d holds %q at idx %d", i, slot, it.key, it.idx)
			}
			seen[it] = true
		}
		ok := len(seen) == len(s.items)
		for key, it := range s.items {
			ok = ok && seen[it] && it.key == key
		}
		s.mu.Unlock()
		if !ok {
			t.Fatalf("shard %d: %d items, %d in window or heap", i, len(s.items), len(seen))
		}
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

// TestCacheShardedCapacity checks the per-shard capacity split: total
// stored entries never exceed the effective capacity even when inserts
// concentrate wherever the hash sends them.
func TestCacheShardedCapacity(t *testing.T) {
	c, err := NewCache(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*64; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	st := c.Stats()
	// inserts == survivors + evictions (no refreshes occurred).
	if uint64(st.Len)+st.Evictions != 640 {
		t.Fatalf("len %d + evictions %d != 640 inserts", st.Len, st.Evictions)
	}
}

// zipfKeyStream is the production mix's key stream: request idx draws a
// rank from Zipf(1.0) over 32 768 keys, and the rank fixes the kind by
// rank mod 20 — 14 pairs, 5 sources, 1 batch of 8 pairs, each pair its
// own entry. Recompute costs are synthetic and timing-free: 44% of
// queries start at a node with no in-links and cost 2 µs, other pairs
// 0.1–0.5 ms, other sources 0.5–5 ms (log-uniform).
type zipfKeyStream struct {
	cdf  []float64
	keys [][]keyCost // by rank
}

type keyCost struct {
	key  string
	cost time.Duration
}

func newZipfKeyStream() zipfKeyStream {
	z := zipfKeyStream{cdf: make([]float64, 32768), keys: make([][]keyCost, 32768)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	for rank := range z.cdf {
		z.cdf[rank] /= sum
		entry := func(kind string, sub int) keyCost {
			src := xrand.NewStream(0x636f7374, uint64(rank)<<3|uint64(sub)) // "cost"
			cost := 2 * time.Microsecond
			if src.Float64() >= 0.44 {
				if kind == "s" {
					cost = time.Duration(500e3 * math.Pow(10, src.Float64()))
				} else {
					cost = time.Duration(100e3 + 400e3*src.Float64())
				}
			}
			return keyCost{fmt.Sprintf("%s/%d/%d", kind, rank, sub), cost}
		}
		switch pos := rank % 20; {
		case pos < 14:
			z.keys[rank] = []keyCost{entry("p", 0)}
		case pos < 19:
			z.keys[rank] = []keyCost{entry("s", 0)}
		default:
			for b := 0; b < 8; b++ {
				z.keys[rank] = append(z.keys[rank], entry("p", b))
			}
		}
	}
	return z
}

func (z zipfKeyStream) request(seed uint64, idx int) []keyCost {
	rank, _ := slices.BinarySearch(z.cdf, xrand.NewStream(seed, uint64(idx)).Float64())
	return z.keys[min(rank, len(z.keys)-1)]
}

// lruModel is the policy the cache replaced: one LRU list per shard,
// sharded as the cache it is compared with.
type lruModel struct {
	c      *Cache
	shards []lruShard
}

type lruShard struct {
	ll    list.List
	items map[string]*list.Element
}

func (m *lruModel) lookup(key string) bool {
	s := &m.shards[maphash.String(m.c.seed, key)%uint64(len(m.shards))]
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		return true
	}
	if s.ll.Len() >= m.c.shards[0].capacity {
		delete(s.items, s.ll.Remove(s.ll.Back()).(string))
	}
	s.items[key] = s.ll.PushFront(key)
	return false
}

// TestCacheZipfStream replays the production mix through serving-default
// caches and the LRU they replaced, after a 6 000-request warm-up. The
// cost-aware caches must keep LRU's hit ratio within 0.02 while
// recomputing at most 0.85× LRU's cost, and the 95th percentile of a
// request's recompute cost (its misses' costs summed) must fall to 0.8×
// LRU's: misses of the costly entries are the tail. Shard assignment is
// seeded at random per cache, so the ratios are pooled over 4 caches.
// And, as the benchmark's traced run needs, after 6 000 + 1 000 requests
// the first 200 of those 1 000 must all hit again.
func TestCacheZipfStream(t *testing.T) {
	z := newZipfKeyStream()
	const warm, measured = 6000, 20000
	var lookups, hits, lruHits int
	var cost, lruCost time.Duration
	var reqCost, lruReqCost []time.Duration
	for range 4 {
		c, err := NewCache(DefaultCacheSize, DefaultCacheShards)
		if err != nil {
			t.Fatal(err)
		}
		lru := &lruModel{c: c, shards: make([]lruShard, len(c.shards))}
		for i := range lru.shards {
			lru.shards[i].items = map[string]*list.Element{}
		}
		for idx := 0; idx < warm+measured; idx++ {
			var rc, lc time.Duration
			for _, kc := range z.request(1, idx) {
				_, hit := c.Get(kc.key)
				if !hit {
					c.Put(kc.key, &answer{cost: kc.cost})
					rc += kc.cost
				}
				lruHit := lru.lookup(kc.key)
				if !lruHit {
					lc += kc.cost
				}
				if idx >= warm {
					lookups++
					hits += btoi(hit)
					lruHits += btoi(lruHit)
				}
			}
			if idx >= warm {
				cost, lruCost = cost+rc, lruCost+lc
				reqCost, lruReqCost = append(reqCost, rc), append(lruReqCost, lc)
			}
		}
	}
	ratio, lruRatio := float64(hits)/float64(lookups), float64(lruHits)/float64(lookups)
	slices.Sort(reqCost)
	slices.Sort(lruReqCost)
	p95, lruP95 := reqCost[len(reqCost)*95/100], lruReqCost[len(lruReqCost)*95/100]
	t.Logf("hit ratio %.3f (LRU %.3f), recompute %v (LRU %v), request p95 %v (LRU %v)", ratio, lruRatio, cost, lruCost, p95, lruP95)
	if math.Abs(ratio-lruRatio) > 0.02 {
		t.Errorf("hit ratio %.3f, LRU's %.3f: more than 0.02 apart", ratio, lruRatio)
	}
	if float64(cost) > 0.85*float64(lruCost) {
		t.Errorf("recompute cost %v is more than 0.85× LRU's %v", cost, lruCost)
	}
	if float64(p95) > 0.8*float64(lruP95) {
		t.Errorf("request p95 recompute cost %v is more than 0.8× LRU's %v", p95, lruP95)
	}

	for seed := uint64(1); seed <= 20; seed++ {
		c, err := NewCache(DefaultCacheSize, DefaultCacheShards)
		if err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < warm+1000; idx++ {
			for _, kc := range z.request(seed, idx) {
				if _, hit := c.Get(kc.key); !hit {
					c.Put(kc.key, &answer{cost: kc.cost})
				}
			}
		}
		for idx := warm; idx < warm+200; idx++ {
			for _, kc := range z.request(seed, idx) {
				if _, hit := c.Get(kc.key); !hit {
					t.Fatalf("seed %d: request %d's %s missed when re-issued", seed, idx, kc.key)
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
