package server

import (
	"container/heap"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a sharded, cost-aware result cache. Sharding keeps lock
// contention off the serving hot path: each key hashes to one shard, so N
// cores hitting N different hot queries rarely touch the same mutex.
// Entries are whole query results (a float64 score or a frozen top-k
// list), so a hit skips the estimate entirely.
//
// Misses differ in cost by three orders of magnitude (a /source from a
// node with no in-links against a hub's series), so eviction weighs what
// an entry saves, GreedyDual-Size-Frequency style. Each shard keeps its
// most recently used half in LRU order: the window, which takes new
// entries and hits. An entry pushed out of the window gets the priority
// clock + uses × cost, where cost is what computing its *answer took (0
// for any other value); the lowest priority is evicted and becomes the
// shard's clock, so an entry not used again ages out however costly it
// was. With every cost 0 the policy is exactly LRU.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*cacheItem
	win      cacheItem // sentinel of the window's ring: next = most recent
	winLen   int
	out      gdsfHeap // entries out of the window, lowest priority first
	clock    float64  // priority of the last eviction
	seq      uint64   // demotions so far: equal priorities leave oldest first

	evictions uint64 // guarded by mu
}

type cacheItem struct {
	key        string
	val        any
	cost, uses float64
	prio       float64
	seq        uint64
	prev, next *cacheItem // window links
	idx        int        // slot in out, or -1 while in the window
}

// NewCache builds a cache with the given total capacity spread over
// shards. Shard counts are rounded up so every shard holds at least one
// entry; capacity is therefore a lower bound and never exceeded by more
// than the rounding slack (Capacity reports the effective value).
func NewCache(capacity, shards int) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("server: cache capacity %d must be positive", capacity)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("server: cache shard count %d must be positive", shards)
	}
	if shards > capacity {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	c := &Cache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].reset()
	}
	return c, nil
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the cached value for key and whether it was present,
// moving the entry to the front of its shard's window.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	it, ok := s.items[key]
	var val any
	if ok {
		it.uses++
		s.use(it)
		val = it.val // read under mu: Put refreshes in place
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts or refreshes key at the front of its shard's window. A full
// shard first evicts its lowest-priority entry out of the window.
func (c *Cache) Put(key string, val any) {
	var cost float64
	if a, ok := val.(*answer); ok {
		cost = float64(a.cost)
	}
	s := c.shard(key)
	s.mu.Lock()
	it, ok := s.items[key]
	if ok {
		it.val, it.cost = val, cost
	} else {
		if len(s.items) >= s.capacity { // the window holds at most half: out is not empty
			victim := heap.Pop(&s.out).(*cacheItem)
			s.clock = victim.prio
			delete(s.items, victim.key)
			s.evictions++
		}
		it = &cacheItem{key: key, val: val, cost: cost, uses: 1, idx: -1}
		s.items[key] = it
	}
	s.use(it)
	s.mu.Unlock()
}

// use moves it to the front of the window, from wherever it is, and
// pushes the window's oldest entry out when the window holds more than
// half the shard.
func (s *cacheShard) use(it *cacheItem) {
	if it.idx >= 0 {
		heap.Remove(&s.out, it.idx)
		it.idx = -1
	} else if it.prev != nil {
		s.unlink(it)
	}
	it.prev, it.next = &s.win, s.win.next
	it.next.prev, s.win.next = it, it
	s.winLen++
	if s.winLen > s.capacity/2 {
		old := s.win.prev
		s.unlink(old)
		old.prio, old.seq = s.clock+old.uses*old.cost, s.seq
		s.seq++
		heap.Push(&s.out, old)
	}
}

func (s *cacheShard) unlink(it *cacheItem) {
	it.prev.next, it.next.prev = it.next, it.prev
	s.winLen--
}

// reset empties the shard and restarts its clock; the counters stay.
func (s *cacheShard) reset() {
	s.items = make(map[string]*cacheItem, s.capacity)
	s.win.prev, s.win.next = &s.win, &s.win
	s.winLen, s.out, s.clock = 0, nil, 0
}

// clear empties every shard and keeps the counters. A hot swap calls it:
// keys carry their generation, so no request can name the old entries
// again, and a costly one would otherwise outlive cheap live ones.
func (c *Cache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

// gdsfHeap is a container/heap of the entries out of the window, ordered
// by (prio, seq); each entry keeps its slot in idx.
type gdsfHeap []*cacheItem

func (h gdsfHeap) Len() int { return len(h) }
func (h gdsfHeap) Less(a, b int) bool {
	return h[a].prio < h[b].prio || h[a].prio == h[b].prio && h[a].seq < h[b].seq
}
func (h gdsfHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx, h[b].idx = a, b
}
func (h *gdsfHeap) Push(x any) {
	it := x.(*cacheItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *gdsfHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return it
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total
}

// Capacity returns the effective total capacity (per-shard capacity times
// shard count; >= the requested capacity due to rounding).
func (c *Cache) Capacity() int {
	return len(c.shards) * c.shards[0].capacity
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats snapshots the cache counters. Hits and misses are read after the
// per-shard sweep, so under concurrent traffic the snapshot is advisory,
// not a linearizable cut.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Capacity: c.Capacity()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Len += len(s.items)
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
