package server

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU result cache. Sharding keeps lock contention off
// the serving hot path: each key hashes to one shard, so N cores hitting
// N different hot queries rarely touch the same mutex. Entries are whole
// query results (a float64 score or a frozen top-k list), so a hit skips
// the Monte Carlo estimate entirely.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	evictions uint64 // guarded by mu
}

type cacheEntry struct {
	key string
	val any
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
		c.shards[i] = cacheShard{
			capacity: perShard,
			ll:       list.New(),
			items:    make(map[string]*list.Element, perShard),
		}
	}
	return c, nil
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the cached value for key and whether it was present,
// promoting the entry to most-recently-used.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var val any
	if ok {
		s.ll.MoveToFront(el)
		val = el.Value.(*cacheEntry).val // read under mu: Put refreshes in place
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts or refreshes key, evicting the least-recently-used entry of
// its shard when the shard is full.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	s.mu.Unlock()
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.ll.Len()
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
		st.Len += s.ll.Len()
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
