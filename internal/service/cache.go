package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe LRU mapping canonical cache keys (see
// the key* helpers in service.go) to finished responses. Values are
// treated as immutable after insertion: readers receive the stored
// pointer and must not mutate it — the verdict tier (tier.go) copies
// the top-level struct before stamping per-request fields like Cached
// and ElapsedMS.
//
// Only definitive results belong in the cache. Timeouts are a property
// of the budget that produced them, not of the query, so the tier
// skips Put for them; a later request with a larger budget must get a
// fresh run.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns an LRU cache holding at most capacity entries.
// Capacity <= 0 disables caching (every Get misses, Put is a no-op),
// which keeps call sites branch-free.
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var val any
	if ok {
		c.ll.MoveToFront(el)
		// Read the value while still holding the lock: Put refreshes
		// entries in place, so the field is written under mu.
		val = el.Value.(*cacheEntry).val
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts or refreshes a value, evicting the least recently used
// entry on overflow.
func (c *Cache) Put(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Snapshot reports cache statistics.
func (c *Cache) Snapshot() CacheSnapshot {
	s := CacheSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
