package xdb

import (
	"container/list"
	"fmt"
	"sync"
)

// This file implements the invalidation-aware LRU query result cache.
// An entry is a key and the response body ExecuteInto writes for it, and
// nothing else: a hit costs a byte copy, and the cap bounds exactly the
// bytes held, len(key)+cap(body) per entry, where compute makes cap(body)
// equal len(body).  (The allocator's size-class rounding is not counted.)
//
// Entries are keyed by (store fingerprint, canonical query encoding) —
// see Engine.cacheKey — where the fingerprint folds the text index's
// generations of the query's words, or the store's generation when the
// query is not made of words: a mutation bumps only the generations of
// the words it posts or removes, so it makes stale keys unreachable for
// the queries it could affect and leaves everything else cached —
// invalidation costs a few counter bumps, never a scan.  The key is the
// only staleness test: the cache itself compares strings and knows
// nothing about the store.  Stale keys age out of the LRU like any cold
// entry.
//
// Duplicate in-flight queries collapse: when N goroutines miss on the same
// key simultaneously, one executes and the other N-1 wait for its body
// (singleflight), so a hot query going cold — or being invalidated under
// load — costs one execution, not a thundering herd.

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	Hits      uint64 // lookups served from a cached entry
	Misses    uint64 // lookups that executed the query
	Coalesced uint64 // lookups that waited on another goroutine's execution
	Evictions uint64 // entries dropped to fit the byte cap
	Entries   int    // live entries
	Bytes     int64  // bytes held: len(key)+cap(body) summed over entries
	Capacity  int64  // configured byte cap
}

type cacheEntry struct {
	key  string
	body []byte
}

// size charges the body's whole array, so spare capacity cannot hide
// from the cap.
func (e *cacheEntry) size() int64 { return int64(len(e.key) + cap(e.body)) }

// flightCall tracks one in-flight execution that later arrivals join.
type flightCall struct {
	wg   sync.WaitGroup
	body []byte
	err  error
}

type resultCache struct {
	capacity int64

	// mu is held for map/LRU bookkeeping only; query execution and
	// flight waits happen outside it.  netmarkvet:hot
	mu      sync.Mutex
	lru     *list.List               // guarded by mu; front = most recently used; values are *cacheEntry
	entries map[string]*list.Element // guarded by mu
	flight  map[string]*flightCall   // guarded by mu
	bytes   int64                    // guarded by mu

	hits, misses, coalesced, evictions uint64 // guarded by mu
}

func newResultCache(capacity int64) *resultCache {
	return &resultCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
}

// fetch returns the cached body for key, joins an in-flight execution of
// the same key, or runs fn itself and caches its body if fn says it may
// be kept.  Hits and coalesced waiters share one byte slice: treat it as
// read-only.
func (c *resultCache) fetch(key string, fn func() (body []byte, keep bool, err error)) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).body, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		fc.wg.Wait()
		return fc.body, fc.err
	}
	c.misses++
	fc := &flightCall{}
	fc.wg.Add(1)
	c.flight[key] = fc
	c.mu.Unlock()

	// Cleanup runs even if fn panics (net/http recovers handler panics):
	// the flight slot must be released and waiters unblocked, or every
	// future request for this key would hang in Wait forever.
	func() {
		keep := false
		defer func() {
			if r := recover(); r != nil {
				fc.err = fmt.Errorf("xdb: query execution panicked: %v", r)
				c.releaseFlight(key, fc, false)
				panic(r)
			}
			c.releaseFlight(key, fc, keep)
		}()
		fc.body, keep, fc.err = fn()
	}()
	return fc.body, fc.err
}

func (c *resultCache) releaseFlight(key string, fc *flightCall, keep bool) {
	c.mu.Lock()
	delete(c.flight, key)
	if keep {
		c.insertLocked(&cacheEntry{key: key, body: fc.body})
	}
	c.mu.Unlock()
	fc.wg.Done()
}

// insertLocked adds an entry and evicts from the cold end until the cache
// fits its byte cap.  Bodies bigger than the whole cap are not cached.
// Only a key's flight inserts it, and no flight starts while its entry is
// resident, so the key is never already present.
func (c *resultCache) insertLocked(e *cacheEntry) {
	if e.size() > c.capacity {
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.size()
	for c.bytes > c.capacity {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.size()
		c.evictions++
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
