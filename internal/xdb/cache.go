package xdb

import (
	"container/list"
	"fmt"
	"sync"

	"netmark/internal/sgml"
)

// This file implements the invalidation-aware LRU query result cache.
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
// key simultaneously, one executes and the other N-1 wait for its result
// (singleflight), so a hot query going cold — or being invalidated under
// load — costs one execution, not a thundering herd.

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	Hits      uint64 // lookups served from a cached entry
	Misses    uint64 // lookups that executed the query
	Coalesced uint64 // lookups that waited on another goroutine's execution
	Evictions uint64 // entries dropped to fit the byte cap
	Entries   int    // live entries
	Bytes     int64  // estimated bytes held
	Capacity  int64  // configured byte cap
}

type cacheEntry struct {
	key  string
	res  *Result
	size int64

	// rendered memoises the serialized XML response body, built on the
	// first HTTP serve of this entry: repeated hot queries cost a byte
	// copy, not a re-serialization of the whole result set.
	renderOnce sync.Once
	rendered   []byte
}

// flightCall tracks one in-flight execution that later arrivals join.
type flightCall struct {
	wg    sync.WaitGroup
	res   *Result
	entry *cacheEntry // nil when the result was not cacheable
	err   error
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

// fetch returns the cached result for key, joins an in-flight execution
// of the same key, or runs fn itself and caches its result if fn says it
// may be kept.  The returned *Result is shared across callers and must be
// treated as read-only; the *cacheEntry is nil when the result was not
// cached (not to be kept, or oversized).
func (c *resultCache) fetch(key string, fn func() (res *Result, keep bool, err error)) (*Result, *cacheEntry, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return e.res, e, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		fc.wg.Wait()
		return fc.res, fc.entry, fc.err
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
		fc.res, keep, fc.err = fn()
	}()
	return fc.res, fc.entry, fc.err
}

func (c *resultCache) releaseFlight(key string, fc *flightCall, keep bool) {
	c.mu.Lock()
	delete(c.flight, key)
	if keep {
		fc.entry = c.insertLocked(key, fc.res)
	}
	c.mu.Unlock()
	fc.wg.Done()
}

// insertLocked adds an entry and evicts from the cold end until the cache
// fits its byte cap.  Results bigger than the whole cap are not cached.
func (c *resultCache) insertLocked(key string, res *Result) *cacheEntry {
	size := int64(len(key)) + resultSize(res)
	if size > c.capacity {
		return nil
	}
	if el, ok := c.entries[key]; ok { // lost a race with an equal key
		c.bytes -= el.Value.(*cacheEntry).size
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &cacheEntry{key: key, res: res, size: size}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += size
	c.evictLocked()
	return e
}

func (c *resultCache) evictLocked() {
	for c.bytes > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// renderedXML returns the entry's memoized response body, building it on
// first use and charging its bytes against the cache cap.
func (c *resultCache) renderedXML(e *cacheEntry, render func(*Result) []byte) []byte {
	e.renderOnce.Do(func() {
		e.rendered = render(e.res)
		c.mu.Lock()
		// Charge the rendering only while the entry is still resident
		// (it may have been evicted between fetch and render).
		if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
			add := int64(len(e.rendered))
			e.size += add
			c.bytes += add
			c.evictLocked()
		}
		c.mu.Unlock()
	})
	return e.rendered
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

// resultSize estimates a result's resident footprint: string payloads plus
// a fixed per-item overhead for headers and slice bookkeeping.
func resultSize(r *Result) int64 {
	const itemOverhead = 96
	n := int64(128)
	for i := range r.Sections {
		s := &r.Sections[i]
		n += int64(len(s.DocName)+len(s.DocTitle)+len(s.Context)+len(s.Content)) + itemOverhead
	}
	for _, d := range r.Docs {
		n += int64(len(d.FileName)+len(d.Title)+len(d.Format)) + itemOverhead
	}
	if r.Transformed != nil {
		n += nodeSize(r.Transformed)
	}
	return n
}

func nodeSize(n *sgml.Node) int64 {
	size := int64(len(n.Name)+len(n.Data)) + 96
	for _, a := range n.Attrs {
		size += int64(len(a.Name)+len(a.Value)) + 32
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		size += nodeSize(c)
	}
	return size
}
