package xmlstore

import (
	"sync"
	"sync/atomic"

	"netmark/internal/ordbms"
)

// This file implements the decoded-node cache: a sharded, byte-capped
// cache of decoded XML-table rows, keyed by physical RowID.  The §2.1.4
// traversal kernel revisits the same rows constantly — every hit in a
// section walks the same parent/sibling chain, every section re-reads the
// heading's neighbours — and without the cache each revisit pays a table
// lock, a page latch, and a full record decode.  With it, a hop on a warm
// path is one shard read-lock map probe plus an atomic touch.
//
// Replacement is CLOCK (second chance), not strict LRU: a hit only sets
// an atomic used flag under the shard's read lock, so concurrent queries
// hammering the same hot rows never serialise on a mutex the way
// an LRU list's MoveToFront would force them to.  Eviction sweeps the
// shard map, reprieving used entries once and dropping the rest until
// the shard fits its cap.
//
// Coherence: XML rows are written once, with their final bytes, and never
// change until their document is deleted; the delete calls invalidate()
// for every RowID after its row is gone, so a slot the heap hands to a
// later ingest starts with no entry and can only be filled from the new
// row.  Fills racing an invalidation are handled with a fill token:
// beginFill snapshots the shard's invalidation generation before the heap
// fetch, and completeFill drops the fill if any invalidation hit the
// shard in between — a stale decode can never be published over a newer
// invalidation.
//
// Cached *Node values are shared across goroutines and MUST be treated as
// read-only, like cached query results.

const nodeCacheShardCount = 32

// nodeCacheEntry boxes one cached node with its byte charge and CLOCK
// reference flag.
type nodeCacheEntry struct {
	node *Node
	size int64
	used atomic.Bool
}

type nodeCacheShard struct {
	// mu is held for map probes only; never across I/O or decode.
	// netmarkvet:hot
	mu  sync.RWMutex
	gen uint64 // guarded by mu; bumped by every invalidation landing in this shard
	// netmarkvet:gen gen
	m     map[ordbms.RowID]*nodeCacheEntry // guarded by mu
	bytes int64                            // guarded by mu
}

// nodeCache is the sharded cache.  Shards keep lock hold times tiny and
// let concurrent queries touching different pages proceed in parallel.
type nodeCache struct {
	capPerShard int64
	shards      [nodeCacheShardCount]nodeCacheShard

	hits, misses, evictions atomic.Uint64
}

// NodeCacheStats is a snapshot of the decoded-node cache counters.
type NodeCacheStats struct {
	Hits      uint64 // lookups served from a cached decode
	Misses    uint64 // lookups that fetched and decoded the row
	Evictions uint64 // entries dropped to fit the byte cap
	Entries   int    // live entries
	Bytes     int64  // estimated bytes held
	Capacity  int64  // configured byte cap
}

func newNodeCache(capacity int64) *nodeCache {
	per := capacity / nodeCacheShardCount
	if per < 1 {
		per = 1
	}
	c := &nodeCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[ordbms.RowID]*nodeCacheEntry)
	}
	return c
}

func (c *nodeCache) shard(rid ordbms.RowID) *nodeCacheShard {
	// Fibonacci hashing over the packed rid spreads sequential pages
	// across shards.
	h := rid.Uint64() * 0x9E3779B97F4A7C15
	return &c.shards[h>>(64-5)]
}

// get probes the shard map for a decoded node: the warm traversal hop,
// two atomic counters and a map read.
//
// netmarkvet:hotpath
func (c *nodeCache) get(rid ordbms.RowID) (*Node, bool) {
	s := c.shard(rid)
	s.mu.RLock()
	e := s.m[rid]
	s.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(true)
	c.hits.Add(1)
	return e.node, true
}

// beginFill snapshots the shard invalidation generation before the caller
// fetches and decodes the row.
func (c *nodeCache) beginFill(rid ordbms.RowID) uint64 {
	s := c.shard(rid)
	s.mu.RLock()
	g := s.gen
	s.mu.RUnlock()
	return g
}

// completeFill publishes a decoded node unless an invalidation hit the
// shard since beginFill — in that race the decode may predate the
// mutation, so it is dropped rather than published.
//
// netmarkvet:ignore genbump — a fill publishes a decode the gen token
// already fenced; it is not a logical mutation, so it must NOT bump gen
// (a bump here would invalidate concurrent fills forever).
func (c *nodeCache) completeFill(rid ordbms.RowID, n *Node, token uint64) {
	size := nodeFootprint(n)
	if size > c.capPerShard {
		return
	}
	s := c.shard(rid)
	s.mu.Lock()
	if s.gen != token {
		s.mu.Unlock()
		return
	}
	if _, ok := s.m[rid]; ok { // lost a fill race: keep the incumbent
		s.mu.Unlock()
		return
	}
	s.m[rid] = &nodeCacheEntry{node: n, size: size}
	s.bytes += size
	var evicted uint64
	if s.bytes > c.capPerShard {
		evicted = s.evictLocked(c.capPerShard)
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// evictLocked is the CLOCK sweep: entries touched since the last sweep
// get a second chance (flag cleared), untouched entries are dropped,
// until the shard fits cap.  Map iteration order serves as the clock
// hand; a second pass catches the case where every entry had its flag
// set.  Caller holds s.mu.
func (s *nodeCacheShard) evictLocked(cap int64) uint64 {
	var evicted uint64
	for pass := 0; pass < 2 && s.bytes > cap; pass++ {
		for rid, e := range s.m {
			if s.bytes <= cap {
				break
			}
			if pass == 0 && e.used.Swap(false) {
				continue // second chance
			}
			delete(s.m, rid)
			s.bytes -= e.size
			evicted++
		}
	}
	return evicted
}

// invalidate drops rid and fences concurrent fills of the shard.
func (c *nodeCache) invalidate(rid ordbms.RowID) {
	s := c.shard(rid)
	s.mu.Lock()
	s.gen++
	if e, ok := s.m[rid]; ok {
		delete(s.m, rid)
		s.bytes -= e.size
	}
	s.mu.Unlock()
}

func (c *nodeCache) stats() NodeCacheStats {
	st := NodeCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.capPerShard * nodeCacheShardCount,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.RUnlock()
	}
	return st
}

// nodeFootprint estimates a decoded node's resident bytes: string
// payloads plus a fixed overhead for the struct and map slot.
func nodeFootprint(n *Node) int64 {
	size := int64(len(n.Name)+len(n.Data)) + 160
	for _, a := range n.Attrs {
		size += int64(len(a.Name)+len(a.Value)) + 32
	}
	return size
}
