package xmlstore

import (
	"sync"
	"sync/atomic"

	"netmark/internal/ordbms"
)

// This file implements the decoded-node cache: a byte-capped cache of
// page images, one per XML-table heap page.  The §2.1.4 traversal kernel
// revisits the same rows constantly — every hit in a section walks the
// same parent/sibling chain, every section re-reads the heading's
// neighbours — and the rows a walk visits sit on a few neighbouring
// pages.  So a miss decodes its whole page once, and the page's other
// rows are then hits.
//
// A page image is an immutable []Node indexed by slot; a zero RowID marks
// a slot that was dead when the page was decoded.  Images live in a
// directory indexed by page number and published through an atomic
// pointer, so a warm hop is an atomic load, an index and a slot index: no
// lock, no hash, no allocation.  Writers — publish, evict, invalidate —
// serialise on one mutex and store into the directory's entries, and grow
// it by publishing a copy.
//
// Replacement is CLOCK (second chance) over the resident images: a hop
// sets its image's used bit when it is clear, and the eviction hand walks
// the directory, reprieving a used image once and dropping the rest until
// the cache fits its cap.
//
// Coherence rests on four facts:
//   - Rows are immutable: an XML row is written once, with its final
//     bytes, and never changes until its document is deleted.
//   - Slots are never reused: a deleted row's slot stays dead, so an
//     image's live node can go stale only by being deleted.
//   - A row added later to a page (InsertRun fills free space) takes a
//     slot past every slot the page had, so a hop to a slot past its
//     image's slot count decodes the page again and replaces the image.
//   - The page latch fences fills: a fill decodes its page and publishes
//     the image in one hold of the page's read latch.  A delete takes the
//     write latch of each page it removes rows from, so a fill that decoded
//     the page before the delete has published before the delete changes
//     it, and DeleteDocument invalidates each page its run touched after
//     the rows are gone, dropping that image.
//
// Cached *Node values are shared across goroutines and MUST be treated as
// read-only, like the result cache's response bodies.

// DefaultNodeCacheBytes is the node cache's cap until EnableNodeCache
// sets another.
const DefaultNodeCacheBytes int64 = 32 << 20

// pageImage is one heap page decoded.  Only used changes after it is
// published.
type pageImage struct {
	nodes []Node // by slot; a zero RowID is a slot dead at decode
	live  int    // nodes with a row
	size  int64  // byte charge: nodeFootprint over the live nodes, a Node's size for each dead slot
	used  atomic.Bool
}

// pageDir maps a page number to its resident image, or nil.
type pageDir []atomic.Pointer[pageImage]

// nodeCache is the page-image cache.
type nodeCache struct {
	capacity int64
	dir      atomic.Pointer[pageDir] // replaced to grow, under mu

	// mu serialises every directory write; a hop never takes it.
	// netmarkvet:hot
	mu      sync.Mutex
	bytes   int64 // guarded by mu; the resident images' charge
	entries int   // guarded by mu; live nodes in the resident images
	hand    int   // guarded by mu; the CLOCK hand, a page number

	hits, misses, evictions atomic.Uint64
}

// NodeCacheStats is a snapshot of the decoded-node cache counters.
type NodeCacheStats struct {
	Hits      uint64 // hops served from a resident page image
	Misses    uint64 // hops that decoded their page
	Evictions uint64 // nodes dropped with their images to fit the byte cap
	Entries   int    // nodes held by the resident images
	Bytes     int64  // estimated bytes held
	Capacity  int64  // configured byte cap
}

func newNodeCache(capacity int64) *nodeCache {
	c := &nodeCache{capacity: capacity}
	c.dir.Store(&pageDir{})
	return c
}

// hop serves rid from its page's image.  It returns nil when the page has
// no image, or one decoded before rid's slot existed.
func (c *nodeCache) hop(rid ordbms.RowID) *Node {
	dir := *c.dir.Load()
	var img *pageImage
	if int(rid.Page) < len(dir) {
		img = dir[rid.Page].Load()
	}
	if img == nil || int(rid.Slot) >= len(img.nodes) {
		c.misses.Add(1)
		return nil
	}
	if !img.used.Load() {
		img.used.Store(true)
	}
	c.hits.Add(1)
	return &img.nodes[rid.Slot]
}

// publish installs img as page no's image unless the image outweighs the
// whole cache or the page already has an image that knows as many slots.
// The caller holds page no's read latch, under which img was decoded.
func (c *nodeCache) publish(no uint32, img *pageImage) {
	if img.size > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := *c.dir.Load()
	if int(no) >= len(dir) {
		grown := make(pageDir, max(2*len(dir), int(no)+1))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		c.dir.Store(&grown)
		dir = grown
	}
	if old := dir[no].Load(); old != nil {
		if len(old.nodes) >= len(img.nodes) {
			return // a racing fill got there first
		}
		c.bytes -= old.size
		c.entries -= old.live
	}
	img.used.Store(true)
	dir[no].Store(img)
	c.bytes += img.size
	c.entries += img.live
	c.evictLocked(dir)
}

// evictLocked is the CLOCK sweep: the hand walks the directory, an image
// used since the hand last passed it is reprieved once, and an unused one
// is dropped, until the cache fits its cap.  No image outweighs the cap,
// and after one whole turn none is reprieved, so the sweep ends however
// hard hops keep setting used bits.  Caller holds c.mu.
func (c *nodeCache) evictLocked(dir pageDir) {
	for step := 0; c.bytes > c.capacity; step++ {
		c.hand++
		if c.hand >= len(dir) {
			c.hand = 0
		}
		img := dir[c.hand].Load()
		if img == nil || (step < len(dir) && img.used.Swap(false)) {
			continue
		}
		dir[c.hand].Store(nil)
		c.bytes -= img.size
		c.entries -= img.live
		c.evictions.Add(uint64(img.live))
	}
}

// invalidate drops the images of the pages a delete has just removed rows
// from, in one hold of mu.
func (c *nodeCache) invalidate(pages []uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := *c.dir.Load()
	for _, no := range pages {
		if int(no) >= len(dir) {
			continue
		}
		if img := dir[no].Swap(nil); img != nil {
			c.bytes -= img.size
			c.entries -= img.live
		}
	}
}

func (c *nodeCache) stats() NodeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return NodeCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries,
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}

// nodeFootprint estimates a decoded node's resident bytes: string
// payloads plus a fixed overhead for the struct and its bookkeeping.
func nodeFootprint(n *Node) int64 {
	size := int64(len(n.Name)+len(n.Data)) + 160
	for _, a := range n.Attrs {
		size += int64(len(a.Name)+len(a.Value)) + 32
	}
	return size
}
