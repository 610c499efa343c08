package ordbms

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
)

// BufferPool caches pages in memory with LRU replacement.  Pages are
// pinned while in use; unpinned dirty pages are written on eviction.  The
// pool knows nothing of the log: a page it writes lands in an extent no
// committed page map names, so nothing reads it after a crash until a
// checkpoint commits a map that does, and that commit writes the log out
// first (see DB.saveCatalogLocked).
type BufferPool struct {
	// mu is deliberately not marked hot — eviction legitimately
	// flushes a dirty page to disk while holding it.
	mu       sync.Mutex
	disk     DiskManager
	capacity int
	frames   map[uint32]*Frame // guarded by mu
	lru      *list.List        // guarded by mu; front = most recently used; holds *Frame

	// onIOFault, when set, hears of every device fault the pool meets
	// while writing for whichever caller needed a page: an eviction's
	// write-back or the data file's extension.  A read that has to evict
	// fails the same way a write does, so the DB degrades here, where the
	// write happens, not in its callers.  Set before the pool is shared.
	onIOFault func(err error)

	// Stats
	hits, misses, evictions uint64 // guarded by mu
}

// Frame is a buffer-pool slot holding one page.
type Frame struct {
	PageNo uint32
	Page   *Page
	pins   int
	// dirty marks a page changed since it was last written.  A writer sets
	// it in the write-latch hold that changes the page; FlushAll reads and
	// clears it under the read latch, holding a pin, and eviction reads it
	// under mu, of a frame nobody pins.
	dirty bool
	lruEl *list.Element

	// loading is non-nil while the fetch that missed is still reading the
	// page in; it is closed once the read has landed in Page or failed
	// into loadErr.  Set and cleared under the pool lock.
	loading chan struct{}
	loadErr error // written before loading is closed, read after

	// Latch serialises access to the page contents.
	Latch sync.RWMutex
}

// NewBufferPool creates a pool caching up to capacity pages.  Its frame
// map grows with the pages it holds: sized for the cap up front, it
// would cost an open some 16 allocations and 145 KB at the default 4 096
// pages, however few pages the store has.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[uint32]*Frame),
		lru:      list.New(),
	}
}

// Stats returns (hits, misses, evictions) counters.
func (bp *BufferPool) Stats() (hits, misses, evictions uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses, bp.evictions
}

// NewPage allocates a fresh page on disk, pins it and returns its frame.
func (bp *BufferPool) NewPage() (*Frame, error) {
	no, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, bp.noteIOFault(err)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.ensureRoomLocked(); err != nil {
		return nil, err
	}
	f := &Frame{PageNo: no, Page: NewPage(), pins: 1, dirty: true}
	f.lruEl = bp.lru.PushFront(f)
	bp.frames[no] = f
	return f, nil
}

// Fetch pins the given page, reading it from disk if needed.  A fetch
// that finds the frame of a read still in flight waits for it, so no
// caller is handed a page before its bytes are there.
func (bp *BufferPool) Fetch(no uint32) (*Frame, error) {
	bp.mu.Lock()
	if f, ok := bp.frames[no]; ok {
		f.pins++
		bp.lru.MoveToFront(f.lruEl)
		bp.hits++
		loading := f.loading
		bp.mu.Unlock()
		if loading != nil {
			<-loading
			if f.loadErr != nil {
				bp.Unpin(f)
				return nil, f.loadErr
			}
		}
		return f, nil
	}
	bp.misses++
	if err := bp.ensureRoomLocked(); err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	// Miss path: the frame and page backing a newly resident page are
	// the point of the fetch.
	f := &Frame{PageNo: no, Page: NewPage(), pins: 1, loading: make(chan struct{})}
	f.lruEl = bp.lru.PushFront(f)
	bp.frames[no] = f
	bp.mu.Unlock()

	// Read outside the pool lock; the frame is pinned so it cannot be
	// evicted, and concurrent fetchers of the page wait on f.loading.
	err := bp.disk.ReadPage(no, f.Page.Data())
	bp.mu.Lock()
	if err != nil {
		f.pins--
		delete(bp.frames, no)
		bp.lru.Remove(f.lruEl)
		f.loadErr = err
	}
	close(f.loading)
	f.loading = nil
	bp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Unpin releases a pin.  A caller that changed the page marked it dirty
// while it held the write latch.
func (bp *BufferPool) Unpin(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins > 0 {
		f.pins--
	}
}

// ensureRoomLocked evicts the least recently used unpinned frame when the
// pool is at capacity.  Caller holds bp.mu.
func (bp *BufferPool) ensureRoomLocked() error {
	for len(bp.frames) >= bp.capacity {
		victim := bp.findVictimLocked()
		if victim == nil {
			return fmt.Errorf("ordbms: buffer pool exhausted (%d pages all pinned)", bp.capacity)
		}
		if victim.dirty {
			if err := bp.disk.WritePage(victim.PageNo, victim.Page.Data()); err != nil {
				return bp.noteIOFault(err)
			}
		}
		delete(bp.frames, victim.PageNo)
		bp.lru.Remove(victim.lruEl)
		bp.evictions++
	}
	return nil
}

// noteIOFault tells onIOFault of err when the device caused it, then
// passes err through.
func (bp *BufferPool) noteIOFault(err error) error {
	if bp.onIOFault != nil && IsIOFault(err) {
		bp.onIOFault(err)
	}
	return err
}

func (bp *BufferPool) findVictimLocked() *Frame {
	for el := bp.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*Frame)
		if f.pins == 0 {
			return f
		}
	}
	return nil
}

// FlushAll writes every dirty page to disk (a checkpoint helper), in page
// order, so the same pages make the same data file.  It pins each frame
// while it writes it, one at a time, so eviction leaves the frame alone
// and a full pool still has its other frames to evict.  A frame evicted
// before its turn was written by the eviction.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	pages := make([]uint32, 0, len(bp.frames))
	for no := range bp.frames {
		pages = append(pages, no)
	}
	bp.mu.Unlock()
	slices.Sort(pages)

	for _, no := range pages {
		bp.mu.Lock()
		f, ok := bp.frames[no]
		if ok {
			f.pins++
		}
		bp.mu.Unlock()
		if !ok {
			continue
		}
		err := bp.flushFrame(f)
		bp.Unpin(f)
		if err != nil {
			return err
		}
	}
	return bp.disk.Sync()
}

// dirtyPages returns, in page order, the pages FlushAll would write now.
// It reads each frame's mark as FlushAll does, pinned and under its read
// latch.
func (bp *BufferPool) dirtyPages() []uint32 {
	bp.mu.Lock()
	frames := make([]*Frame, 0, len(bp.frames))
	for _, f := range bp.frames {
		if f.loading == nil {
			f.pins++
			frames = append(frames, f)
		}
	}
	bp.mu.Unlock()
	var pages []uint32
	for _, f := range frames {
		f.Latch.RLock()
		if f.dirty {
			pages = append(pages, f.PageNo)
		}
		f.Latch.RUnlock()
		bp.Unpin(f)
	}
	slices.Sort(pages)
	return pages
}

// flushFrame writes f's page if it is dirty.  The caller pins f.
func (bp *BufferPool) flushFrame(f *Frame) error {
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	if !f.dirty {
		return nil
	}
	if err := bp.disk.WritePage(f.PageNo, f.Page.Data()); err != nil {
		return err
	}
	f.dirty = false
	return nil
}
