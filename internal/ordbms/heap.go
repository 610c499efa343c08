package ordbms

import (
	"fmt"
	"sync"
)

// HeapFile is an unordered collection of records addressed by RowID.
// Each table owns one heap file.  Records larger than MaxRecordSize are
// rejected (the XML store keeps node payloads well under a page).
//
// The heap keeps an in-memory free-space map so inserts do not scan; the
// map is rebuilt when a store is reopened.
type HeapFile struct {
	// mu orders page-list growth and the free-space map.
	// netmarkvet:lockorder 30
	mu    sync.Mutex
	pool  *BufferPool
	wal   *WAL // may be nil for unlogged heaps
	tag   string
	pages []uint32 // guarded by mu
	// freeHint maps pageNo -> approximate free bytes, only for pages with
	// meaningful free space.  Guarded by mu.
	freeHint map[uint32]int
	rows     int64 // guarded by mu
}

// NewHeapFile creates an empty heap backed by the pool.
func NewHeapFile(pool *BufferPool, wal *WAL) *HeapFile {
	return &HeapFile{pool: pool, wal: wal, freeHint: make(map[uint32]int)}
}

// OpenHeapFile reattaches a heap to an existing page list (from the
// catalog) and rebuilds the free-space map and row count.
func OpenHeapFile(pool *BufferPool, wal *WAL, pages []uint32) (*HeapFile, error) {
	h := &HeapFile{pool: pool, wal: wal, pages: append([]uint32(nil), pages...), freeHint: make(map[uint32]int)}
	for _, no := range pages {
		f, err := pool.Fetch(no)
		if err != nil {
			return nil, err
		}
		f.Latch.RLock()
		free := f.Page.FreeSpace()
		live := 0
		f.Page.LiveRecords(func(int, []byte) bool { live++; return true })
		f.Latch.RUnlock()
		pool.Unpin(f, false)
		if free > 64 {
			h.freeHint[no] = free
		}
		h.rows += int64(live)
	}
	return h, nil
}

// OpenHeapFileWithMeta reattaches a heap using checkpointed metadata —
// row count and free-space map from the derived snapshot — instead of
// fetching and scanning every page.  Only valid when the snapshot's
// stamps prove the heap is byte-identical to checkpoint time (see
// loadDerivedSnapshot); it is what makes reopening O(1) in corpus size.
func OpenHeapFileWithMeta(pool *BufferPool, wal *WAL, pages []uint32, rows int64, free map[uint32]int) *HeapFile {
	h := &HeapFile{
		pool:     pool,
		wal:      wal,
		pages:    append([]uint32(nil), pages...),
		freeHint: make(map[uint32]int, len(free)),
		rows:     rows,
	}
	for p, f := range free {
		h.freeHint[p] = f
	}
	return h
}

// Meta snapshots the heap's derived metadata (live row count and
// free-space map) for the checkpoint's derived snapshot.
func (h *HeapFile) Meta() (rows int64, free map[uint32]int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	free = make(map[uint32]int, len(h.freeHint))
	for p, f := range h.freeHint {
		free[p] = f
	}
	return h.rows, free
}

// Pages returns the page numbers owned by this heap (for the catalog).
func (h *HeapFile) Pages() []uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint32(nil), h.pages...)
}

// Rows returns the live record count.
func (h *HeapFile) Rows() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rows
}

// Insert stores a record and returns its physical RowID.
func (h *HeapFile) Insert(rec []byte) (RowID, error) {
	rids, err := h.InsertRun([][]byte{rec}, nil)
	if err != nil {
		return ZeroRowID, err
	}
	return rids[0], nil
}

// runPage is one page a run insert has considered.  The frame stays
// pinned from then until the run is written and logged, so nothing
// between the first page write and the log append can fail.
type runPage struct {
	f     *Frame
	plan  pagePlan
	free0 int      // FreeSpace when the run first looked, to undo the hints
	rows  []runRow // what the run has placed here so far, in order
}

// runRow is one placed record of a run insert: the slot it was promised
// and the record whose bytes the caller may still be patching.
type runRow struct {
	slot uint16
	rec  []byte
}

// InsertRun stores a run of records in one pass and returns their
// physical RowIDs, in order.  It first places every record — free-hint
// pages, then the tail page, then a fresh page, which needs only the
// record sizes — then hands the RowIDs to link, which may patch bytes of
// the records in place (never their lengths): rows that point at each
// other by RowID are written once, already linked.  Only then do the
// pages take their rows, all under their write latches and one
// walInsertRun record, so no reader and no page flush ever sees a row
// before its final bytes are logged.  link runs under the heap lock and
// must not block or call back into the heap; nil means nothing to patch.
//
// A run is all or nothing, in memory and in the log.  Every page it
// touches stays pinned until the end, so all that can fail — a read, an
// eviction, a pool too small to hold the run's pages at once — fails
// during placement, before any row is written; and one log record with
// one checksum covers every page, so a log cut anywhere recovers all of
// the run's rows or none, never a row whose links point at rows that
// were lost.
func (h *HeapFile) InsertRun(recs [][]byte, link func(rids []RowID)) (rids []RowID, err error) {
	for _, rec := range recs {
		if len(rec) == 0 || len(rec) > MaxRecordSize {
			return nil, fmt.Errorf("ordbms: record of %d bytes, want 1 to %d (the page capacity)", len(rec), MaxRecordSize)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	// pages holds every page considered so far, in first-touch order; the
	// page a record lands on is nearly always the last one.
	var pages []*runPage
	written := false
	defer func() {
		for _, rp := range pages {
			if !written { // nothing was placed after all: the hints go back
				h.setHintLocked(rp.f.PageNo, rp.free0)
			}
			h.pool.Unpin(rp.f, written && len(rp.rows) > 0)
		}
		if !written {
			err = fmt.Errorf("ordbms: run insert of %d records wrote nothing (its pages stay pinned until it is logged): %w", len(recs), err)
		}
	}()
	consider := func(f *Frame) *runPage {
		f.Latch.RLock()
		rp := &runPage{f: f, plan: f.Page.plan()}
		f.Latch.RUnlock()
		rp.free0 = rp.plan.freeSpace()
		pages = append(pages, rp)
		return rp
	}
	// tryPlace reserves room for rec on page no and keeps the free-space
	// map in step.
	tryPlace := func(no uint32, rec []byte) (RowID, bool, error) {
		var rp *runPage
		for i := len(pages) - 1; i >= 0 && rp == nil; i-- {
			if pages[i].f.PageNo == no {
				rp = pages[i]
			}
		}
		if rp == nil {
			f, err := h.pool.Fetch(no)
			if err != nil {
				return ZeroRowID, false, err
			}
			rp = consider(f)
		}
		slot, ok := rp.plan.place(len(rec))
		if !ok {
			return ZeroRowID, false, nil
		}
		rp.rows = append(rp.rows, runRow{slot: uint16(slot), rec: rec})
		h.setHintLocked(no, rp.plan.freeSpace())
		return RowID{Page: no, Slot: uint16(slot)}, true, nil
	}

	rids = make([]RowID, len(recs))
place:
	for i, rec := range recs {
		// Try pages with known free space first, lowest page first: map
		// order is random, and the same inserts must land on the same
		// RowIDs (query results come back in RowID order).
		for {
			no, found := uint32(0), false
			for p, free := range h.freeHint {
				if free >= len(rec)+slotSize && (!found || p < no) {
					no, found = p, true
				}
			}
			if !found {
				break
			}
			rid, ok, err := tryPlace(no, rec)
			if err != nil {
				return nil, err
			}
			if ok {
				rids[i] = rid
				continue place
			}
			delete(h.freeHint, no) // hint was stale
		}
		// Try the last page (append locality).
		if n := len(h.pages); n > 0 {
			rid, ok, err := tryPlace(h.pages[n-1], rec)
			if err != nil {
				return nil, err
			}
			if ok {
				rids[i] = rid
				continue place
			}
		}
		// Allocate a fresh page.  Its adoption is logged here, ahead of the
		// run record that fills it: recovery re-attaches the page to this
		// heap even when the catalog predates the allocation (see walAlloc).
		f, err := h.pool.NewPage()
		if err != nil {
			return nil, err
		}
		h.pages = append(h.pages, f.PageNo)
		if h.wal != nil {
			h.wal.LogAlloc(h.tag, f.PageNo)
		}
		consider(f)
		rid, _, err := tryPlace(f.PageNo, rec) // the size check above makes an empty page fit
		if err != nil {
			return nil, err
		}
		rids[i] = rid
	}

	if link != nil {
		link(rids)
	}

	// Every page is resident and pinned: from here on nothing does I/O.
	// insertAt cannot fail either — under the heap lock a planned page only
	// ever gains room — but were it to, the run ends there, and the log is
	// told exactly what the pages hold.
	written = true
	latched := 0 // pages[:latched] hold their write latch
	for err == nil && latched < len(pages) {
		rp := pages[latched]
		latched++
		rp.f.Latch.Lock()
		for k, r := range rp.rows {
			if err = rp.f.Page.insertAt(int(r.slot), r.rec); err != nil {
				rp.rows = rp.rows[:k]
				break
			}
		}
		h.rows += int64(len(rp.rows))
	}
	for _, rp := range pages[latched:] {
		rp.rows = nil
	}
	var lsn uint64
	if h.wal != nil {
		lsn = h.wal.LogInsertRun(pages)
	}
	for _, rp := range pages[:latched] {
		if h.wal != nil && len(rp.rows) > 0 {
			rp.f.Page.SetLSN(lsn)
		}
		rp.f.Latch.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("ordbms: run insert: %w", err)
	}
	return rids, nil
}

// setHintLocked records page no's free space in the free-space map, or
// drops the page from it when too little is left to be worth a visit.
// Caller holds h.mu.
func (h *HeapFile) setHintLocked(no uint32, free int) {
	if free > 64 {
		h.freeHint[no] = free
	} else {
		delete(h.freeHint, no)
	}
}

// Fetch returns a copy of the record at rid.
func (h *HeapFile) Fetch(rid RowID) ([]byte, error) {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	f.Latch.RLock()
	rec, gerr := f.Page.Get(int(rid.Slot))
	var cp []byte
	if gerr == nil {
		cp = make([]byte, len(rec))
		copy(cp, rec)
	}
	f.Latch.RUnlock()
	h.pool.Unpin(f, false)
	if gerr != nil {
		return nil, gerr
	}
	return cp, nil
}

// View invokes fn with the record bytes at rid while the page read latch
// is held, skipping Fetch's per-record copy.  fn must not retain rec or
// block; any byte slice needed after fn returns must be copied (note that
// DecodeRow/DecodeRowInto copy every payload).
func (h *HeapFile) View(rid RowID, fn func(rec []byte) error) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	f.Latch.RLock()
	rec, gerr := f.Page.Get(int(rid.Slot))
	if gerr == nil {
		gerr = fn(rec)
	}
	f.Latch.RUnlock()
	h.pool.Unpin(f, false)
	return gerr
}

// ViewMany invokes fn for each live record among rids, in input order,
// reusing the pinned page frame across consecutive rids on the same page
// — callers that sort rids into physical order pay one pool fetch per
// page, not per record.  Deleted records are silently skipped (readers
// racing a delete want the survivors, not an error); any other fetch
// error, or an error from fn, aborts the walk.  The fn contract is the
// same as View's: rec is only valid during the call.
func (h *HeapFile) ViewMany(rids []RowID, fn func(i int, rec []byte) error) error {
	var f *Frame
	var cur uint32
	release := func() {
		if f != nil {
			h.pool.Unpin(f, false)
			f = nil
		}
	}
	defer release()
	for i, rid := range rids {
		if f == nil || cur != rid.Page {
			release()
			var err error
			if f, err = h.pool.Fetch(rid.Page); err != nil {
				return err
			}
			cur = rid.Page
		}
		f.Latch.RLock()
		rec, gerr := f.Page.Get(int(rid.Slot))
		var ferr error
		if gerr == nil {
			ferr = fn(i, rec)
		}
		f.Latch.RUnlock()
		if gerr != nil && gerr != ErrRecordDeleted {
			return gerr
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RowID) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	derr := f.Page.Delete(int(rid.Slot))
	if derr == nil && h.wal != nil {
		lsn := h.wal.LogDelete(rid.Page, rid.Slot)
		f.Page.SetLSN(lsn)
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, derr == nil)
	if derr != nil {
		return derr
	}
	h.mu.Lock()
	h.rows--
	h.mu.Unlock()
	return nil
}

// Update rewrites the record at rid in place.  The caller must ensure the
// new record is not larger than the original; larger payloads return an
// error.
func (h *HeapFile) Update(rid RowID, rec []byte) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	ok, uerr := f.Page.UpdateInPlace(int(rid.Slot), rec)
	if uerr == nil && ok && h.wal != nil {
		lsn := h.wal.LogUpdate(rid.Page, rid.Slot, rec)
		f.Page.SetLSN(lsn)
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, uerr == nil && ok)
	if uerr != nil {
		return uerr
	}
	if !ok {
		return fmt.Errorf("ordbms: update at %v does not fit in place (%d bytes)", rid, len(rec))
	}
	return nil
}

// Scan calls fn for every live record in physical order.  fn must copy the
// record if it retains it.  Returning false stops the scan.
func (h *HeapFile) Scan(fn func(rid RowID, rec []byte) bool) error {
	h.mu.Lock()
	pages := append([]uint32(nil), h.pages...)
	h.mu.Unlock()
	for _, no := range pages {
		f, err := h.pool.Fetch(no)
		if err != nil {
			return err
		}
		stop := false
		f.Latch.RLock()
		f.Page.LiveRecords(func(slot int, rec []byte) bool {
			if !fn(RowID{Page: no, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		f.Latch.RUnlock()
		h.pool.Unpin(f, false)
		if stop {
			return nil
		}
	}
	return nil
}
