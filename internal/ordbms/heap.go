package ordbms

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// HeapFile is an unordered collection of records addressed by RowID.
// Each table owns one heap file.  Records larger than MaxRecordSize are
// rejected (the XML store keeps node payloads well under a page).
//
// The heap keeps an in-memory free-space map so inserts do not scan; a
// checkpoint saves it in the catalog with the live-row count, and a
// reopen that cannot trust those rebuilds both by scanning the pages.
type HeapFile struct {
	// mu orders page-list growth and the free-space map.
	// netmarkvet:lockorder 30
	mu    sync.Mutex
	pool  *BufferPool
	wal   *WAL // may be nil for unlogged heaps
	tag   string
	pages []uint32 // guarded by mu
	// hints is the free-space map: the pages with meaningful free space
	// and how much, in ascending page order, so the lowest page a record
	// fits is the first one that does.  Guarded by mu.
	hints []pageFree
	rows  int64 // guarded by mu
}

// pageFree is one entry of the free-space map.
type pageFree struct {
	page uint32
	free int32
}

// NewHeapFile creates an empty heap backed by the pool.
func NewHeapFile(pool *BufferPool, wal *WAL) *HeapFile {
	return &HeapFile{pool: pool, wal: wal}
}

// OpenHeapFile reattaches a heap to an existing page list (from the
// catalog) and rebuilds the free-space map and row count.
func OpenHeapFile(pool *BufferPool, wal *WAL, pages []uint32) (*HeapFile, error) {
	h := &HeapFile{pool: pool, wal: wal, pages: append([]uint32(nil), pages...)}
	for _, no := range pages {
		free, live := 0, 0
		err := h.ViewPage(no, func(p *Page) error {
			free = p.FreeSpace()
			return p.LiveRecords(func(int, []byte) bool { live++; return true })
		})
		if err != nil {
			return nil, fmt.Errorf("ordbms: page %d: %w", no, err)
		}
		if free > minHint {
			h.hints = append(h.hints, pageFree{no, int32(free)})
		}
		h.rows += int64(live)
	}
	slices.SortFunc(h.hints, func(a, b pageFree) int { return cmp.Compare(a.page, b.page) })
	return h, nil
}

// openHeapFileWithMeta reattaches a heap using the row count and
// free-space map the catalog holds, as meta gave them to it, instead of
// fetching and scanning every page.  Only valid when the heap is
// byte-identical to the checkpoint that wrote them (see loadCatalog); it
// is what keeps a clean reopen from reading the heap.
func openHeapFileWithMeta(pool *BufferPool, wal *WAL, pages []uint32, rows int64, free [][2]uint32) *HeapFile {
	h := &HeapFile{pool: pool, wal: wal, pages: append([]uint32(nil), pages...), rows: rows}
	for _, pf := range free {
		h.hints = append(h.hints, pageFree{pf[0], int32(pf[1])})
	}
	return h
}

// meta snapshots the heap for the catalog: its page list, live row count
// and free-space map, as [page, free bytes] in ascending page order.
func (h *HeapFile) meta() (pages []uint32, rows int64, free [][2]uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	free = make([][2]uint32, len(h.hints))
	for i, pf := range h.hints {
		free[i] = [2]uint32{pf.page, uint32(pf.free)}
	}
	return slices.Clone(h.pages), h.rows, free
}

// Pages returns the page numbers owned by this heap.
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
	plan0 pagePlan // the page as the run first found it, to plan again or undo the hints
	rows  []runRow // what the run has placed here so far, in order
}

// runRow is one placed record of a run insert: the slot it was promised,
// the size it was placed at, and which record of the run it is — its
// bytes, which link may still patch or swap, are read from the run when
// it is written.
type runRow struct {
	slot, size uint16
	idx        int32
}

// InsertRun stores a run of records in one pass and returns their
// physical RowIDs, in order.  It first places every record — the lowest
// hinted page it fits, else the tail page, else a fresh page, which needs
// only the record sizes — then hands the RowIDs to link, which may patch
// bytes of the records in place: rows that point at each other by RowID
// are written once, already linked.  Only then do the pages take their
// rows, all under their write latches and one walInsertRun record, so no
// reader and no page flush ever sees a row before its final bytes are
// logged.  link runs under the heap lock and must not block or call back
// into the heap; nil means nothing to patch.
//
// Where a record lands can decide its size — a link to a row a few slots
// away on its own page is stored near, in fewer bytes — so link may also
// replace records in recs.  A shorter one is written where the record
// was placed.  A longer one is placed again, and so is every record
// after it, as if the run had reached it with that size: pages
// considered so far stay pinned, a fresh page stays the heap's, and link
// is called with the new RowIDs.  A record that only ever grows keeps
// this finite.
//
// A run is all or nothing, in memory and in the log.  Every page it
// touches stays pinned until the end, so all that can fail — a read, an
// eviction, a pool too small to hold the run's pages at once — fails
// during placement, before any row is written; and one log record with
// one checksum covers every page, so a log cut anywhere recovers all of
// the run's rows or none, never a row whose links point at rows that
// were lost.
func (h *HeapFile) InsertRun(recs [][]byte, link func(rids []RowID)) (rids []RowID, err error) {
	if err := checkRecordSizes(recs); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	// pages holds every page considered so far, in first-touch order; the
	// page a record lands on is nearly always the last one.
	var pages []*runPage
	// unplace takes the records from onwards off their pages: each page
	// plans the records it keeps again from its first state, and its hint
	// follows.  unplace(0) puts every page back as the run found it, save
	// that a fresh page is now the heap's, hinted.
	unplace := func(from int) {
		for _, rp := range pages {
			keep := len(rp.rows)
			for keep > 0 && int(rp.rows[keep-1].idx) >= from {
				keep--
			}
			if keep == len(rp.rows) {
				continue
			}
			rp.rows, rp.plan = rp.rows[:keep], rp.plan0
			for _, r := range rp.rows {
				rp.plan.place(int(r.size))
			}
			h.setHintLocked(rp.f.PageNo, rp.plan.freeSpace())
		}
	}
	written := false
	defer func() {
		if !written { // nothing was placed after all
			unplace(0)
			err = fmt.Errorf("ordbms: run insert of %d records wrote nothing (its pages stay pinned until it is logged): %w", len(recs), err)
		}
		for _, rp := range pages {
			h.pool.Unpin(rp.f)
		}
	}()
	consider := func(f *Frame) *runPage {
		f.Latch.RLock()
		rp := &runPage{f: f, plan: f.Page.plan()}
		f.Latch.RUnlock()
		rp.plan0 = rp.plan
		pages = append(pages, rp)
		return rp
	}
	// tryPlace reserves room for record i on page no and keeps the
	// free-space map in step.
	tryPlace := func(no uint32, i int) (RowID, bool, error) {
		var rp *runPage
		for k := len(pages) - 1; k >= 0 && rp == nil; k-- {
			if pages[k].f.PageNo == no {
				rp = pages[k]
			}
		}
		if rp == nil {
			f, err := h.pool.Fetch(no)
			if err != nil {
				return ZeroRowID, false, err
			}
			rp = consider(f)
		}
		slot, ok := rp.plan.place(len(recs[i]))
		if !ok {
			return ZeroRowID, false, nil
		}
		rp.rows = append(rp.rows, runRow{slot: uint16(slot), size: uint16(len(recs[i])), idx: int32(i)})
		h.setHintLocked(no, rp.plan.freeSpace())
		return RowID{Page: no, Slot: uint16(slot)}, true, nil
	}
	// place finds record i a page, lowest first among those with known
	// free space: the same inserts must land on the same RowIDs (query
	// results come back in RowID order).
	place := func(i int) (RowID, error) {
		for {
			no, found := h.firstFitLocked(len(recs[i]))
			if !found {
				break
			}
			rid, ok, err := tryPlace(no, i)
			if err != nil || ok {
				return rid, err
			}
			h.setHintLocked(no, 0) // hint was stale
		}
		// Try the last page (append locality).
		if n := len(h.pages); n > 0 {
			rid, ok, err := tryPlace(h.pages[n-1], i)
			if err != nil || ok {
				return rid, err
			}
		}
		// Allocate a fresh page.  Its adoption is logged here, ahead of the
		// run record that fills it: recovery re-attaches the page to this
		// heap even when the catalog predates the allocation (see walAlloc).
		f, err := h.pool.NewPage()
		if err != nil {
			return ZeroRowID, err
		}
		h.pages = append(h.pages, f.PageNo)
		if h.wal != nil {
			h.wal.LogAlloc(h.tag, f.PageNo)
		}
		consider(f)
		rid, _, err := tryPlace(f.PageNo, i) // the size check makes an empty page fit
		return rid, err
	}

	// grownFrom is the first record link made longer than it was placed,
	// or len(recs).
	grownFrom := func() int {
		from := len(recs)
		for _, rp := range pages {
			for _, r := range rp.rows {
				if int(r.idx) < from && len(recs[r.idx]) > int(r.size) {
					from = int(r.idx)
				}
			}
		}
		return from
	}

	rids = make([]RowID, len(recs))
	for from := 0; from < len(recs); {
		for i := from; i < len(recs); i++ {
			if rids[i], err = place(i); err != nil {
				return nil, err
			}
		}
		if link != nil {
			link(rids)
		}
		if from = grownFrom(); from < len(recs) {
			if err = checkRecordSizes(recs[from:]); err != nil {
				return nil, err
			}
			unplace(from)
		}
	}

	// Every page is resident and pinned: from here on nothing does I/O.
	// insertAt cannot fail either — under the heap lock nothing else takes
	// room or slots on a planned page — but were it to, the run ends there,
	// and the log is told exactly what the pages hold.
	written = true
	latched := 0 // pages[:latched] hold their write latch
	for err == nil && latched < len(pages) {
		rp := pages[latched]
		latched++
		rp.f.Latch.Lock()
		for k, r := range rp.rows {
			if err = rp.f.Page.insertAt(int(r.slot), recs[r.idx]); err != nil {
				rp.rows = rp.rows[:k]
				break
			}
		}
		h.rows += int64(len(rp.rows))
		if len(rp.rows) > 0 {
			rp.f.dirty = true
			// a record link shortened left more room than planned
			h.setHintLocked(rp.f.PageNo, rp.f.Page.FreeSpace())
		}
	}
	for _, rp := range pages[latched:] {
		rp.rows = nil
	}
	var lsn uint64
	if h.wal != nil {
		lsn = h.wal.LogInsertRun(pages, recs)
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

// minHint is the least free space that earns a page a place in the
// free-space map: below it a page is not worth a visit.
const minHint = 64

// checkRecordSizes refuses a run holding a record no page can take.
func checkRecordSizes(recs [][]byte) error {
	for _, rec := range recs {
		if len(rec) == 0 || len(rec) > MaxRecordSize {
			return fmt.Errorf("ordbms: record of %d bytes, want 1 to %d (the page capacity)", len(rec), MaxRecordSize)
		}
	}
	return nil
}

// firstFitLocked returns the lowest page the free-space map says has
// room for an n-byte record.  Caller holds h.mu.
func (h *HeapFile) firstFitLocked(n int) (uint32, bool) {
	for _, pf := range h.hints {
		if int(pf.free) >= n+slotSize {
			return pf.page, true
		}
	}
	return 0, false
}

// setHintLocked records page no's free space in the free-space map, or
// drops the page from it when too little is left to be worth a visit.
// Caller holds h.mu.
func (h *HeapFile) setHintLocked(no uint32, free int) {
	i, found := h.hintIndexLocked(no)
	switch {
	case free > minHint && found:
		h.hints[i].free = int32(free)
	case free > minHint:
		h.hints = slices.Insert(h.hints, i, pageFree{no, int32(free)})
	case found:
		h.hints = slices.Delete(h.hints, i, i+1)
	}
}

// hintIndexLocked returns where page no's entry is, or would go, in the
// free-space map.  Caller holds h.mu.
func (h *HeapFile) hintIndexLocked(no uint32) (int, bool) {
	// Most records land on the heap's newest page: the map's last entry,
	// or past it.
	n := len(h.hints)
	switch {
	case n == 0 || h.hints[n-1].page < no:
		return n, false
	case h.hints[n-1].page == no:
		return n - 1, true
	}
	return slices.BinarySearchFunc(h.hints, no, func(pf pageFree, no uint32) int { return cmp.Compare(pf.page, no) })
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
	h.pool.Unpin(f)
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
	h.pool.Unpin(f)
	return gerr
}

// ViewPage invokes fn with page no while its read latch is held.  fn
// must not retain the page or block.
func (h *HeapFile) ViewPage(no uint32, fn func(p *Page) error) error {
	f, err := h.pool.Fetch(no)
	if err != nil {
		return err
	}
	f.Latch.RLock()
	err = fn(f.Page)
	f.Latch.RUnlock()
	h.pool.Unpin(f)
	return err
}

// Delete removes the record at rid: a run of one.
func (h *HeapFile) Delete(rid RowID) error { return h.DeleteRun([]RowID{rid}) }

// DeleteRun removes the records at rids, in the order given, under one
// walDeleteRun log record.  Their slots stay dead: no later insert is
// given any of rids.  Every rid must name a slot its page has; a record
// already deleted is passed over, and ErrRecordDeleted means every one
// was.
//
// The record is logged before any page changes, and the pages then take
// it one pin at a time — a run larger than the buffer pool deletes too —
// so any page map that names a page it touched was taken after the
// record was appended, and the checkpoint writes the record before it
// commits that map.  A failure partway leaves the records before it
// deleted and the rest in place, in memory, and the whole run in the log,
// for a crash to finish: either way the records that survive are the
// ones rids names last.
func (h *HeapFile) DeleteRun(rids []RowID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	// The log may name only slots their pages have, or recovery would
	// refuse the store: check each, a page at a time, and keep the live.
	live := slices.Clone(rids)
	slices.SortFunc(live, cmpRowID)
	live = slices.Compact(live)
	kept := live[:0]
	for i := 0; i < len(live); {
		j := i + 1
		for j < len(live) && live[j].Page == live[i].Page {
			j++
		}
		f, err := h.pool.Fetch(live[i].Page)
		if err != nil {
			return err
		}
		f.Latch.RLock()
		for _, rid := range live[i:j] {
			_, gerr := f.Page.Get(int(rid.Slot))
			if gerr == nil {
				kept = append(kept, rid)
			} else if gerr != ErrRecordDeleted {
				err = gerr
				break
			}
		}
		f.Latch.RUnlock()
		h.pool.Unpin(f)
		if err != nil {
			return err
		}
		i = j
	}
	if len(kept) == 0 {
		return ErrRecordDeleted
	}
	var lsn uint64
	if h.wal != nil {
		lsn = h.wal.LogDeleteRun(kept)
	}
	var f *Frame // the page being deleted from, write-latched
	release := func() {
		if f != nil {
			f.Latch.Unlock()
			h.pool.Unpin(f)
			f = nil
		}
	}
	defer release()
	for _, rid := range rids {
		if _, ok := slices.BinarySearchFunc(kept, rid, cmpRowID); !ok {
			continue
		}
		if f == nil || f.PageNo != rid.Page {
			release()
			next, err := h.pool.Fetch(rid.Page)
			if err != nil {
				return err
			}
			f = next
			f.Latch.Lock()
			f.dirty = true // the page changes in this hold
		}
		switch err := f.Page.Delete(int(rid.Slot)); err {
		case nil:
			h.rows--
		case ErrRecordDeleted: // named twice in rids
		default:
			return err
		}
		if h.wal != nil {
			f.Page.SetLSN(lsn)
		}
	}
	return nil
}

// cmpRowID orders RowIDs physically, as RowID.Less does.
func cmpRowID(a, b RowID) int { return cmp.Compare(a.Uint64(), b.Uint64()) }

// Scan calls fn for every live record in physical order.  fn must copy the
// record if it retains it.  Returning false stops the scan.
func (h *HeapFile) Scan(fn func(rid RowID, rec []byte) bool) error {
	h.mu.Lock()
	pages := append([]uint32(nil), h.pages...)
	h.mu.Unlock()
	for _, no := range pages {
		stop := false
		err := h.ViewPage(no, func(p *Page) error {
			return p.LiveRecords(func(slot int, rec []byte) bool {
				stop = !fn(RowID{Page: no, Slot: uint16(slot)}, rec)
				return !stop
			})
		})
		if err != nil {
			return fmt.Errorf("ordbms: page %d: %w", no, err)
		}
		if stop {
			return nil
		}
	}
	return nil
}
