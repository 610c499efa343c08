package ordbms

import (
	"encoding/binary"
	"fmt"
)

// applyInsertAt places rec at an exact slot during recovery.  Unlike
// Insert, the slot number is dictated by the log record; a slot past the
// directory's end is reached through zero-length dead slots, so slot
// numbers match the pre-crash layout.  A slot the page already has is an
// error: the page-LSN check skips every record a page holds, so only a
// corrupt page or log names one.
func (p *Page) applyInsertAt(slot int, rec []byte) error {
	if n := p.numSlots(); slot < n {
		return fmt.Errorf("ordbms: slot %d is already on the page (it has %d)", slot, n)
	}
	for n := p.numSlots(); n < slot; n++ {
		upper := p.freeUpper()
		if upper-p.freeLower() < slotSize {
			return fmt.Errorf("ordbms: slot %d is past what the page's directory can reach", slot)
		}
		p.setNumSlots(n + 1)
		p.setEntry(n, upper, true)
	}
	return p.insertAt(slot, rec)
}

// Recover replays the WAL against the disk, bringing pages forward to the
// log's end state.  It must run before any heap is opened.  Replay is
// idempotent thanks to page LSNs, so a crash during recovery is safe: the
// next open replays again.  The log itself is left untouched — DB.Open
// runs a full checkpoint afterwards when anything was replayed, so the
// catalog (including pages adopted since its last save) is rewritten
// before the records backing them are dropped.
//
// allocs maps table name to the pages it adopted per the log — the pages
// a crash-time catalog may not know about yet.  ops lists the DDL the
// log carries (table creates with schemas, index creates, drops) in log
// order, so tables whose entire existence postdates the catalog can be
// rebuilt instead of silently losing their committed rows.
func Recover(disk DiskManager, pool *BufferPool, wal *WAL) (replayed int, allocs map[string][]uint32, ops []RecoveredOp, torn bool, err error) {
	allocs = make(map[string][]uint32)
	// onPage brings r.Page forward by r, a record addressed to that one
	// page (of a walInsertRun, the page's own section).
	onPage := func(r WALRecord) error {
		if r.Page == 0 || r.Page >= disk.NumPages() {
			// The page was allocated after the last page flush but its
			// allocation never reached the data file: re-extend the file.
			for disk.NumPages() <= r.Page {
				if _, aerr := disk.AllocatePage(); aerr != nil {
					return aerr
				}
			}
		}
		if r.Type == walAlloc || r.Type == walCheckpoint {
			return nil // no page mutation to apply
		}
		f, ferr := pool.Fetch(r.Page)
		if ferr != nil {
			return ferr
		}
		defer pool.Unpin(f, true)
		f.Latch.Lock()
		defer f.Latch.Unlock()
		if f.Page.LSN() >= r.LSN {
			return nil // already applied before the crash
		}
		switch r.Type {
		case walInsertRun:
			// The section's rows take consecutive new slots from r.Slot.
			for slot, rest := int(r.Slot), r.Rec; len(rest) > 0; slot++ {
				rec, tail, _ := nextRunRow(rest) // Replay checked the framing
				if aerr := f.Page.applyInsertAt(slot, rec); aerr != nil {
					return fmt.Errorf("ordbms: recovery of page %d: %w", r.Page, aerr)
				}
				rest = tail
			}
		case walDelete:
			if derr := f.Page.Delete(int(r.Slot)); derr != nil && derr != ErrRecordDeleted {
				return derr
			}
		}
		f.Page.SetLSN(r.LSN)
		replayed++
		return nil
	}
	torn, err = wal.Replay(func(r WALRecord) error {
		switch r.Type {
		case walAlloc:
			name := string(r.Rec)
			allocs[name] = append(allocs[name], r.Page)
		case walCreateTable:
			name, rest, ok := readWALString(r.Rec)
			if !ok {
				return nil
			}
			// A create starts a fresh incarnation: any pages logged for
			// this name so far belong to a dropped predecessor and must
			// not be adopted by the new table.
			delete(allocs, name)
			ncols, sz := binary.Uvarint(rest)
			if sz <= 0 {
				return nil
			}
			rest = rest[sz:]
			cols := make([]Column, 0, ncols)
			for ; ncols > 0; ncols-- {
				var cname string
				if cname, rest, ok = readWALString(rest); !ok || len(rest) < 1 {
					return nil
				}
				cols = append(cols, Column{Name: cname, Type: Type(rest[0])})
				rest = rest[1:]
			}
			ops = append(ops, RecoveredOp{Kind: walCreateTable, Table: name, Cols: cols})
			return nil
		case walCreateIndex:
			name, rest, ok := readWALString(r.Rec)
			if !ok {
				return nil
			}
			col, _, ok := readWALString(rest)
			if !ok {
				return nil
			}
			ops = append(ops, RecoveredOp{Kind: walCreateIndex, Table: name, Column: col})
			return nil
		case walDropTable:
			name, _, ok := readWALString(r.Rec)
			if !ok {
				return nil
			}
			// The dropped incarnation's pages are abandoned (DropTable
			// semantics); they must not leak into a later same-named table.
			delete(allocs, name)
			ops = append(ops, RecoveredOp{Kind: walDropTable, Table: name})
			return nil
		}
		if r.Type != walInsertRun {
			return onPage(r)
		}
		// One record for the pages of a whole run: each page checks the
		// record's LSN against its own, and the record counts once.
		before := replayed
		for rest := r.Rec; len(rest) > 0; {
			no, first, rows, tail, _ := nextRunPage(rest) // Replay checked the framing
			r.Page, r.Slot, r.Rec = no, first, rows
			if aerr := onPage(r); aerr != nil {
				return aerr
			}
			rest = tail
		}
		if replayed > before {
			replayed = before + 1
		}
		return nil
	})
	return replayed, allocs, ops, torn, err
}

// RecoveredOp is one logged DDL operation, in log order.
type RecoveredOp struct {
	Kind   byte // walCreateTable, walCreateIndex, or walDropTable
	Table  string
	Column string   // index creates
	Cols   []Column // table creates
}
