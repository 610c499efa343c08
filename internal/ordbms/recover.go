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

// applyRun applies one page's sections of a walInsertRun or walDeleteRun
// record to the page.  An insert section's rows take consecutive new
// slots from its first; a delete passes over a slot already dead.
func (p *Page) applyRun(typ byte, secs []byte) error {
	for len(secs) > 0 {
		if typ == walInsertRun {
			_, first, rows, rest, _ := nextRunPage(secs) // Replay checked the framing
			for slot := int(first); len(rows) > 0; slot++ {
				var rec []byte
				rec, rows, _ = nextRunRow(rows)
				if err := p.applyInsertAt(slot, rec); err != nil {
					return err
				}
			}
			secs = rest
			continue
		}
		_, first, n, rest, _ := nextRunSection(secs)
		for slot := int(first); slot < int(first)+n; slot++ {
			if err := p.Delete(slot); err != nil && err != ErrRecordDeleted {
				return err
			}
		}
		secs = rest
	}
	return nil
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
	// extend grows the data file to page no: a page allocated after the
	// last page flush may never have reached it.
	extend := func(no uint32) error {
		for disk.NumPages() <= no {
			if _, aerr := disk.AllocatePage(); aerr != nil {
				return aerr
			}
		}
		return nil
	}
	// onPage brings page no forward to the record ending at lsn through
	// apply, unless the page holds that record already, and reports
	// whether it did.
	onPage := func(no uint32, lsn uint64, apply func(p *Page) error) (bool, error) {
		f, ferr := pool.Fetch(no)
		if ferr != nil {
			return false, ferr
		}
		defer pool.Unpin(f)
		f.Latch.Lock()
		defer f.Latch.Unlock()
		if f.Page.LSN() >= lsn {
			return false, nil // already applied before the crash
		}
		f.dirty = true
		if aerr := apply(f.Page); aerr != nil {
			return false, fmt.Errorf("ordbms: recovery of page %d: %w", no, aerr)
		}
		f.Page.SetLSN(lsn)
		return true, nil
	}
	// onRun applies a run record a page at a time.  Each page checks the
	// record's LSN against its own, and the record counts once.
	onRun := func(r WALRecord) error {
		applied := false
		for rest := r.Rec; len(rest) > 0; {
			// A page's sections lie side by side — a delete run's one per run
			// of consecutive slots — and are applied in one visit, since the
			// page takes the record's LSN on the first.
			no, _, _ := nextSection(r.Type, rest) // Replay checked the framing
			secs := rest
			for len(rest) > 0 {
				next, tail, _ := nextSection(r.Type, rest)
				if next != no {
					break
				}
				rest = tail
			}
			secs = secs[:len(secs)-len(rest)]
			if r.Type == walInsertRun {
				if err := extend(no); err != nil {
					return err
				}
			} else if no == 0 || no >= disk.NumPages() {
				// A delete names rows the log has already put on their pages.
				return fmt.Errorf("ordbms: recovery: delete on page %d, which the data file does not have", no)
			}
			done, err := onPage(no, r.LSN, func(p *Page) error { return p.applyRun(r.Type, secs) })
			if err != nil {
				return err
			}
			applied = applied || done
		}
		if applied {
			replayed++
		}
		return nil
	}
	torn, err = wal.Replay(func(r WALRecord) error {
		switch r.Type {
		case walInsertRun, walDeleteRun:
			return onRun(r)
		case walAlloc:
			name := string(r.Rec)
			allocs[name] = append(allocs[name], r.Page)
			return extend(r.Page)
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
		case walSymbols:
			name, st, _ := readSymbolsRecord(r.Rec) // Replay checked it
			ops = append(ops, RecoveredOp{Kind: walSymbols, Table: name, Symbols: st})
		}
		return nil
	})
	return replayed, allocs, ops, torn, err
}

// RecoveredOp is one logged DDL operation, or a table's symbol table,
// in log order.
type RecoveredOp struct {
	Kind    byte // walCreateTable, walCreateIndex, walDropTable or walSymbols
	Table   string
	Column  string       // index creates
	Cols    []Column     // table creates
	Symbols *SymbolTable // walSymbols
}
