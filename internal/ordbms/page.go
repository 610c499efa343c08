package ordbms

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page in the database, matching the
// common ORDBMS default of 8 KiB.
const PageSize = 8192

// Page header layout (bytes):
//
//	0..1   number of slots (uint16)
//	2..7   reserved, zero
//	8..15  page LSN (uint64) — the WAL position that last touched the page
//
// The slot directory grows upward from byte 16; records grow downward
// from the end of the page, in slot order, each directly below the one
// before it.  A slot entry is one uint16, the record's offset, so slot
// i's record runs from its offset to slot i-1's (PageSize for slot 0),
// the last slot's offset is where free space ends, and the directory's
// end is where it starts.  The entry's top bit marks a dead slot, whose
// record bytes stay where they were until Compact squeezes them out.  An
// all-zero page is an empty one.
const (
	pageHeaderSize = 16
	slotSize       = 2
	// maxSlots is the most entries the directory has room for; a page with
	// a record in it holds at most maxSlots-1 = 4 087.
	maxSlots = (PageSize - pageHeaderSize) / slotSize
)

// slotDead marks a deleted slot's entry.
const slotDead = 0x8000

// Page is a fixed-size slotted page.  It is not safe for concurrent use;
// the buffer pool serialises access via per-frame latches.
type Page struct {
	data [PageSize]byte
}

// NewPage returns an initialised empty page.
func NewPage() *Page { return &Page{} }

// Data exposes the raw page bytes for I/O.
func (p *Page) Data() []byte { return p.data[:] }

func (p *Page) numSlots() int     { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.data[0:2], uint16(n)) }

// freeLower is the first byte past the slot directory; past PageSize on
// a page whose slot count is corrupt.
func (p *Page) freeLower() int { return pageHeaderSize + slotSize*p.numSlots() }

// freeUpper is the first byte of the record area: the last slot's
// offset, or PageSize on a page without slots.  A page whose directory
// does not fit it has no room at all.
func (p *Page) freeUpper() int {
	n, lower := p.numSlots(), p.freeLower()
	if n == 0 {
		return PageSize
	}
	if lower > PageSize {
		return lower
	}
	if off, _ := p.entry(n - 1); off >= lower && off <= PageSize {
		return off
	}
	return lower
}

// appendSample appends the page to dict as a sample of the store
// dictionary: its header, slot directory and records, without the zeros
// of its free space.
func (p *Page) appendSample(dict []byte) []byte {
	upper := min(p.freeUpper(), PageSize) // past it only when the directory is
	lower := min(p.freeLower(), upper)
	return append(append(dict, p.data[:lower]...), p.data[upper:]...)
}

// LSN returns the page's last-writer WAL position.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.data[8:16]) }

// SetLSN records the WAL position of the latest change to this page.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.data[8:16], lsn) }

// entry reads slot i's directory entry, which must lie on the page.
func (p *Page) entry(i int) (off int, dead bool) {
	v := binary.LittleEndian.Uint16(p.data[pageHeaderSize+i*slotSize:])
	return int(v &^ slotDead), v&slotDead != 0
}

func (p *Page) setEntry(i, off int, dead bool) {
	v := uint16(off)
	if dead {
		v |= slotDead
	}
	binary.LittleEndian.PutUint16(p.data[pageHeaderSize+i*slotSize:], v)
}

// errCorruptPage reports a page whose directory breaks the layout: an
// offset below the directory, past the page, or above the slot before.
var errCorruptPage = errors.New("ordbms: corrupt page")

// checkSlot reports whether slot is in the directory, and the directory
// on the page.
func (p *Page) checkSlot(slot int) error {
	if p.freeLower() > PageSize {
		return fmt.Errorf("%w: %d slots", errCorruptPage, p.numSlots())
	}
	if slot < 0 || slot >= p.numSlots() {
		return fmt.Errorf("ordbms: slot %d out of range (have %d)", slot, p.numSlots())
	}
	return nil
}

// FreeSpace returns the bytes available for a new record including its
// slot directory entry.
func (p *Page) FreeSpace() int { return max(p.freeUpper()-p.freeLower()-slotSize, 0) }

// NumSlots returns the size of the slot directory, including dead slots.
func (p *Page) NumSlots() int { return p.numSlots() }

// Insert places a record in the page and returns its slot number, always
// a new one: a dead slot is never reused, so a RowID names one record
// for the life of the store.
func (p *Page) Insert(rec []byte) (int, error) {
	pp := p.plan()
	slot, ok := pp.place(len(rec))
	if !ok {
		return 0, errPageFull
	}
	return slot, p.insertAt(slot, rec)
}

// insertAt places rec below the record area as slot, which must be the
// next new one: Insert and run inserts take the slot from a pagePlan,
// recovery takes it from the log.
func (p *Page) insertAt(slot int, rec []byte) error {
	if len(rec) == 0 || len(rec) > MaxRecordSize {
		return fmt.Errorf("ordbms: record of %d bytes, want 1 to %d", len(rec), MaxRecordSize)
	}
	if n := p.numSlots(); slot != n {
		return fmt.Errorf("ordbms: slot %d is not the page's next (it has %d)", slot, n)
	}
	upper := p.freeUpper() - len(rec)
	if upper-p.freeLower() < slotSize {
		return errPageFull
	}
	copy(p.data[upper:], rec)
	p.setNumSlots(slot + 1)
	p.setEntry(slot, upper, false)
	return nil
}

// pagePlan is the part of a page's state that placement depends on — the
// gap between slot directory and record area, and the directory size.
// Record sizes alone drive it, so a run insert can settle every RowID
// before the record bytes are final.
type pagePlan struct {
	gap   int // freeUpper - freeLower
	slots int // slot directory size, dead slots included
}

// plan snapshots the page's placement state.
func (p *Page) plan() pagePlan {
	return pagePlan{gap: p.freeUpper() - p.freeLower(), slots: p.numSlots()}
}

// place reserves room for an n-byte record in a new slot and reports the
// slot, or false when the record does not fit.  It is the one placement
// rule: Page.Insert applies it at once, a run insert ahead of time.
func (pp *pagePlan) place(n int) (slot int, ok bool) {
	if pp.gap-slotSize < n {
		return 0, false
	}
	pp.gap -= n + slotSize
	pp.slots++
	return pp.slots - 1, true
}

// freeSpace is Page.FreeSpace for the planned state.
func (pp *pagePlan) freeSpace() int { return max(pp.gap-slotSize, 0) }

var errPageFull = fmt.Errorf("ordbms: page full")

// Get returns the record stored in the given slot, read from its own
// entry and the one before it.  The returned slice aliases page memory
// and must be copied if retained.
func (p *Page) Get(slot int) ([]byte, error) {
	if err := p.checkSlot(slot); err != nil {
		return nil, err
	}
	end := PageSize
	if slot > 0 {
		end, _ = p.entry(slot - 1)
	}
	off, dead := p.entry(slot)
	if off < p.freeLower() || off > end || end > PageSize {
		return nil, fmt.Errorf("%w: slot %d spans %d to %d", errCorruptPage, slot, off, end)
	}
	if dead {
		return nil, ErrRecordDeleted
	}
	return p.data[off:end], nil
}

// ErrRecordDeleted is returned when fetching a slot whose record was deleted.
var ErrRecordDeleted = fmt.Errorf("ordbms: record deleted")

// Delete marks a slot dead.  Its record's bytes stay in place, so its
// neighbours keep theirs; Compact squeezes them out.
func (p *Page) Delete(slot int) error {
	if err := p.checkSlot(slot); err != nil {
		return err
	}
	off, dead := p.entry(slot)
	if dead {
		return ErrRecordDeleted
	}
	p.setEntry(slot, off, true)
	return nil
}

// walk calls fn for every slot in slot order with the bytes its record
// spans — a dead slot's too — checking each entry against the layout
// first, and stops early when fn returns false.
func (p *Page) walk(fn func(slot int, rec []byte, dead bool) bool) error {
	lower, end := p.freeLower(), PageSize
	if lower > PageSize {
		return fmt.Errorf("%w: %d slots", errCorruptPage, p.numSlots())
	}
	for i := 0; i < p.numSlots(); i++ {
		off, dead := p.entry(i)
		if off < lower || off > end {
			return fmt.Errorf("%w: slot %d spans %d to %d", errCorruptPage, i, off, end)
		}
		if !fn(i, p.data[off:end], dead) {
			return nil
		}
		end = off
	}
	return nil
}

// Compact rewrites the record area in slot order without the bytes of
// dead slots, which keep their numbers (and so RowIDs stay put) with
// zero length.
func (p *Page) Compact() error {
	if err := p.walk(func(int, []byte, bool) bool { return true }); err != nil {
		return err
	}
	upper := PageSize
	return p.walk(func(i int, rec []byte, dead bool) bool {
		if !dead { // moves up, over bytes walk has already passed
			upper -= len(rec)
			copy(p.data[upper:], rec)
		}
		p.setEntry(i, upper, dead)
		return true
	})
}

// LiveRecords calls fn for every live slot in slot order.
func (p *Page) LiveRecords(fn func(slot int, rec []byte) bool) error {
	return p.walk(func(i int, rec []byte, dead bool) bool { return dead || fn(i, rec) })
}

// MaxRecordSize is the largest record a page accepts.  Larger payloads are
// chunked by the heap layer.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize
