package ordbms

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed size of every page in the database, matching the
// common ORDBMS default of 8 KiB.
const PageSize = 8192

// Page header layout (bytes):
//
//	0..1   number of slots (uint16)
//	2..3   free-space lower bound: first byte past the slot directory
//	4..5   free-space upper bound: first byte of the record area
//	6..7   flags (unused, reserved)
//	8..15  page LSN (uint64) — the WAL position that last touched the page
//
// The slot directory grows upward from byte 16; record data grows downward
// from the end of the page.  Each slot entry is 4 bytes: record offset
// (uint16) and record length (uint16).  offset==0 marks a dead (deleted)
// slot; offsets are always >= headerSize for live records.
const (
	pageHeaderSize = 16
	slotSize       = 4
)

// slotDead marks a deleted slot's offset.
const slotDead = 0

// Page is a fixed-size slotted page.  It is not safe for concurrent use;
// the buffer pool serialises access via per-frame latches.
type Page struct {
	data [PageSize]byte
}

// NewPage returns an initialised empty page.
func NewPage() *Page {
	p := &Page{}
	p.Reset()
	return p
}

// Reset reinitialises the page to empty.
func (p *Page) Reset() {
	for i := range p.data {
		p.data[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeLower(pageHeaderSize)
	p.setFreeUpper(PageSize)
}

// Data exposes the raw page bytes for I/O.
func (p *Page) Data() []byte { return p.data[:] }

// LoadFrom copies raw bytes into the page.
func (p *Page) LoadFrom(b []byte) {
	copy(p.data[:], b)
}

func (p *Page) numSlots() int     { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.data[0:2], uint16(n)) }
func (p *Page) freeLower() int {
	v := int(binary.LittleEndian.Uint16(p.data[2:4]))
	if v == 0 {
		// An all-zero page — allocated, never written, as recovery meets
		// them — is an empty page: the directory starts past the header.
		return pageHeaderSize
	}
	return v
}
func (p *Page) setFreeLower(n int) { binary.LittleEndian.PutUint16(p.data[2:4], uint16(n)) }
func (p *Page) freeUpper() int {
	v := int(binary.LittleEndian.Uint16(p.data[4:6]))
	if v == 0 {
		return PageSize // uint16 wraps at 65536; PageSize fits but 0 means "end"
	}
	return v
}
func (p *Page) setFreeUpper(n int) { binary.LittleEndian.PutUint16(p.data[4:6], uint16(n%65536)) }

// LSN returns the page's last-writer WAL position.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.data[8:16]) }

// SetLSN records the WAL position of the latest change to this page.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.data[8:16], lsn) }

func (p *Page) slotAt(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	off = int(binary.LittleEndian.Uint16(p.data[base : base+2]))
	length = int(binary.LittleEndian.Uint16(p.data[base+2 : base+4]))
	return
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.data[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.data[base+2:base+4], uint16(length))
}

// FreeSpace returns the bytes available for a new record including its
// slot directory entry.
func (p *Page) FreeSpace() int {
	free := p.freeUpper() - p.freeLower() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NumSlots returns the size of the slot directory, including dead slots.
func (p *Page) NumSlots() int { return p.numSlots() }

// CanFit reports whether a record of n bytes fits in this page.
func (p *Page) CanFit(n int) bool { return p.FreeSpace() >= n }

// Insert places a record in the page and returns its slot number: the
// lowest dead slot, so slot numbers stay dense, else a new one.
func (p *Page) Insert(rec []byte) (int, error) {
	pp := p.plan()
	slot, ok := pp.place(len(rec))
	if !ok {
		return 0, errPageFull
	}
	return slot, p.insertAt(slot, rec)
}

// insertAt places rec in the given slot, which must be dead or the next
// new slot: Insert and run inserts take the slot from a pagePlan,
// recovery takes it from the log.
func (p *Page) insertAt(slot int, rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("ordbms: empty record")
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("ordbms: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	needSlot := 0
	switch {
	case slot < 0 || slot > p.numSlots():
		return fmt.Errorf("ordbms: slot %d out of range (have %d)", slot, p.numSlots())
	case slot == p.numSlots():
		needSlot = slotSize
	default:
		if off, _ := p.slotAt(slot); off != slotDead {
			return fmt.Errorf("ordbms: slot %d is live", slot)
		}
	}
	if p.freeUpper()-p.freeLower()-needSlot < len(rec) {
		return errPageFull
	}
	newUpper := p.freeUpper() - len(rec)
	copy(p.data[newUpper:], rec)
	p.setFreeUpper(newUpper)
	if needSlot != 0 {
		p.setNumSlots(slot + 1)
		p.setFreeLower(p.freeLower() + slotSize)
	}
	p.setSlot(slot, newUpper, len(rec))
	return nil
}

// pagePlan is the part of a page's state that placement depends on — the
// gap between slot directory and record area, the directory size and the
// dead slots.  Record sizes alone drive it, so a run insert can settle
// every RowID before the record bytes are final.
type pagePlan struct {
	gap   int   // freeUpper - freeLower
	slots int   // slot directory size, dead slots included
	dead  []int // dead slot numbers, ascending
}

// plan snapshots the page's placement state.
func (p *Page) plan() pagePlan {
	pp := pagePlan{gap: p.freeUpper() - p.freeLower(), slots: p.numSlots()}
	for i := 0; i < pp.slots; i++ {
		if off, _ := p.slotAt(i); off == slotDead {
			pp.dead = append(pp.dead, i)
		}
	}
	return pp
}

// place reserves room for an n-byte record — lowest dead slot first, else
// a new slot — and reports the slot, or false when the record does not
// fit.  It is the one placement rule: Page.Insert applies it at once, a
// run insert ahead of time.
func (pp *pagePlan) place(n int) (slot int, ok bool) {
	needSlot := slotSize
	if len(pp.dead) > 0 {
		needSlot = 0
	}
	if pp.gap-needSlot < n {
		return 0, false
	}
	pp.gap -= n + needSlot
	if needSlot == 0 {
		slot, pp.dead = pp.dead[0], pp.dead[1:]
	} else {
		slot = pp.slots
		pp.slots++
	}
	return slot, true
}

// freeSpace is Page.FreeSpace for the planned state.
func (pp *pagePlan) freeSpace() int {
	if free := pp.gap - slotSize; free > 0 {
		return free
	}
	return 0
}

var errPageFull = fmt.Errorf("ordbms: page full")

// Get returns the record stored in the given slot.  The returned slice
// aliases page memory and must be copied if retained.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, fmt.Errorf("ordbms: slot %d out of range (have %d)", slot, p.numSlots())
	}
	off, length := p.slotAt(slot)
	if off == slotDead {
		return nil, ErrRecordDeleted
	}
	return p.data[off : off+length], nil
}

// ErrRecordDeleted is returned when fetching a slot whose record was deleted.
var ErrRecordDeleted = fmt.Errorf("ordbms: record deleted")

// Delete tombstones a slot.  Space is reclaimed by Compact.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.numSlots() {
		return fmt.Errorf("ordbms: slot %d out of range", slot)
	}
	off, _ := p.slotAt(slot)
	if off == slotDead {
		return ErrRecordDeleted
	}
	p.setSlot(slot, slotDead, 0)
	return nil
}

// UpdateInPlace overwrites a record when the new payload is not larger
// than the old one.  Returns false when it does not fit in place.
func (p *Page) UpdateInPlace(slot int, rec []byte) (bool, error) {
	if slot < 0 || slot >= p.numSlots() {
		return false, fmt.Errorf("ordbms: slot %d out of range", slot)
	}
	off, length := p.slotAt(slot)
	if off == slotDead {
		return false, ErrRecordDeleted
	}
	if len(rec) > length {
		return false, nil
	}
	copy(p.data[off:], rec)
	p.setSlot(slot, off, len(rec))
	return true, nil
}

// Compact rewrites the record area to squeeze out holes left by deletes,
// preserving slot numbers (and therefore RowIDs).
func (p *Page) Compact() {
	type live struct {
		slot, length int
		data         []byte
	}
	var lives []live
	for i := 0; i < p.numSlots(); i++ {
		off, length := p.slotAt(i)
		if off == slotDead {
			continue
		}
		cp := make([]byte, length)
		copy(cp, p.data[off:off+length])
		lives = append(lives, live{i, length, cp})
	}
	upper := PageSize
	for _, l := range lives {
		upper -= l.length
		copy(p.data[upper:], l.data)
		p.setSlot(l.slot, upper, l.length)
	}
	p.setFreeUpper(upper)
}

// LiveRecords calls fn for every live slot in slot order.
func (p *Page) LiveRecords(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.numSlots(); i++ {
		off, length := p.slotAt(i)
		if off == slotDead {
			continue
		}
		if !fn(i, p.data[off:off+length]) {
			return
		}
	}
}

// MaxRecordSize is the largest record a page accepts.  Larger payloads are
// chunked by the heap layer.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize
