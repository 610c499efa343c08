package ordbms

import (
	"encoding/binary"
	"fmt"
)

// RowID is a physical row address: page number and slot within the page.
// It is the direct analogue of an Oracle ROWID, which the paper exploits
// "for very fast traversal between nodes that are related": following a
// RowID is a single buffer-pool fetch, no index involved.
//
// RowIDs are stable for the lifetime of a record and are never handed
// out twice: a delete leaves the slot dead for good, and page compaction
// preserves slot numbers.
type RowID struct {
	Page uint32
	Slot uint16
}

// ZeroRowID is the invalid RowID used as a null link.
var ZeroRowID = RowID{}

// IsZero reports whether the RowID is the null link.
func (r RowID) IsZero() bool { return r == ZeroRowID }

// Uint64 packs the RowID into a single integer for storage in a column.
func (r RowID) Uint64() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// RowIDFromUint64 unpacks a RowID previously packed with Uint64.
func RowIDFromUint64(v uint64) RowID {
	return RowID{Page: uint32(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// A ROWID payload has two widths, told apart by the top bit of the slot
// that leads both:
//
//	far   RowIDSize (6) bytes: slot u16, page u32, little-endian
//	near  NearRowIDSize (2) bytes: slot | nearBit, u16 — a row on the
//	      page of the record that holds the link
//
// A record never changes page (RowIDs are stable and Compact keeps slot
// numbers), so a near link means the same thing for the record's life.
// A page holds at most 4 087 slots, so no real slot has the top bit set,
// and Schema.Validate refuses a ROWID whose slot does.
const (
	RowIDSize     = 6
	NearRowIDSize = 2
	nearBit       = 0x8000
)

// PutRowID writes rid into b[:RowIDSize] as a far payload — the single
// definition of it, shared by the record encoder and by callers patching
// a link into an encoded record (see Schema.EncodeOffsets).
func PutRowID(b []byte, rid RowID) {
	binary.LittleEndian.PutUint16(b, rid.Slot)
	binary.LittleEndian.PutUint32(b[2:], rid.Page)
}

// PutNearRowID writes rid into b[:NearRowIDSize] as a near payload: its
// slot alone.  rid must be on the page of the record b belongs to.
func PutNearRowID(b []byte, rid RowID) {
	binary.LittleEndian.PutUint16(b, rid.Slot|nearBit)
}

// getRowID decodes the ROWID payload at the start of b, read from a
// record stored on page, and returns it with the payload's width — 0
// when b is too short to hold it.
func getRowID(b []byte, page uint32) (RowID, int) {
	if len(b) < NearRowIDSize {
		return ZeroRowID, 0
	}
	slot := binary.LittleEndian.Uint16(b)
	if slot&nearBit != 0 {
		return RowID{Page: page, Slot: slot &^ nearBit}, NearRowIDSize
	}
	if len(b) < RowIDSize {
		return ZeroRowID, 0
	}
	return RowID{Page: binary.LittleEndian.Uint32(b[2:]), Slot: slot}, RowIDSize
}

func (r RowID) String() string { return fmt.Sprintf("rid(%d.%d)", r.Page, r.Slot) }

// Less orders RowIDs in physical (page, slot) order.
func (r RowID) Less(o RowID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}
