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

// A ROWID payload has two widths, told apart by the top bit of its first
// byte:
//
//	near  NearRowIDSize (1) byte, 0zzzzzzz: the zigzag of Δ = target slot
//	      − own slot, Δ in [−64, 63] — a row on the page of the record
//	      that holds the link, a few slots away
//	far   RowIDSize (6) bytes: slot | farBit as a big-endian u16, then
//	      the page as a u32 little-endian
//
// A record never changes page or slot (RowIDs are stable and Compact
// keeps slot numbers), so a near link means the same thing for the
// record's life.  A page holds at most 4 087 slots, so no real slot has
// the top bit set, and Schema.Validate refuses a ROWID whose slot does.
const (
	RowIDSize     = 6
	NearRowIDSize = 1
	farBit        = 0x8000
	maxNearDelta  = 63
)

// Near reports whether a link from the record at at to target is stored
// near: target is on the same page, at most maxNearDelta slots away.  It
// is the one definition writers of near payloads decide by.
func Near(at, target RowID) bool {
	d := int(target.Slot) - int(at.Slot)
	return at.Page == target.Page && d >= -maxNearDelta && d <= maxNearDelta
}

// PutRowID writes rid into b[:RowIDSize] as a far payload — the single
// definition of it, shared by the record encoder and by callers patching
// a link into an encoded record (see Schema.EncodeOffsets).
func PutRowID(b []byte, rid RowID) {
	binary.BigEndian.PutUint16(b, rid.Slot|farBit)
	binary.LittleEndian.PutUint32(b[2:], rid.Page)
}

// PutNearRowID writes the link from the record at at to target into
// b[:NearRowIDSize] as a near payload.  Near(at, target) must hold.
func PutNearRowID(b []byte, at, target RowID) {
	b[0], _ = nearCode(at, target)
}

// nearCode is the near payload of the link from at to target, and whether
// its byte reaches that far: the same page, Δ in [−64, 63].  That is one
// slot further back than Near: a record can carry a link Near would not
// write, and it still encodes as it decoded.
func nearCode(at, target RowID) (byte, bool) {
	d := int(target.Slot) - int(at.Slot)
	if at.Page != target.Page || d < -maxNearDelta-1 || d > maxNearDelta {
		return 0, false
	}
	z := int8(d)
	return byte(z<<1 ^ z>>7), true
}

// getRowID decodes the ROWID payload at the start of b, read from the
// record at at, and returns it with the payload's width — 0 when b is too
// short to hold it or names a slot no page has.
func getRowID(b []byte, at RowID) (RowID, int) {
	if len(b) == 0 {
		return ZeroRowID, 0
	}
	if z := b[0]; z&0x80 == 0 {
		slot := int(at.Slot) + (int(z>>1) ^ -int(z&1))
		if slot < 0 || slot >= maxSlots {
			return ZeroRowID, 0
		}
		return RowID{Page: at.Page, Slot: uint16(slot)}, NearRowIDSize
	}
	if len(b) < RowIDSize {
		return ZeroRowID, 0
	}
	return RowID{Page: binary.LittleEndian.Uint32(b[2:]), Slot: binary.BigEndian.Uint16(b) &^ farBit}, RowIDSize
}

func (r RowID) String() string { return fmt.Sprintf("rid(%d.%d)", r.Page, r.Slot) }

// Less orders RowIDs in physical (page, slot) order.
func (r RowID) Less(o RowID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}
