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
// RowIDs are stable for the lifetime of a record: deletes tombstone the
// slot and page compaction preserves slot numbers.
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

// RowIDSize is the width of a ROWID column's payload.
const RowIDSize = 6

// PutRowID writes rid into b[:RowIDSize] as page u32, slot u16,
// little-endian — the single definition of the ROWID payload, shared by
// the record encoder and by callers patching a link into an encoded
// record (see Schema.EncodeOffsets).
func PutRowID(b []byte, rid RowID) {
	binary.LittleEndian.PutUint32(b, rid.Page)
	binary.LittleEndian.PutUint16(b[4:], rid.Slot)
}

// getRowID is PutRowID's inverse.
func getRowID(b []byte) RowID {
	return RowID{Page: binary.LittleEndian.Uint32(b), Slot: binary.LittleEndian.Uint16(b[4:])}
}

func (r RowID) String() string { return fmt.Sprintf("rid(%d.%d)", r.Page, r.Slot) }

// Less orders RowIDs in physical (page, slot) order.
func (r RowID) Less(o RowID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}
