// Package ordbms implements the storage substrate that the paper assumes:
// an object-relational database engine with slotted pages, a buffer pool,
// heap files addressed by physical row identifiers, write-ahead logging,
// and crash recovery.
//
// The NETMARK paper stores every document in two universal tables (XML and
// DOC) inside an Oracle ORDBMS and leans on Oracle's physical ROWIDs for
// fast parent/sibling traversal between nodes.  This package reproduces
// those properties: a RowID here is a physical (page, slot) address, so a
// traversal hop is one buffer-pool fetch rather than an index lookup.
//
// This package owns durable on-disk state, so every committing rename
// must follow write-temp → fsync → rename → fsync-dir.
//
// netmarkvet:persistence
package ordbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Type identifies the dynamic type of a Value.
type Type uint8

// Value types supported by the engine.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBytes
	TypeBool
	// TypeRowID is a physical row address as a column — the paper's ROWID
	// link.  The value travels packed in Value.Int (see R and Value.RowID).
	TypeRowID
)

func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	case TypeBytes:
		return "BYTES"
	case TypeBool:
		return "BOOL"
	case TypeRowID:
		return "ROWID"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a single column value.  The zero Value is NULL.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
	Bytes []byte
	Bool  bool
}

// Null returns the NULL value.
func Null() Value { return Value{Type: TypeNull} }

// I builds an integer value.
func I(v int64) Value { return Value{Type: TypeInt, Int: v} }

// F builds a float value.
func F(v float64) Value { return Value{Type: TypeFloat, Float: v} }

// S builds a string value.
func S(v string) Value { return Value{Type: TypeString, Str: v} }

// B builds a bytes value.
func B(v []byte) Value { return Value{Type: TypeBytes, Bytes: v} }

// Bl builds a boolean value.
func Bl(v bool) Value { return Value{Type: TypeBool, Bool: v} }

// R builds a ROWID value.
func R(rid RowID) Value { return Value{Type: TypeRowID, Int: int64(rid.Uint64())} }

// RowID unpacks a ROWID value.  NULL reads as ZeroRowID, the null link.
func (v Value) RowID() RowID { return RowIDFromUint64(uint64(v.Int)) }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// String renders the value for debugging and CLI output.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return fmt.Sprintf("%d", v.Int)
	case TypeFloat:
		return fmt.Sprintf("%g", v.Float)
	case TypeString:
		return v.Str
	case TypeBytes:
		return fmt.Sprintf("%x", v.Bytes)
	case TypeBool:
		return fmt.Sprintf("%t", v.Bool)
	case TypeRowID:
		return v.RowID().String()
	}
	return "?"
}

// Compare orders two values.  NULL sorts before everything; mixed numeric
// comparisons promote ints to floats; otherwise mismatched types compare
// by type tag so that sorting is total.
func (v Value) Compare(o Value) int {
	if v.Type == TypeNull || o.Type == TypeNull {
		switch {
		case v.Type == TypeNull && o.Type == TypeNull:
			return 0
		case v.Type == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if v.Type != o.Type {
		if (v.Type == TypeInt && o.Type == TypeFloat) || (v.Type == TypeFloat && o.Type == TypeInt) {
			a, b := v.asFloat(), o.asFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		if v.Type < o.Type {
			return -1
		}
		return 1
	}
	switch v.Type {
	case TypeInt, TypeRowID:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	case TypeFloat:
		switch {
		case v.Float < o.Float:
			return -1
		case v.Float > o.Float:
			return 1
		}
		return 0
	case TypeString:
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		}
		return 0
	case TypeBytes:
		a, b := v.Bytes, o.Bytes
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(a) < len(b):
			return -1
		case len(a) > len(b):
			return 1
		}
		return 0
	case TypeBool:
		switch {
		case !v.Bool && o.Bool:
			return -1
		case v.Bool && !o.Bool:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

func (v Value) asFloat() float64 {
	if v.Type == TypeInt {
		return float64(v.Int)
	}
	return v.Float
}

// Row is an ordered tuple of values matching a table schema.
type Row []Value

// Clone deep-copies a row, including byte slices.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i := range out {
		if out[i].Type == TypeBytes {
			b := make([]byte, len(out[i].Bytes))
			copy(b, out[i].Bytes)
			out[i].Bytes = b
		}
	}
	return out
}

// Record format.  A record carries no types and no column count — both
// come from the table's Schema — only which columns are NULL and the
// payloads of those that are not:
//
//	+--------------------+-----------+-----------+-----
//	| null bitmap        | payload   | payload   | ...   non-NULL columns,
//	| ceil(ncols/8) B    | of col i  | of col j  |       in schema order
//	+--------------------+-----------+-----------+-----
//
// Bit i%8 of bitmap byte i/8 is set when column i is NULL; a NULL column
// has no payload at all.  Payloads by column type:
//
//	INT     zigzag varint
//	FLOAT   8 bytes, little-endian IEEE 754
//	STRING  uvarint(length<<1 | coded), then length bytes: the string
//	        itself (coded = 0), or its codes under the table's symbol
//	        table (coded = 1), written only when they are shorter
//	BYTES   uvarint length, then the bytes
//	BOOL    1 byte, 0 or 1
//	ROWID   near, 1 byte 0zzzzzzz: the zigzag of the slot distance from
//	        the record to a row on its own page, −64 to 63; or far,
//	        6 bytes: slot | 0x8000 big-endian u16, page u32 little-endian
//	        (see RowIDSize)
//
// A near ROWID is relative to the record's own RowID, so decoding takes
// the RowID the record was read from; a coded STRING is read with the
// symbol table of the table's Schema (see SymbolTable), so decoding a
// table's records takes its Schema as Table.Schema returns it.

// Encode serialises a row that satisfies s.Validate.  Every ROWID is
// written far: only the caller that placed a record knows its RowID.
func (s Schema) Encode(r Row) []byte {
	rec, _, _ := s.EncodeOffsets(nil, nil, r, ZeroRowID, 0)
	return rec
}

// EncodeOffsets is the single definition of the record format.  It
// appends to dst the record of r at at, and returns the extended buffer:
// the record is buf[len(dst):].  It is Encode, except that each non-NULL
// ROWID column whose bit is set in near (bit i for column i, the first
// 64 columns) gets a near payload if one byte reaches its target from
// at, and that offs, unless nil, receives per column the byte offset of
// that column's payload within the record (-1 for a NULL, which has
// none).  A caller that learns a ROWID late — the
// XML store's link columns, known only once the run is placed — encodes
// a zero RowID at ZeroRowID, which is near wherever its bit asks, and
// patches those bytes directly with PutNearRowID or PutRowID, whichever
// width it encoded, instead of re-encoding.  A caller encoding many
// records appends them all to one buffer.  raw is the bytes of r's
// STRING values, and stored what their payloads spend after their
// lengths — the strings, or their codes; Table.InsertRun takes both
// summed over its run.
func (s Schema) EncodeOffsets(dst []byte, offs []int, r Row, at RowID, near uint64) (buf []byte, raw, stored int) {
	start := len(dst)
	nb := (len(r) + 7) / 8
	size := nb + 4*len(r)
	for i := range r {
		size += len(r[i].Str) + len(r[i].Bytes)
	}
	buf = slices.Grow(dst, size)[:start+nb]
	clear(buf[start:])
	for i := range r {
		v := &r[i] // a Value is 72 bytes: not copied
		if v.Type == TypeNull {
			buf[start+i/8] |= 1 << (i % 8)
			if offs != nil {
				offs[i] = -1
			}
			continue
		}
		if offs != nil {
			offs[i] = len(buf) - start
		}
		switch s.Columns[i].Type {
		case TypeInt:
			buf = binary.AppendVarint(buf, v.Int)
		case TypeFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case TypeString:
			var n int
			buf, n = s.appendString(buf, v.Str)
			raw += len(v.Str)
			stored += n
		case TypeBytes:
			buf = binary.AppendUvarint(buf, uint64(len(v.Bytes)))
			buf = append(buf, v.Bytes...)
		case TypeBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case TypeRowID:
			if z, ok := nearCode(at, v.RowID()); ok && near&(1<<i) != 0 {
				buf = append(buf, z)
			} else {
				buf = append(buf, make([]byte, RowIDSize)...)
				PutRowID(buf[len(buf)-RowIDSize:], v.RowID())
			}
		}
	}
	return buf, raw, stored
}

// appendString appends a STRING payload, and returns the bytes it spent
// after the length: the string's codes when the schema has a symbol table
// and they are shorter, else the string.  The codes go in first, where
// the payload starts, and move up by the width of the length that then
// goes before them.
func (s Schema) appendString(buf []byte, str string) ([]byte, int) {
	if s.syms != nil {
		mark := len(buf)
		if coded, ok := s.syms.appendCodes(buf, str, len(str)); ok {
			n := len(coded) - mark
			var hdr [binary.MaxVarintLen64]byte
			h := binary.PutUvarint(hdr[:], uint64(n)<<1|1)
			buf = append(coded, hdr[:h]...)
			copy(buf[mark+h:], buf[mark:mark+n])
			copy(buf[mark:], hdr[:h])
			return buf, n
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(str))<<1)
	return append(buf, str...), len(str)
}

// DecodeRow parses the record at at, of a table with schema s.
func DecodeRow(s Schema, at RowID, b []byte) (Row, error) {
	row := make(Row, len(s.Columns))
	if err := DecodeRowInto(s, at, b, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto decodes the record at at (the RowID a near ROWID counts
// its slot distance from) into a caller-provided row of the schema's
// arity, avoiding the per-fetch Row allocation of DecodeRow — callers
// with a fixed schema keep an array on the stack.  String and byte
// payloads are copied, never aliased, so the decoded values outlive the
// source buffer; a coded string is decoded with s's symbol table, sized
// first, so it too is one allocation.  The record must be exactly one
// row: a bitmap bit past the last column, or bytes left over after it,
// are an error.
func DecodeRowInto(s Schema, at RowID, b []byte, row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("ordbms: schema has %d columns, caller expects %d", len(s.Columns), len(row))
	}
	pos := (len(row) + 7) / 8
	if len(b) < pos {
		return fmt.Errorf("ordbms: record of %d bytes is shorter than its null bitmap", len(b))
	}
	if n := len(row) % 8; n != 0 && b[pos-1]>>n != 0 {
		return fmt.Errorf("ordbms: null bitmap marks columns past the schema's %d", len(row))
	}
	for i, c := range s.Columns {
		if b[i/8]&(1<<(i%8)) != 0 {
			row[i] = Value{}
			continue
		}
		v := Value{Type: c.Type}
		switch c.Type {
		case TypeInt:
			x, m := binary.Varint(b[pos:])
			if m <= 0 {
				return fmt.Errorf("ordbms: corrupt int at column %d", i)
			}
			v.Int = x
			pos += m
		case TypeFloat:
			if pos+8 > len(b) {
				return fmt.Errorf("ordbms: corrupt float at column %d", i)
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
			pos += 8
		case TypeString, TypeBytes:
			l, m := binary.Uvarint(b[pos:])
			coded := false
			if c.Type == TypeString {
				coded, l = l&1 != 0, l>>1
			}
			if m <= 0 || l > uint64(len(b)-pos-m) {
				return fmt.Errorf("ordbms: corrupt %v at column %d", c.Type, i)
			}
			pos += m
			switch {
			case coded:
				var ok bool
				if v.Str, ok = s.syms.decode(b[pos : pos+int(l)]); !ok {
					return fmt.Errorf("ordbms: corrupt coded string at column %d", i)
				}
			case c.Type == TypeString:
				// The payload copy is the documented contract: decoded
				// values outlive the page latch.
				v.Str = string(b[pos : pos+int(l)])
			default:
				// A payload copy, same contract as strings.
				v.Bytes = append([]byte(nil), b[pos:pos+int(l)]...)
			}
			pos += int(l)
		case TypeBool:
			if pos >= len(b) {
				return fmt.Errorf("ordbms: corrupt bool at column %d", i)
			}
			v.Bool = b[pos] == 1
			pos++
		case TypeRowID:
			rid, m := getRowID(b[pos:], at)
			if m == 0 {
				return fmt.Errorf("ordbms: corrupt rowid at column %d", i)
			}
			v.Int = int64(rid.Uint64())
			pos += m
		default:
			return fmt.Errorf("ordbms: column %d has no storable type (%v)", i, c.Type)
		}
		row[i] = v
	}
	if pos != len(b) {
		return fmt.Errorf("ordbms: %d bytes after the last column", len(b)-pos)
	}
	return nil
}
