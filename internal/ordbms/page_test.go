package ordbms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	p := NewPage()
	rec := []byte("hello world")
	slot, err := p.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatalf("got %q", got)
	}
}

func TestPageEmptyRecordRejected(t *testing.T) {
	p := NewPage()
	if _, err := p.Insert(nil); err == nil {
		t.Fatal("empty record should be rejected")
	}
}

func TestPageFillsAndReportsFull(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 100)
	n := 0
	for {
		_, err := p.Insert(rec)
		if err == errPageFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	// 8192-byte page, 16-byte header, 102 bytes per record+slot: 80.
	if n != 80 {
		t.Fatalf("fit %d 100-byte records, expected 80", n)
	}
	if p.FreeSpace() >= 102 {
		t.Fatalf("page claims %d free after filling", p.FreeSpace())
	}
}

// A dead slot is not reused; its neighbours keep their bytes and lengths.
func TestPageDeleteAndSlotReuse(t *testing.T) {
	p := NewPage()
	recs := [][]byte{[]byte("aaaa"), []byte("bbbbbbb"), []byte("c")}
	for i, rec := range recs {
		if s, err := p.Insert(rec); s != i || err != nil {
			t.Fatalf("insert %d took slot %d: %v", i, s, err)
		}
	}
	free := p.FreeSpace()
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); err != ErrRecordDeleted {
		t.Fatalf("want ErrRecordDeleted, got %v", err)
	}
	if err := p.Delete(1); err != ErrRecordDeleted {
		t.Fatalf("double delete: %v", err)
	}
	if p.FreeSpace() != free {
		t.Fatalf("a delete changed free space from %d to %d", free, p.FreeSpace())
	}
	if s, err := p.Insert([]byte("dd")); s != 3 || err != nil {
		t.Fatalf("insert after a delete took slot %d (%v), want the new slot 3", s, err)
	}
	for i, want := range [][]byte{recs[0], nil, recs[2], []byte("dd")} {
		if got, err := p.Get(i); want != nil && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("slot %d reads %q (%v), want %q", i, got, err, want)
		}
	}
}

func TestPageCompactPreservesSlots(t *testing.T) {
	p := NewPage()
	var slots []int
	for i := 0; i < 20; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 50))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Delete every other record.
	for i := 0; i < 20; i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FreeSpace()
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := p.FreeSpace(); after != before+10*50 {
		t.Fatalf("compaction reclaimed %d bytes, want the 500 of 10 dead records", after-before)
	}
	for i := 0; i < 20; i += 2 {
		if _, err := p.Get(slots[i]); err != ErrRecordDeleted {
			t.Fatalf("dead slot %d after compact: %v", slots[i], err)
		}
	}
	// Survivors keep their slot numbers and contents.
	for i := 1; i < 20; i += 2 {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatalf("slot %d: %v", slots[i], err)
		}
		want := bytes.Repeat([]byte{byte('a' + i)}, 50)
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d corrupted after compact", slots[i])
		}
	}
}

// A dead slot 0, compacted, has zero length: its entry holds PageSize,
// dead, and the slots after it read as before.
func TestPageCompactedDeadSlotZero(t *testing.T) {
	p := NewPage()
	for _, rec := range []string{"zero", "one", "two"} {
		if _, err := p.Insert([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if e := binary.LittleEndian.Uint16(p.Data()[pageHeaderSize:]); e != PageSize|slotDead {
		t.Fatalf("slot 0's entry is %#x, want %#x", e, PageSize|slotDead)
	}
	if _, err := p.Get(0); err != ErrRecordDeleted {
		t.Fatalf("slot 0: %v, want ErrRecordDeleted", err)
	}
	for i, want := range []string{"", "one", "two"} {
		if got, err := p.Get(i); i > 0 && (err != nil || string(got) != want) {
			t.Fatalf("slot %d reads %q, %v", i, got, err)
		}
	}
	if got := p.FreeSpace(); got != PageSize-pageHeaderSize-3*slotSize-len("onetwo")-slotSize {
		t.Fatalf("%d bytes free after compacting away slot 0", got)
	}
}

// A page whose directory breaks the layout is reported, never sliced
// past: a count that runs the directory off the page, an offset above
// the slot before it, an offset inside the directory.
func TestPageCorruptDirectory(t *testing.T) {
	for name, corrupt := range map[string]func(b []byte){
		"count":      func(b []byte) { binary.LittleEndian.PutUint16(b, maxSlots+1) },
		"rising":     func(b []byte) { binary.LittleEndian.PutUint16(b[pageHeaderSize+2:], PageSize-1) },
		"past page":  func(b []byte) { binary.LittleEndian.PutUint16(b[pageHeaderSize:], PageSize+8) },
		"into slots": func(b []byte) { binary.LittleEndian.PutUint16(b[pageHeaderSize+2:], pageHeaderSize) },
	} {
		p := NewPage()
		for _, rec := range []string{"zero", "one", "two"} {
			p.Insert([]byte(rec))
		}
		corrupt(p.Data())
		if _, err := p.Get(1); !errors.Is(err, errCorruptPage) {
			t.Errorf("%s: Get = %v, want a corrupt-page error", name, err)
		}
		if err := p.LiveRecords(func(int, []byte) bool { return true }); !errors.Is(err, errCorruptPage) {
			t.Errorf("%s: LiveRecords = %v, want a corrupt-page error", name, err)
		}
	}
}

func TestPageGetOutOfRange(t *testing.T) {
	p := NewPage()
	if _, err := p.Get(0); err == nil {
		t.Fatal("slot 0 of empty page should error")
	}
	if _, err := p.Get(-1); err == nil {
		t.Fatal("negative slot should error")
	}
}

func TestPageLSNRoundTrip(t *testing.T) {
	p := NewPage()
	p.SetLSN(0xDEADBEEFCAFE)
	if p.LSN() != 0xDEADBEEFCAFE {
		t.Fatalf("LSN = %x", p.LSN())
	}
	// LSN survives insert traffic.
	p.Insert([]byte("x"))
	if p.LSN() != 0xDEADBEEFCAFE {
		t.Fatal("insert clobbered LSN")
	}
}

// Property: any sequence of inserts and deletes leaves live records
// readable with exactly their original contents.
func TestQuickPageWorkload(t *testing.T) {
	f := func(sizes []uint8, deleteMask uint32) bool {
		p := NewPage()
		type live struct {
			slot int
			data []byte
		}
		var lives []live
		for i, sz := range sizes {
			n := int(sz)%200 + 1
			rec := bytes.Repeat([]byte{byte(i)}, n)
			slot, err := p.Insert(rec)
			if err == errPageFull {
				p.Compact()
				slot, err = p.Insert(rec)
				if err == errPageFull {
					break
				}
			}
			if err != nil {
				return false
			}
			lives = append(lives, live{slot, rec})
			if deleteMask&(1<<(uint(i)%32)) != 0 && len(lives) > 1 {
				victim := lives[0]
				lives = lives[1:]
				if p.Delete(victim.slot) != nil {
					return false
				}
			}
		}
		for _, l := range lives {
			got, err := p.Get(l.slot)
			if err != nil || !bytes.Equal(got, l.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// schemaOf builds the schema a row's own values imply (a NULL column is
// declared INT), for codec tests that start from values.
func schemaOf(r Row) Schema {
	cols := make([]Column, len(r))
	for i, v := range r {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: v.Type}
		if v.IsNull() {
			cols[i].Type = TypeInt
		}
	}
	return MustSchema(cols...)
}

func TestValueEncodeDecodeRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{I(0)},
		{I(-1), I(1), I(1 << 60)},
		{S(""), S("hello"), S("üñíçødé 日本語")},
		{F(3.14159), F(-0.0), F(1e308)},
		{Bl(true), Bl(false)},
		{B(nil), B([]byte{0, 1, 2, 255})},
		{Null(), I(7), Null(), S("x")},
		{R(ZeroRowID), R(RowID{Page: 1<<32 - 1, Slot: 1<<15 - 1}), Null(), R(RowID{Page: 7, Slot: 3})},
		{I(1), I(2), I(3), I(4), I(5), I(6), I(7), I(8), Null(), S("ninth and tenth cross a bitmap byte")},
	}
	for i, r := range rows {
		schema := schemaOf(r)
		if err := schema.Validate(r); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		enc := schema.Encode(r)
		dec, err := DecodeRow(schema, RowID{Page: 1}, enc)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(dec) != len(r) {
			t.Fatalf("row %d arity", i)
		}
		for j := range r {
			if !dec[j].Equal(r[j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, dec[j], r[j])
			}
		}
	}
	// A slot with the top bit set would collide with a far payload's
	// marker: no page has one, and no row may hold one.
	for _, slot := range []uint16{1 << 15, 1<<16 - 1} {
		r := Row{R(RowID{Page: 7, Slot: slot})}
		if err := schemaOf(r).Validate(r); err == nil {
			t.Fatalf("slot %#x validated", slot)
		}
	}
}

// A near ROWID is the slot distance from the record to its target, one
// zigzag byte, and reads back relative to the RowID the record was read
// from; a far one carries its slot and page.  Both widths sit side by
// side in one record, a near bit the byte cannot honour is written far,
// a distance that leaves the page's slot directory is refused, and so is
// every cut of either payload.
func TestNearRowIDPayload(t *testing.T) {
	schema := MustSchema(Column{"near", TypeRowID}, Column{"far", TypeRowID}, Column{"tail", TypeInt})
	at := RowID{Page: 42, Slot: 100}
	row := Row{R(RowID{Page: 42, Slot: 36}), R(RowID{Page: 9, Slot: 0x1234}), I(-3)}
	offs := make([]int, 3)
	rec, _, _ := schema.EncodeOffsets(nil, offs, row, at, 1<<0|1<<1)
	// Δ = −64 is zigzag 127; page 9 is not the record's, so its near bit
	// is not honoured.
	if want := []byte{0x00, 0x7F, 0x92, 0x34, 9, 0, 0, 0, 0x05}; !bytes.Equal(rec, want) {
		t.Fatalf("record %x, want %x", rec, want)
	}
	if offs[0] != 1 || offs[1] != 2 || offs[2] != 8 {
		t.Fatalf("offsets %v", offs)
	}
	PutNearRowID(rec[offs[0]:], at, RowID{Page: 42, Slot: 163})
	PutRowID(rec[offs[1]:], RowID{Page: 0xA1B2C3D4, Slot: 0x65F6})
	if want := []byte{0x00, 0x7E, 0xE5, 0xF6, 0xD4, 0xC3, 0xB2, 0xA1, 0x05}; !bytes.Equal(rec, want) {
		t.Fatalf("patched record %x, want %x", rec, want)
	}
	got, err := DecodeRow(schema, at, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].RowID() != (RowID{Page: 42, Slot: 163}) || got[1].RowID() != (RowID{Page: 0xA1B2C3D4, Slot: 0x65F6}) || got[2].Int != -3 {
		t.Fatalf("decoded %v", got)
	}
	if again, _ := DecodeRow(schema, RowID{Page: 43, Slot: 5}, rec); again[0].RowID() != (RowID{Page: 43, Slot: 68}) || again[1].RowID() != got[1].RowID() {
		t.Fatalf("read from 43.5: %v", again)
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, err := DecodeRow(schema, at, rec[:cut]); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	// Δ = +63 from the directory's last 63 slots, and Δ = −64 from its
	// first 64, name a slot no page has.
	for _, c := range []struct {
		code byte
		slot uint16
		ok   bool
	}{{0x7E, maxSlots - 64, true}, {0x7E, maxSlots - 63, false}, {0x7F, 64, true}, {0x7F, 63, false}} {
		rec[offs[0]] = c.code
		if _, err := DecodeRow(schema, RowID{Page: 42, Slot: c.slot}, rec); (err == nil) != c.ok {
			t.Fatalf("near code %#x read at slot %d: %v", c.code, c.slot, err)
		}
	}
}

// Near is the same page and at most 63 slots either way.
func TestNearReach(t *testing.T) {
	at := RowID{Page: 7, Slot: 200}
	for _, c := range []struct {
		to   RowID
		near bool
	}{
		{RowID{Page: 7, Slot: 200}, true}, {RowID{Page: 7, Slot: 263}, true}, {RowID{Page: 7, Slot: 137}, true},
		{RowID{Page: 7, Slot: 264}, false}, {RowID{Page: 7, Slot: 136}, false}, {RowID{Page: 8, Slot: 200}, false},
	} {
		if got := Near(at, c.to); got != c.near {
			t.Fatalf("Near(%v, %v) = %v, want %v", at, c.to, got, c.near)
		}
	}
}

func TestDecodeRowCorruption(t *testing.T) {
	row := Row{I(42), S("hello"), R(RowID{Page: 9, Slot: 2})}
	schema := schemaOf(row)
	enc := schema.Encode(row)
	// Truncations must error, never panic: the schema says three columns
	// follow the bitmap, and no prefix holds them all.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRow(schema, RowID{Page: 1}, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	if _, err := DecodeRow(schema, RowID{Page: 1}, append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Three columns use three bitmap bits: a fourth marks a column the
	// schema does not have.
	padded := append([]byte(nil), enc...)
	padded[0] |= 1 << 3
	if _, err := DecodeRow(schema, RowID{Page: 1}, padded); err == nil {
		t.Fatal("bitmap bit past the last column accepted")
	}
}

// Property: Encode/DecodeRow round-trips arbitrary values.
func TestQuickRowRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64, bl bool, by []byte) bool {
		r := Row{I(i), S(s), F(fl), Bl(bl), B(by), Null()}
		schema := schemaOf(r)
		dec, err := DecodeRow(schema, RowID{Page: 1}, schema.Encode(r))
		if err != nil || len(dec) != 6 {
			return false
		}
		// NaN != NaN under Compare; encode bit-exactly instead.
		if fl != fl {
			return dec[2].Float != dec[2].Float
		}
		for j := range r {
			if !dec[j].Equal(r[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{
		Null(), I(-5), I(0), I(7), F(-2.5), F(6.9), F(7.0),
		S(""), S("a"), S("b"), B([]byte{1}), B([]byte{1, 2}), Bl(false), Bl(true),
	}
	for _, a := range vals {
		if a.Compare(a) != 0 {
			t.Fatalf("%v != itself", a)
		}
		for _, b := range vals {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Fatalf("antisymmetry violated: %v vs %v (%d, %d)", a, b, ab, ba)
			}
		}
	}
	// Int/float cross-type ordering.
	if I(7).Compare(F(7.0)) != 0 {
		t.Fatal("7 != 7.0")
	}
	if I(7).Compare(F(6.9)) != 1 {
		t.Fatal("7 should exceed 6.9")
	}
}
