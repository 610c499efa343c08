package ordbms

import (
	"path/filepath"
	"testing"

	"netmark/internal/vfs"
)

// FetchView + DecodeRowInto over a row of ints, ROWIDs and NULLs is the
// engine's declared zero-allocation read path: page pin on a resident
// page, latch, decode into caller stack storage.  Guard it.
func TestFetchViewDecodeIntoZeroAlloc(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, err := NewSchema(
		Column{"a", TypeInt},
		Column{"b", TypeInt},
		Column{"c", TypeInt},
		Column{"link", TypeRowID},
		Column{"nolink", TypeRowID},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tbl.Insert(Row{I(7), I(11), I(13), R(RowID{Page: 3, Slot: 9}), Null()})
	if err != nil {
		t.Fatal(err)
	}

	var cols [5]Value
	fetch := func() {
		err := tbl.FetchView(rid, func(rec []byte) error {
			return DecodeRowInto(schema, rid, rec, cols[:])
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fetch() // page resident, buffers warm
	if n := testing.AllocsPerRun(500, fetch); n != 0 {
		t.Errorf("FetchView+DecodeRowInto = %.2f allocs/op, want 0", n)
	}
	if cols[0].Int != 7 || cols[2].Int != 13 || cols[3].RowID() != (RowID{Page: 3, Slot: 9}) || !cols[4].IsNull() {
		t.Fatalf("decoded row = %+v", cols)
	}
}

// A coded string decodes into one allocation, the string itself, as a
// raw one does: the decoder sizes it before it writes it.
func TestCodedStringDecodesInOneAlloc(t *testing.T) {
	st := trainSymbols(prose(1, 400))
	schema := MustSchema(Column{"a", TypeInt}, Column{"s", TypeString}).WithSymbols(st)
	text := prose(2, 1)[0]
	rec := schema.Encode(Row{I(7), S(text)})
	if len(rec) >= len(text) {
		t.Fatalf("%q is %d bytes coded", text, len(rec))
	}
	var cols [2]Value
	decode := func() {
		if err := DecodeRowInto(schema, RowID{Page: 1}, rec, cols[:]); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, decode); n != 1 {
		t.Errorf("decoding a coded string = %.2f allocs, want 1", n)
	}
	if cols[1].Str != text {
		t.Fatalf("decoded %q, want %q", cols[1].Str, text)
	}
}

// A WAL append frames its record straight into the log buffer and CRCs
// the bytes where they lie: once the buffer has grown to a batch's size,
// logging a page of rows or a delete run allocates nothing.
func TestWALAppendZeroAlloc(t *testing.T) {
	w, err := OpenWAL(vfs.OS, filepath.Join(t.TempDir(), "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, 96)
	rows := make([]runRow, 40)
	for i := range rows {
		rows[i] = runRow{slot: uint16(i), idx: int32(i)}
	}
	run := []*runPage{{f: &Frame{PageNo: 7}, rows: rows}}
	recs := make([][]byte, len(rows))
	for i := range recs {
		recs[i] = rec
	}
	dels := []RowID{{Page: 7, Slot: 3}, {Page: 7, Slot: 4}, {Page: 7, Slot: 9}, {Page: 8, Slot: 0}}
	batch := func() {
		w.LogInsertRun(run, recs)
		w.LogDeleteRun(dels[:1])
		lsn := w.LogDeleteRun(dels)
		if err := w.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	batch() // grow the buffer once
	if n := testing.AllocsPerRun(200, batch); n != 0 {
		t.Errorf("three WAL appends + flush = %.2f allocs, want 0", n)
	}
}
