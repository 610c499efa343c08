package xmlstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"netmark/internal/ordbms"
	"netmark/internal/textindex"
)

// FuzzApplySnapshot throws hostile payloads at the xmlstore.nmsnap
// decoder.  The frame's CRC has already passed by the time a payload gets
// here, so whatever the bytes say, the only acceptable outcomes are
// applied or refused ("corrupt", then the scan rebuild): no panic, and no
// allocation larger than the payload could describe.  A payload the
// store wrote must apply and re-encode to the same bytes.
func FuzzApplySnapshot(f *testing.F) {
	s := memStore(f)
	ingest(f, s, "sample.html", sampleHTML)
	real := s.encodeSnapshot()
	f.Add(real)
	f.Add(real[:len(real)-1])
	f.Add([]byte{})
	// Three zero counters, an empty text index, one heading whose length
	// wraps int negative.
	huge := textindex.New().AppendSnapshot([]byte{0, 0, 0})
	huge = binary.AppendUvarint(huge, 1)
	f.Add(binary.AppendUvarint(huge, ^uint64(0)))
	// No headings, then three node→CONTEXT entries whose heading deltas
	// climb past 48 bits, fall below zero and cancel out.
	wrap := textindex.New().AppendSnapshot([]byte{0, 0, 0})
	wrap = append(wrap, 0, 3)
	for _, d := range []int64{1 << 50, -(1<<50 + 9), 9} {
		wrap = binary.AppendVarint(binary.AppendUvarint(wrap, 1), d)
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, p []byte) {
		s := &Store{ctxGens: make(map[string]uint64)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.applySnapshot(p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(p)) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(p), grew)
		}
		if err != nil {
			return
		}
		enc := s.encodeSnapshot()
		if bytes.Equal(p, real) && !bytes.Equal(enc, real) {
			t.Fatalf("the store's own snapshot re-encodes differently")
		}
		// Whatever applies settles after one round trip.
		again := &Store{ctxGens: make(map[string]uint64)}
		if err := again.applySnapshot(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not apply: %v", err)
		}
		if !bytes.Equal(again.encodeSnapshot(), enc) {
			t.Fatalf("snapshot re-encodes differently after a round trip")
		}
	})
}

// FuzzDecodeRow throws hostile bytes, read from any page, at the record
// decoder under the two schemas every stored byte is read with.  It must
// never panic, never build values bigger than the bytes it was given,
// and whatever it accepts must be a row: one that validates, re-encodes
// and decodes back to itself (Decode∘Encode = id on valid rows; the
// bytes may differ, since a varint has more than one spelling and Encode
// writes every ROWID far, 4 bytes wider than a near one).
func FuzzDecodeRow(f *testing.F) {
	golden, _ := hex.DecodeString(goldenRecord)
	page := goldenNode.RowID.Page
	f.Add(golden, page, false)
	f.Add(golden[:len(golden)-1], page, false) // last link cut short
	f.Add(append(golden[:len(golden):len(golden)], 0), page, false)
	f.Add([]byte{0xFF, 0xFF}, page, false) // every column NULL
	f.Add([]byte{0xFF}, page, true)
	f.Add([]byte{}, page, true)
	f.Add([]byte{0x7F, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, page, false) // a string longer than the record
	// Every boundary of a ROWID payload, far in each link column and in
	// DOC.rootrowid, and near in each link column: zero, the largest
	// slot, the largest page, both — read from the largest page too.
	rids := []ordbms.RowID{{}, {Slot: 1<<15 - 1}, {Page: 1<<32 - 1}, {Page: 1<<32 - 1, Slot: 1<<15 - 1}}
	for i, rid := range rids {
		links := [4]ordbms.Value{ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null()}
		links[i] = ordbms.R(rid)
		row := ordbms.Row{
			ordbms.I(1 << 62), ordbms.I(0), ordbms.S(""), ordbms.Null(),
			links[0], links[1], links[2], links[3], ordbms.S(`a="b"`),
		}
		f.Add(xmlSchema.Encode(row), rid.Page, false)
		f.Add(docSchema.Encode(ordbms.Row{
			ordbms.I(1), ordbms.S("f.html"), ordbms.I(0), ordbms.I(0), ordbms.S("html"), ordbms.Null(), ordbms.R(rid), ordbms.I(3),
		}), rid.Page, true)
		near, _ := xmlSchema.EncodeOffsets(row, allNear)
		f.Add(near, rid.Page, false)
	}
	f.Fuzz(func(t *testing.T, b []byte, page uint32, doc bool) {
		schema := xmlSchema
		if doc {
			schema = docSchema
		}
		row, err := ordbms.DecodeRow(schema, page, b)
		if err != nil {
			return
		}
		payload, links := 0, 0
		for i, v := range row {
			payload += len(v.Str) + len(v.Bytes)
			if schema.Columns[i].Type == ordbms.TypeRowID {
				links++
			}
		}
		if payload > len(b) {
			t.Fatalf("%d bytes decoded into %d bytes of strings", len(b), payload)
		}
		if err := schema.Validate(row); err != nil {
			t.Fatalf("decoded row does not fit its schema: %v", err)
		}
		enc := schema.Encode(row)
		if len(enc) > len(b)+(ordbms.RowIDSize-ordbms.NearRowIDSize)*links {
			t.Fatalf("%d bytes re-encode to %d", len(b), len(enc))
		}
		again, err := ordbms.DecodeRow(schema, page+1, enc) // far links name their page
		if err != nil {
			t.Fatalf("re-encoded row does not decode: %v", err)
		}
		if !bytes.Equal(schema.Encode(again), enc) {
			t.Fatalf("row %v re-encodes differently after a round trip", row)
		}
		for i := range row {
			if !row[i].Equal(again[i]) || row[i].Type != again[i].Type {
				t.Fatalf("column %d: %v became %v", i, row[i], again[i])
			}
		}
		if !doc {
			nodeFromCols(ordbms.ZeroRowID, row) // attrs parsing must survive whatever a string column held
		}
	})
}
