package ordbms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runRecord frames one page section of a walInsertRun payload the way
// WAL.LogInsertRun does.
func runRecord(page uint32, first uint16, recs ...[]byte) []byte {
	p := binary.LittleEndian.AppendUint32(nil, page)
	p = binary.LittleEndian.AppendUint16(p, first)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(recs)))
	for _, rec := range recs {
		p = binary.AppendUvarint(p, uint64(len(rec)))
		p = append(p, rec...)
	}
	return p
}

// FuzzRunRecord feeds nextRunPage and nextRunRow — the splitters both
// Replay's framing check and Recover's apply loop rely on — truncated,
// overlong and arbitrary payloads.  Neither may panic or hand out bytes
// beyond its input; what nextRunPage accepts names slots a page's
// directory can hold, and nextRunRow must split it into exactly the
// promised rows with nothing left over: recovery ignores nextRunRow's ok
// on the strength of that.
func FuzzRunRecord(f *testing.F) {
	one := runRecord(7, 0, []byte("first"), []byte("second row"), []byte{0})
	two := append(append([]byte(nil), one...), runRecord(8, 3, bytes.Repeat([]byte{0xAB}, 300))...)
	twoRows := runRecord(9, 4, []byte("a"), []byte("b"))
	overflow := append(runRecord(9, 0, []byte("x"))[:runPageHeader], bytes.Repeat([]byte{0xFF}, 10)...)
	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)-1])                                               // last row cut short
	f.Add(one[:5])                                                        // cut inside the page header
	f.Add(two[:len(one)+runPageHeader])                                   // second page promises a row it does not have
	f.Add(runRecord(9, 0))                                                // a page with no rows: refused
	f.Add(runRecord(9, 0, nil))                                           // a zero-length row
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xFF, 0xFF})                           // 65535 rows promised, none present
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 0xFF, 0x7F, 'x'})                // row length far past the payload
	f.Add(runRecord(9, 0x7FFF, []byte("a")))                              // first+count past 0x7FFF
	f.Add(runRecord(9, maxSlots-1, []byte("a")))                          // the directory's last entry
	f.Add(runRecord(9, maxSlots, []byte("a")))                            // one past it
	f.Add(append(overflow, 0x01))                                         // a row length that overflows a uvarint
	f.Add(append(twoRows[:6:6], append([]byte{3, 0}, twoRows[8:]...)...)) // three rows promised, two present
	f.Fuzz(func(t *testing.T, p []byte) {
		for rest := p; len(rest) > 0; {
			_, first, rows, tail, ok := nextRunPage(rest)
			if !ok {
				return
			}
			if len(rest) < runPageHeader || len(rows)+len(tail)+runPageHeader != len(rest) || !bytes.HasSuffix(rest, tail) {
				t.Fatalf("page section of %d bytes split into header + %d + %d", len(rest), len(rows), len(tail))
			}
			want := int(binary.LittleEndian.Uint16(rest[6:8]))
			if int(first)+want > maxSlots {
				t.Fatalf("section accepted for slots %d to %d, past the directory's %d", first, int(first)+want, maxSlots)
			}
			got := 0
			for len(rows) > 0 {
				rec, more, ok := nextRunRow(rows)
				if !ok {
					t.Fatalf("nextRunPage accepted rows nextRunRow rejects at row %d", got)
				}
				n, sz := binary.Uvarint(rows)
				if len(rec) == 0 || uint64(len(rec)) != n || sz+len(rec)+len(more) != len(rows) {
					t.Fatalf("row of %d bytes out of %d, %d left", len(rec), len(rows), len(more))
				}
				rows = more
				got++
			}
			if got != want {
				t.Fatalf("page promised %d rows, split into %d", want, got)
			}
			rest = tail
		}
	})
}

// deleteSection frames one page section of a walDeleteRun payload.
func deleteSection(page uint32, first, n uint16) []byte {
	p := binary.LittleEndian.AppendUint32(nil, page)
	p = binary.LittleEndian.AppendUint16(p, first)
	return binary.LittleEndian.AppendUint16(p, n)
}

// FuzzDeleteRunRecord appends a walDeleteRun record with an arbitrary
// payload — framed, checksummed and deflated into a frame as the log's
// writer does it — to the log of a small checkpointed store, and opens it.  Open never
// panics.  A payload that does not split into whole page sections, or
// that names a page the data file does not have or a slot past its
// page's directory, is an Open error.  Any other payload opens, and
// exactly the rows it names are gone.
func FuzzDeleteRunRecord(f *testing.F) {
	src := f.TempDir()
	db, err := Open(Options{Dir: src})
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeString}))
	if err != nil {
		f.Fatal(err)
	}
	var rids []RowID // three pages of rows, the second of them deleted
	for i := 0; i < 20; i++ {
		rid, err := tbl.Insert(Row{S(string(bytes.Repeat([]byte{byte('a' + i)}, 1000)))})
		if err != nil {
			f.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tbl.Delete(rids[1]); err != nil {
		f.Fatal(err)
	}
	numPages := db.file.NumPages() // the data file's size says nothing of it: pages are compressed
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range []string{"data.nmdb", catalogName, "wal.nmlog"} {
		if files[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	slots := make(map[uint32]int) // page → its directory's size
	for _, rid := range rids {
		slots[rid.Page] = max(slots[rid.Page], int(rid.Slot)+1)
	}
	last := rids[len(rids)-1]

	valid := append(deleteSection(rids[0].Page, 0, 3), deleteSection(last.Page, last.Slot, 1)...)
	f.Add(valid)
	f.Add([]byte(nil))                                           // a run of no rows
	f.Add(valid[:5])                                             // a section cut short
	f.Add(deleteSection(rids[0].Page, 0, 0))                     // a section of no slots
	f.Add(deleteSection(rids[0].Page, maxSlots-1, 2))            // first+count past the directory's room
	f.Add(deleteSection(last.Page, uint16(slots[last.Page]), 1)) // a slot past the page's directory
	f.Add(deleteSection(numPages, 0, 1))                         // a page past the data file
	f.Add(deleteSection(0, 0, 1))                                // the reserved page
	f.Add(deleteSection(rids[1].Page, rids[1].Slot, 1))          // a row deleted already
	f.Fuzz(func(t *testing.T, payload []byte) {
		// What the payload should do: gone is every slot it names, bad
		// that it cannot open.
		gone := make(map[RowID]bool)
		bad := !runFramed(walDeleteRun, payload)
		for rest := payload; !bad && len(rest) > 0; {
			no, first, n, tail, _ := nextRunSection(rest)
			if no == 0 || no >= numPages || int(first)+n > slots[no] {
				bad = true
			}
			for s := int(first); s < int(first)+n; s++ {
				gone[RowID{Page: no, Slot: uint16(s)}] = true
			}
			rest = tail
		}

		dir := t.TempDir()
		for name, data := range files {
			if name == "wal.nmlog" {
				body := append([]byte{walDeleteRun}, payload...)
				rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
				rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
				var fw frameWriter
				data = append(append([]byte(nil), data...), fw.frame(append(rec, body...))...)
				fw.release()
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(Options{Dir: dir})
		if bad {
			if err == nil {
				db.CloseDiscard()
				t.Fatal("a delete run naming what the store does not have opened")
			}
			return
		}
		if err != nil {
			t.Fatalf("a delete run of rows the store has: %v", err)
		}
		defer db.CloseDiscard()
		for i, rid := range rids {
			_, err := db.Table("t").Fetch(rid)
			if want := gone[rid] || i == 1; (err == ErrRecordDeleted) != want {
				t.Fatalf("row %v after the run: %v, deleted = %v", rid, err, want)
			}
		}
	})
}

// at is where a record Get or LiveRecords returned starts on its page:
// both slice page memory through the page's end.
func at(rec []byte) int { return PageSize - cap(rec) }

// FuzzPage reads arbitrary page bytes and runs arbitrary Insert, Delete
// and Compact sequences on a fresh page.
//
// Read side: NumSlots, Get, LiveRecords, plan, FreeSpace and Insert never
// panic, and every record they hand out lies past the slot directory,
// inside the page, between its slot's entry and the one before it.
//
// Write side: after every operation each live record reads back exactly,
// each deleted one is ErrRecordDeleted, and the layout holds — offsets
// fall with slot number and the record area is exactly the bytes held.
func FuzzPage(f *testing.F) {
	built := NewPage()
	for i := 0; i < 6; i++ {
		built.Insert(bytes.Repeat([]byte{byte('a' + i)}, 10*i+1))
	}
	built.Delete(0)
	built.Delete(3)
	compacted := *built
	compacted.Compact()
	withCount := func(p Page, n uint16) []byte {
		binary.LittleEndian.PutUint16(p.data[0:2], n)
		return p.data[:]
	}
	withEntry := func(p Page, i int, v uint16) []byte {
		binary.LittleEndian.PutUint16(p.data[pageHeaderSize+2*i:], v)
		return p.data[:]
	}
	allDead := NewPage()
	for i := 0; i < maxSlots; i++ {
		allDead.setEntry(i, PageSize, true)
	}
	f.Add([]byte(nil), []byte{0, 1, 2, 3})
	f.Add(append([]byte(nil), built.data[:]...), []byte{0, 0, 0, 6, 3, 1})
	f.Add(append([]byte(nil), compacted.data[:]...), []byte{2, 2, 2, 3, 0})
	f.Add(withCount(*built, 0xFFFF), []byte{})                  // a count past the page
	f.Add(withCount(*built, maxSlots+1), []byte{})              // one entry too many
	f.Add(withCount(*allDead, maxSlots), []byte{})              // a full directory of empty dead slots
	f.Add(withEntry(*built, 2, PageSize+1), []byte{})           // an offset past the page
	f.Add(withEntry(*built, 4, 4), []byte{})                    // an offset inside the directory
	f.Add(withEntry(*built, 1, 8100), []byte{})                 // an offset above the slot before
	f.Add(withEntry(*built, 5, 0x7FFF), []byte{})               // the last offset, far past the page
	f.Add(withCount(*built, 3), bytes.Repeat([]byte{0, 3}, 40)) // a cut directory
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var p Page
		copy(p.data[:], data)
		readPage(t, &p)
		if s, err := p.Insert([]byte("new")); err == nil {
			if rec, gerr := p.Get(s); gerr != nil || string(rec) != "new" {
				t.Fatalf("inserted slot %d reads %q, %v", s, rec, gerr)
			}
		}
		writePage(t, ops)
	})
}

// readPage checks the read side of FuzzPage on p.
func readPage(t *testing.T, p *Page) {
	n, lower := p.NumSlots(), pageHeaderSize+slotSize*p.NumSlots()
	pp := p.plan()
	if free := p.FreeSpace(); pp.gap < 0 || free < 0 || free != pp.freeSpace() || lower <= PageSize && pp.gap > PageSize-lower {
		t.Fatalf("plan gap %d, FreeSpace %d, directory ends at %d", pp.gap, free, lower)
	}
	inPlace := func(slot int, rec []byte) {
		t.Helper()
		off := at(rec)
		if off < lower || off+len(rec) > PageSize {
			t.Fatalf("slot %d: %d bytes at %d, outside %d to %d", slot, len(rec), off, lower, PageSize)
		}
		end := PageSize
		if slot > 0 {
			end = int(binary.LittleEndian.Uint16(p.data[pageHeaderSize+2*slot-2:]) &^ slotDead)
		}
		if want := int(binary.LittleEndian.Uint16(p.data[pageHeaderSize+2*slot:]) &^ slotDead); off != want || off+len(rec) != end {
			t.Fatalf("slot %d: %d to %d, its entries say %d to %d", slot, off, off+len(rec), want, end)
		}
	}
	last := n + 1
	if lower > PageSize { // every Get fails on a directory off the page
		last = 1
	}
	for slot := -1; slot <= last; slot++ {
		if rec, err := p.Get(slot); err == nil {
			inPlace(slot, rec)
		}
	}
	lerr := p.LiveRecords(func(slot int, rec []byte) bool {
		inPlace(slot, rec)
		if got, err := p.Get(slot); err != nil || at(got) != at(rec) || len(got) != len(rec) {
			t.Fatalf("LiveRecords and Get disagree on slot %d: %v", slot, err)
		}
		return true
	})
	if lerr != nil && !errors.Is(lerr, errCorruptPage) {
		t.Fatalf("LiveRecords: %v, want a corrupt-page error", lerr)
	}
}

// writePage checks the write side of FuzzPage: ops, two bytes per
// operation, run on a fresh page.  Every prefix of ops is a sequence
// too, so the full check runs once, at the end.
func writePage(t *testing.T, ops []byte) {
	p := NewPage()
	var recs [][]byte // by slot; nil once deleted
	held := 0         // bytes the record area holds, dead records' included
	for i := 0; i+1 < len(ops); i += 2 {
		switch arg := int(ops[i+1]); ops[i] % 4 {
		case 0, 1:
			rec := bytes.Repeat([]byte{byte(i)}, 1+arg*int(ops[i]/4%32))
			slot, err := p.Insert(rec)
			if err == errPageFull {
				if p.FreeSpace() >= len(rec) {
					t.Fatalf("a %d-byte record refused with %d free", len(rec), p.FreeSpace())
				}
				continue
			}
			if err != nil || slot != len(recs) {
				t.Fatalf("insert took slot %d of %d: %v", slot, len(recs), err)
			}
			recs, held = append(recs, rec), held+len(rec)
		case 2:
			if len(recs) > 0 && p.Delete(arg%len(recs)) == nil {
				recs[arg%len(recs)] = nil
			}
		case 3:
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
			held = 0
			for _, rec := range recs {
				held += len(rec)
			}
		}
		if p.NumSlots() != len(recs) || p.FreeSpace() != max(PageSize-pageHeaderSize-slotSize*len(recs)-held-slotSize, 0) {
			t.Fatalf("after op %d: %d slots and %d free, want %d and %d held", i/2, p.NumSlots(), p.FreeSpace(), len(recs), held)
		}
	}
	prev := PageSize
	for slot, want := range recs {
		off, _ := p.entry(slot)
		got, err := p.Get(slot)
		if off > prev || want == nil && err != ErrRecordDeleted || want != nil && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("slot %d at %d (the slot before at %d) reads %q, %v; want %q", slot, off, prev, got, err, want)
		}
		prev = off
	}
	if prev != PageSize-held {
		t.Fatalf("the record area starts at %d, want %d", prev, PageSize-held)
	}
}

// FuzzSymbolCodec throws arbitrary table bytes and arbitrary input at the
// string codec.  Nothing may panic.  A table ParseSymbols accepts
// serialises back to the same bytes; under it, whatever codes decode
// come to at most 8 bytes a code — each symbol is at most 8 bytes — and
// exactly as many as decodedLen promised, and the input, coded, decodes
// back to itself.  And the trainer, given the input's lines, builds a
// table that codes them, the table bytes and the input back exactly.
func FuzzSymbolCodec(f *testing.F) {
	trained := trainSymbols(prose(1, 100)).appendBinary(nil)
	f.Add(trained, []byte(prose(2, 1)[0]))
	f.Add(trained, []byte{0, 1, 2, escapeCode})                                 // an escape as the last byte
	f.Add(trained, []byte{escapeCode, escapeCode, 254})                         // an escaped escape, then code 254
	f.Add([]byte{0}, []byte("no symbols at all"))                               // every byte escaped
	f.Add([]byte{2, 1, 'h', 2, 'h', 'i'}, []byte{1, 0, 2})                      // code 2 is past the table
	f.Add([]byte{1, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}, []byte{0, 0})   // 8-byte symbols: the most a code decodes to
	f.Add([]byte{1, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i'}, []byte{0}) // a 9-byte symbol: refused
	f.Add([]byte{3, 1, 'a'}, []byte("a\nb\nab\nab"))                            // the count promises symbols that are not there
	f.Add([]byte{255}, []byte("x\ny\n"))
	f.Fuzz(func(t *testing.T, table, in []byte) {
		if st, err := ParseSymbols(table); err == nil {
			if !bytes.Equal(st.appendBinary(nil), table) {
				t.Fatalf("table %x serialises as %x", table, st.appendBinary(nil))
			}
			n := st.decodedLen(in)
			if s, ok := st.decode(in); ok != (n >= 0) || (ok && len(s) != n) || len(s) > 8*len(in) {
				t.Fatalf("%d codes decode to %d bytes (%v), decodedLen says %d", len(in), len(s), ok, n)
			}
			codeAndBack(t, st, string(in))
		}
		sample := strings.Split(string(in), "\n")
		st := trainSymbols(sample)
		if again := trainSymbols(sample); !bytes.Equal(again.appendBinary(nil), st.appendBinary(nil)) {
			t.Fatal("one sample trained two tables")
		}
		parsed, err := ParseSymbols(st.appendBinary(nil))
		if err != nil {
			t.Fatalf("a trained table does not parse: %v", err)
		}
		for _, s := range append(sample, string(table), string(in)) {
			codeAndBack(t, parsed, s)
		}
	})
}

// FuzzOpenCatalog opens arbitrary catalog bytes beside the data file and
// log of a small cleanly closed store: two tables, one with an index on a
// coded string column, some pages full and some deleted from.  Open
// returns a store or an error, never panics, and allocates no more than
// FuzzApplySnapshot allows a payload: 256 KiB plus 256 bytes an input
// byte.
func FuzzOpenCatalog(f *testing.F) {
	src := f.TempDir()
	db, err := Open(Options{Dir: src})
	if err != nil {
		f.Fatal(err)
	}
	a, err := db.CreateTable("a", MustSchema(Column{"n", TypeInt}, Column{"s", TypeString}))
	if err != nil {
		f.Fatal(err)
	}
	if err := a.CreateIndex("s"); err != nil {
		f.Fatal(err)
	}
	b, err := db.CreateTable("b", MustSchema(Column{"at", TypeRowID}, Column{"x", TypeBytes}))
	if err != nil {
		f.Fatal(err)
	}
	texts := prose(5, 400)
	for i, text := range texts {
		rid, err := a.Insert(Row{I(int64(i)), S(text)})
		if err != nil {
			f.Fatal(err)
		}
		if i%50 == 0 {
			if _, err := b.Insert(Row{R(rid), B(bytes.Repeat([]byte{byte(i)}, 2000))}); err != nil {
				f.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil { // trains a's symbol table on the way
			f.Fatal(err)
		}
		if i%7 == 3 {
			if err := a.Delete(rid); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range []string{"data.nmdb", "wal.nmlog", catalogName} {
		if files[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	good := files[catalogName]
	delete(files, catalogName)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"format":12,"generation":1,"tables":[{"name":"a","columns":[{"name":"s","type":3}],"pages":[1,1,1],"indexes":["s"]}]}`))
	f.Add([]byte(`{"format":12,"generation":1,"tables":[{"name":"a","columns":[{"name":"s","type":200}],"pages":[1],"indexes":["s"],"rows":5,"free":[[1,9]]}]}`))
	f.Add([]byte(`{"format":12,"tables":[{"name":"a","pages":[4000000000],"rows":1,"free":[[4000000000,8192]]}]}`))
	// A page map naming a page near the top of the page numbers: it costs
	// the one extent it lists, not a slot for every page below it.
	f.Add([]byte(`{"format":14,"generation":1,"tables":[],"pagecount":4000000000,"extents":[[3999999999,16,100]]}`))
	f.Fuzz(func(t *testing.T, cat []byte) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, catalogName), cat, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := Open(Options{Dir: dir, PoolPages: 16})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(cat)) {
			t.Fatalf("a %d-byte catalog allocated %d bytes", len(cat), grew)
		}
		if err == nil {
			db.CloseDiscard()
		} else if bytes.Equal(cat, good) {
			t.Fatalf("the store's own catalog: %v", err)
		}
	})
}
