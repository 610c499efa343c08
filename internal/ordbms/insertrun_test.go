package ordbms

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// runPlacementSeed builds a heap whose next inserts meet every branch of
// the placement policy in a fixed order: page 1 is off the tail with 158
// spare bytes (a free-hint page) and a dead slot, which no insert takes;
// page 2 is the tail with 58 (below the hint threshold, so only the tail
// try reaches it).
func runPlacementSeed(t *testing.T) (*HeapFile, [][]byte) {
	t.Helper()
	h := NewHeapFile(memPool(t, 64), nil)
	big := func(n int, tag byte) []byte { return bytes.Repeat([]byte{tag}, n) }
	var first RowID
	for i := 0; i < 15; i++ {
		rid, err := h.Insert(big(1000, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			first = rid
		}
	}
	if _, err := h.Insert(big(1100, 0xEE)); err != nil { // page 2: 7x1000 + 1100
		t.Fatal(err)
	}
	if got := h.Pages(); len(got) != 2 {
		t.Fatalf("seed spans pages %v, want two", got)
	}
	if err := h.Delete(first); err != nil { // dead slot 2 on page 1
		t.Fatal(err)
	}
	run := [][]byte{big(100, 0xA0)} // leaves page 1 too little to stay hinted
	for i := 1; i < 5; i++ {
		run = append(run, big(50, byte(0xA0+i)))
	}
	for i := 0; i < 20; i++ {
		run = append(run, big(1000, byte(0xC0+i)))
	}
	return h, run
}

// (a) A run lands exactly where the same records would land fed one at a
// time: same RowIDs, same page list, same bytes on every page.
func TestInsertRunPlacementMatchesInsert(t *testing.T) {
	one, run := runPlacementSeed(t)
	var want []RowID
	for _, rec := range run {
		rid, err := one.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rid)
	}

	all, run := runPlacementSeed(t)
	linked := false
	got, err := all.InsertRun(run, func(rids []RowID) {
		linked = len(rids) == len(run)
		for i := range rids {
			if _, ferr := all.Fetch(rids[i]); ferr == nil {
				t.Errorf("row %d readable at %v before the run was written", i, rids[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Fatal("link was not handed every RowID")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: run placed it at %v, one-by-one at %v", i, got[i], want[i])
		}
	}
	// The scenario met each branch: a new slot on a hint page, the tail
	// page, and fresh pages.
	for i, at := range []RowID{{Page: 1, Slot: 8}, {Page: 2, Slot: 8}, {Page: 3, Slot: 0}} {
		if got[i] != at {
			t.Fatalf("record %d at %v, scenario expects %v", i, got[i], at)
		}
	}
	if a, b := all.Pages(), one.Pages(); len(a) != len(b) || len(a) < 5 {
		t.Fatalf("run heap has pages %v, one-by-one heap %v", a, b)
	}
	if all.Rows() != one.Rows() {
		t.Fatalf("rows: run %d, one-by-one %d", all.Rows(), one.Rows())
	}
	for _, no := range all.Pages() {
		fa, err := all.pool.Fetch(no)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := one.pool.Fetch(no)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa.Page.Data(), fb.Page.Data()) {
			t.Fatalf("page %d differs between the run and the one-by-one heap", no)
		}
		all.pool.Unpin(fa)
		one.pool.Unpin(fb)
	}
}

// link may swap records of the run for others: a shorter one is written
// where the record was placed, and a longer one is placed again, with
// every record after it, and link is called again with the new RowIDs;
// the records before it keep theirs.
func TestInsertRunPlacesGrownRecordsAgain(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	run := make([][]byte, 30)
	for i := range run {
		run[i] = bytes.Repeat([]byte{byte(i)}, 500)
	}
	var calls [][]RowID
	rids, err := h.InsertRun(run, func(rids []RowID) {
		calls = append(calls, append([]RowID(nil), rids...))
		if len(calls) == 1 {
			run[3] = []byte{0xBB}                      // shorter: stays where it was placed
			run[10] = bytes.Repeat([]byte{0xAA}, 4000) // longer: no longer fits beside records 0-9
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("link called %d times, want twice", len(calls))
	}
	for i, rid := range calls[0][:10] {
		if rids[i] != rid {
			t.Fatalf("record %d, before the one that grew, moved from %v to %v", i, rid, rids[i])
		}
	}
	if rids[10] == calls[0][10] || rids[10].Page == rids[9].Page {
		t.Fatalf("the grown record stayed at %v, beside record 9 at %v", rids[10], rids[9])
	}
	if calls[1][10] != rids[10] {
		t.Fatalf("link's second call saw the grown record at %v, it landed at %v", calls[1][10], rids[10])
	}
	for i, rid := range rids {
		got, err := h.Fetch(rid)
		if err != nil || !bytes.Equal(got, run[i]) {
			t.Fatalf("record %d at %v reads %d bytes (%v), want its final %d", i, rid, len(got), err, len(run[i]))
		}
	}
	if h.Rows() != int64(len(run)) {
		t.Fatalf("heap holds %d rows, want %d", h.Rows(), len(run))
	}
}

// A run's pages stay pinned until it is logged, so a run whose pages
// outnumber the buffer pool is refused — during placement, before a
// single row is written, leaving the heap as it was.
func TestInsertRunLargerThanPoolFailsClean(t *testing.T) {
	h := NewHeapFile(memPool(t, 8), nil)
	seed := bytes.Repeat([]byte{0xee}, 500)
	first, err := h.Insert(seed)
	if err != nil {
		t.Fatal(err)
	}
	_, _, free0 := h.meta()
	run := make([][]byte, 200)
	for i := range run {
		run[i] = bytes.Repeat([]byte{byte(i)}, 1000)
	}
	if _, err := h.InsertRun(run, nil); err == nil {
		t.Fatal("a run of 25 pages went into a pool of 8")
	}
	if h.Rows() != 1 {
		t.Fatalf("heap holds %d rows after the refused run, want the 1 it had", h.Rows())
	}
	scanned := 0
	h.Scan(func(rid RowID, rec []byte) bool {
		scanned++
		if rid != first || !bytes.Equal(rec, seed) {
			t.Fatalf("row at %v is not the seed row", rid)
		}
		return true
	})
	if scanned != 1 {
		t.Fatalf("scan finds %d rows, want 1", scanned)
	}
	if _, _, free := h.meta(); free[0] != free0[0] || free[0][0] != first.Page {
		t.Fatalf("free-space map %v after the refused run, %v before", free, free0)
	}
	// Nothing stays pinned, and the pages the run adopted are reused.
	pages := len(h.Pages())
	if _, err := h.InsertRun(run[:40], nil); err != nil {
		t.Fatal(err)
	}
	if len(h.Pages()) != pages {
		t.Fatalf("heap grew from %d to %d pages: the refused run's pages were not reused", pages, len(h.Pages()))
	}
}

// linkSchema is a two-column table whose second column holds a RowID the
// run's link callback fills in.
func linkSchema() Schema {
	return MustSchema(Column{Name: "id", Type: TypeInt}, Column{Name: "next", Type: TypeRowID})
}

// Table.InsertRun writes each row once, already linked: the log carries
// one record for the whole run (plus an adoption per fresh page), a crash
// recovers the links, no per-row insert or update record exists, and a
// log cut inside the run's record recovers none of its rows.
func TestTableInsertRunLogsEachRowOnce(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("L", linkSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"id", "next"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	const n = 3000
	recs := make([][]byte, n)
	offs := make([][]int, n)
	for i := range recs {
		offs[i] = make([]int, 2)
		recs[i], _, _ = linkSchema().EncodeOffsets(nil, offs[i], Row{I(int64(i)), R(ZeroRowID)}, ZeroRowID, 0)
	}
	before, _, bytes0 := db.WALStats()
	rids, err := tbl.InsertRun(recs, 0, 0, func(rids []RowID) {
		for i := range recs { // each row points at its successor, the last at nothing
			next := ZeroRowID
			if i+1 < len(rids) {
				next = rids[i+1]
			}
			PutRowID(recs[i][offs[i][1]:], next)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	after, _, bytes1 := db.WALStats()
	pages := len(tbl.heap.Pages())
	if got := int(after - before); pages < 4 || got != pages+1 {
		t.Fatalf("%d rows on %d pages cost %d log records, want several pages and %d records (an adoption per page, one run)", n, pages, got, pages+1)
	}
	var payload int
	for _, rec := range recs {
		payload += len(rec)
	}
	if got := int(bytes1 - bytes0); got > payload+n+32*pages { // a row's framing is its one-byte length
		t.Fatalf("run of %d payload bytes logged %d", payload, got)
	}
	// The run indexes each row as written: the link too, which only the
	// patched bytes hold.
	for i := 0; i+1 < n; i++ {
		if hits, _ := tbl.Lookup("id", I(int64(i))); len(hits) != 1 || hits[0] != rids[i] {
			t.Fatalf("index for id %d = %v, want %v", i, hits, rids[i])
		}
		if hits, _ := tbl.Lookup("next", R(rids[i+1])); len(hits) != 1 || hits[0] != rids[i] {
			t.Fatalf("index for next %v = %v, want %v", rids[i+1], hits, rids[i])
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard() // crash: the heap exists only in the log

	// The run's record is the log's last: give it a frame of its own and
	// cut that short, and no page gets any of its rows.
	log, err := os.ReadFile(filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := ReadLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(img.Types); n < 2 || img.Types[n-1] != walInsertRun {
		t.Fatalf("log record types %v: want the run last", img.Types)
	}
	cut := img.Framed(len(img.Types)-1, 1)
	if img, err = ReadLog(cut); err != nil || len(img.Frames) != 2 {
		t.Fatalf("reframed log: %d frames, %v", len(img.Frames), err)
	}
	cutDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cutDir, "wal.nmlog"), cut[:(img.Frames[0]+img.Frames[1])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	dbCut, err := Open(Options{Dir: cutDir})
	if err != nil {
		t.Fatal(err)
	}
	if tblCut := dbCut.Table("L"); tblCut == nil || tblCut.Rows() != 0 || len(tblCut.heap.Pages()) != pages {
		t.Fatalf("a log cut inside the run record recovers table %v, want it empty on its %d adopted pages", tblCut, pages)
	}
	dbCut.CloseDiscard()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.Table("L")
	at := rids[0]
	for i := 0; i < n; i++ {
		row, err := tbl2.Fetch(at)
		if err != nil {
			t.Fatalf("row %d at %v: %v", i, at, err)
		}
		if row[0].Int != int64(i) {
			t.Fatalf("row at %v has id %d, want %d", at, row[0].Int, i)
		}
		if hits, _ := tbl2.Lookup("id", I(int64(i))); len(hits) != 1 || hits[0] != at {
			t.Fatalf("index for id %d = %v, want %v", i, hits, at)
		}
		at = row[1].RowID()
	}
	if at != ZeroRowID {
		t.Fatalf("chain ends at %v, want the zero RowID", at)
	}
}
