package ordbms

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netmark/internal/vfs"
)

// Replay rebuilds pages byte for byte.  A heap is built by single
// inserts, runs that span pages, one-row deletes and delete runs that
// span pages, with the pages flushed now and then; halfway, the table's
// symbol table is logged, and from then on its rows are coded with it.
// Its log is cut after every record — rewritten as a log of exactly the
// records before the cut — and each cut is recovered onto the pages as
// they were last flushed before it.  Every recovered
// page equals the live page at the cut's LSN: a row's slot and length
// are derived, not logged, so this is what says they are derived right —
// and a delete run, applied live in the caller's order and replayed in
// page order, leaves the same bytes.  Recovery hands back the symbol
// table exactly when the cut kept its record — before it, between it and
// the first coded run, and after — and every coded row the cut kept
// decodes with it.
func TestReplayRebuildsPagesByteForByte(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "wal.nmlog")
	w, err := OpenWAL(vfs.OS, logPath)
	if err != nil {
		t.Fatal(err)
	}
	disk := NewMemDisk()
	pool := NewBufferPool(disk, 64)
	h := NewHeapFile(pool, w)
	tbl := &Table{name: "t", heap: h} // a bare table over h, for its deletes

	// image is every page's bytes (page 1 first) once the log reached lsn.
	type image struct {
		lsn   uint64
		pages [][]byte
	}
	pagesOf := func(read func(no uint32, buf []byte) error) [][]byte {
		var pages [][]byte
		for no := uint32(1); no < disk.NumPages(); no++ {
			buf := make([]byte, PageSize)
			if err := read(no, buf); err != nil {
				t.Fatal(err)
			}
			pages = append(pages, buf)
		}
		return pages
	}
	fromPool := func(no uint32, buf []byte) error {
		f, err := pool.Fetch(no)
		if err != nil {
			return err
		}
		copy(buf, f.Page.Data())
		pool.Unpin(f)
		return nil
	}
	var live, flushed []image
	snap := func() { live = append(live, image{w.NextLSN(), pagesOf(fromPool)}) }
	flush := func() {
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		flushed = append(flushed, image{w.NextLSN(), pagesOf(disk.ReadPage)})
	}
	flush() // the empty heap

	rng := rand.New(rand.NewSource(1))
	st := trainSymbols(prose(1, 200))
	var symLSN uint64           // the end of the walSymbols record, once logged
	texts := map[RowID]string{} // what each coded row holds
	coded := MustSchema(Column{"s", TypeString}).WithSymbols(st)
	rec := func(lo, hi int) []byte {
		n := lo + rng.Intn(hi-lo)
		if symLSN == 0 {
			return bytes.Repeat([]byte{byte(rng.Intn(256))}, n)
		}
		text := strings.Join(prose(rng.Int63(), n/30+1), " ")
		return coded.Encode(Row{S(text)})
	}
	// note remembers the text of each coded row of recs, stored at rids.
	note := func(recs [][]byte, rids []RowID) {
		for i, r := range recs {
			if symLSN != 0 {
				row, err := DecodeRow(coded, rids[i], r)
				if err != nil {
					t.Fatal(err)
				}
				texts[rids[i]] = row[0].Str
			}
		}
	}
	var rids []RowID
	runPages := 0 // the most pages one delete run touched
	for step := 0; step < 48; step++ {
		if step == 24 {
			symLSN = w.LogSymbols("t", st)
			snap()
		}
		switch step % 6 {
		case 0, 1:
			r := rec(20, 600)
			rid, err := h.Insert(r)
			if err != nil {
				t.Fatal(err)
			}
			note([][]byte{r}, []RowID{rid})
			rids = append(rids, rid)
		case 2:
			run := make([][]byte, 10+rng.Intn(30))
			for i := range run {
				run[i] = rec(100, 900)
			}
			got, err := h.InsertRun(run, nil)
			if err != nil {
				t.Fatal(err)
			}
			note(run, got)
			rids = append(rids, got...)
		case 3:
			for k := 1 + rng.Intn(5); k > 0; k-- {
				if err := tbl.Delete(rids[rng.Intn(len(rids))]); err != nil && err != ErrRecordDeleted {
					t.Fatal(err)
				}
				snap() // each delete is a record of its own
			}
		case 4:
			// A run from the newest rows back, with a few older ones mixed
			// in and one named twice: one record over several pages.
			run := slices.Clone(rids[max(len(rids)-20-rng.Intn(20), 0):])
			for k := 0; k < 5; k++ {
				run = append(run, rids[rng.Intn(len(rids))])
			}
			run = append(run, run[0])
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			if err := tbl.DeleteRun(run); err != nil && err != ErrRecordDeleted {
				t.Fatal(err)
			}
			pages := make(map[uint32]bool)
			for _, rid := range run {
				pages[rid.Page] = true
			}
			runPages = max(runPages, len(pages))
		case 5:
			if step%12 == 5 {
				flush()
			}
		}
		snap()
	}
	if runPages < 3 {
		t.Fatalf("no delete run touched more than %d pages", runPages)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := len(live[len(live)-1].pages); n < 8 {
		t.Fatalf("the heap spans %d pages: too few to say much", n)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []uint64{0}
	if _, err := w.Replay(func(r WALRecord) error { cuts = append(cuts, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	img, err := ReadLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Ends) != len(cuts)-1 {
		t.Fatalf("the log holds %d records, Replay found %d", len(img.Ends), len(cuts)-1)
	}

	zero := make([]byte, PageSize)
	for k, cut := range cuts {
		if k > 0 && img.Base+uint64(img.Ends[k-1]) != cut {
			t.Fatalf("record %d ends at LSN %d, %d bytes into the record stream", k, cut, img.Ends[k-1])
		}
		base, want := flushed[0], flushed[0]
		for _, im := range flushed {
			if im.lsn <= cut {
				base = im
			}
		}
		for _, im := range live {
			if im.lsn <= cut {
				want = im
			}
		}
		d := NewMemDisk()
		for _, pg := range base.pages {
			no, _ := d.AllocatePage()
			d.WritePage(no, pg)
		}
		cutPath := filepath.Join(t.TempDir(), "wal.nmlog")
		if err := os.WriteFile(cutPath, img.Framed(k), 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := OpenWAL(vfs.OS, cutPath)
		if err != nil {
			t.Fatal(err)
		}
		p := NewBufferPool(d, 64)
		_, _, ops, torn, err := Recover(d, p, cw)
		if err != nil || torn {
			t.Fatalf("cut at %d: recovery: torn %v, %v", cut, torn, err)
		}
		cw.closeFile()
		var got *SymbolTable
		for _, op := range ops {
			if op.Kind == walSymbols && op.Table == "t" {
				got = op.Symbols
			}
		}
		if (got != nil) != (cut >= symLSN) || (got != nil && !bytes.Equal(got.appendBinary(nil), st.appendBinary(nil))) {
			t.Fatalf("cut at %d (walSymbols ends at %d): recovered symbol table %v", cut, symLSN, got)
		}
		for rid, text := range texts {
			if int(rid.Page) >= int(d.NumPages()) {
				continue
			}
			f, err := p.Fetch(rid.Page)
			if err != nil {
				t.Fatal(err)
			}
			r, gerr := f.Page.Get(int(rid.Slot))
			if gerr == nil {
				row, err := DecodeRow(coded.WithSymbols(got), rid, r)
				if err != nil || row[0].Str != text {
					t.Fatalf("cut at %d: coded row %v reads %v, %v", cut, rid, row, err)
				}
			}
			p.Unpin(f)
		}
		if got := int(d.NumPages()) - 1; got < len(want.pages) {
			t.Fatalf("cut at %d: recovered %d pages, want %d", cut, got, len(want.pages))
		}
		for no := uint32(1); no < d.NumPages(); no++ {
			f, err := p.Fetch(no)
			if err != nil {
				t.Fatal(err)
			}
			wantPage := zero // allocated by a record the cut kept, filled by one it did not
			if int(no) <= len(want.pages) {
				wantPage = want.pages[no-1]
			}
			if !bytes.Equal(f.Page.Data(), wantPage) {
				t.Fatalf("cut at %d (pages flushed at %d): page %d differs from the live page at %d", cut, base.lsn, no, want.lsn)
			}
			p.Unpin(f)
		}
	}

	// A section for a slot its page already holds comes only from a
	// corrupt page or log; Open refuses it and names both.
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	var rid [2]RowID
	for i := range rid {
		if rid[i], err = tbl.Insert(Row{I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard()
	cw, err := OpenWAL(vfs.OS, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	cw.LogInsertRun([]*runPage{{f: &Frame{PageNo: rid[1].Page}, rows: []runRow{{slot: rid[1].Slot}}}}, [][]byte{{0, 6}})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Dir: dir}); err == nil {
		db.CloseDiscard()
		t.Fatal("a section for an existing slot recovered")
	} else if want := fmt.Sprintf("page %d: ordbms: slot %d is already on the page", rid[1].Page, rid[1].Slot); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want it to say %q", err, want)
	}
}
