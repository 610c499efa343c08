package ordbms

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"netmark/internal/vfs"
)

// appendedRecord is a record as a test appended it: what Replay must
// hand back for it.
type appendedRecord struct {
	lsn  uint64
	typ  byte
	page uint32
	rec  []byte
}

// logRecords appends n records of every kind but the insert run to w,
// flushing after every per records into a frame of their own, and
// returns them.
func logRecords(w *WAL, n, per int) []appendedRecord {
	var recs []appendedRecord
	for i := 0; i < n; i++ {
		var r appendedRecord
		switch i % 4 {
		case 0:
			rids := []RowID{{Page: uint32(i), Slot: 1}, {Page: uint32(i), Slot: 2}, {Page: uint32(i + 1), Slot: 7}}
			r = appendedRecord{w.LogDeleteRun(rids), walDeleteRun, 0, append(deleteSection(uint32(i), 1, 2), deleteSection(uint32(i+1), 7, 1)...)}
		case 1:
			r = appendedRecord{w.LogAlloc("XML", uint32(i)), walAlloc, uint32(i), []byte("XML")}
		case 2:
			r = appendedRecord{w.LogCreateIndex("DOC", "filename"), walCreateIndex, 0, appendWALString(appendWALString(nil, "DOC"), "filename")}
		case 3:
			r = appendedRecord{w.LogDropTable("T"), walDropTable, 0, appendWALString(nil, "T")}
		}
		recs = append(recs, r)
		if (i+1)%per == 0 {
			w.Flush(w.NextLSN())
		}
	}
	return recs
}

// replayed checks that w replays to exactly recs, with no torn tail.
func replayed(t *testing.T, w *WAL, recs []appendedRecord) {
	t.Helper()
	i := 0
	torn, err := w.Replay(func(r WALRecord) error {
		if i >= len(recs) {
			t.Fatalf("record %d replayed past the %d appended", i, len(recs))
		}
		want := recs[i]
		if r.LSN != want.lsn || r.Type != want.typ || r.Page != want.page || !bytes.Equal(r.Rec, want.rec) {
			t.Fatalf("record %d replays as %+v, want %+v", i, r, want)
		}
		i++
		return nil
	})
	if err != nil || torn || i != len(recs) {
		t.Fatalf("replayed %d of %d records, torn %v, %v", i, len(recs), torn, err)
	}
}

// A log is one deflate stream per handle, a frame per flush: appended,
// flushed in several frames, closed without a checkpoint and reopened
// twice, it replays to exactly the records appended, at the LSNs the
// appends returned, and the first frame each handle wrote starts a
// stream.  What the handles wrote is the file's size, and less than the
// records they appended.
func TestWALFramesAcrossReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nmlog")
	var recs []appendedRecord
	var written, logged uint64
	for open := 0; open <= 3; open++ {
		w, err := OpenWAL(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 && w.NextLSN() != recs[len(recs)-1].lsn {
			t.Fatalf("open %d: next LSN %d, want %d", open, w.NextLSN(), recs[len(recs)-1].lsn)
		}
		replayed(t, w, recs)
		if open == 3 {
			w.closeFile()
			break
		}
		recs = append(recs, logRecords(w, 40, 7)...)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		written += w.FileBytes()
		logged += w.Bytes()
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(file)) != written || written >= logged {
		t.Fatalf("the handles wrote %d bytes of %d logged; the file holds %d", written, logged, len(file))
	}
	img, err := ReadLog(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Frames) != 3*6 || len(img.Types) != len(recs) {
		t.Fatalf("the log holds %d frames and %d records, want 18 and %d", len(img.Frames), len(img.Types), len(recs))
	}
	start := walHeaderSize
	for k, end := range img.Frames {
		fresh := binary.LittleEndian.Uint32(file[start:])&walFresh != 0
		if fresh != (k%6 == 0) {
			t.Fatalf("frame %d starts a stream: %v", k, fresh)
		}
		start = end
	}
}

// Open drops a torn tail before anything is appended, even one that no
// intact frame precedes: a frame written after the garbage, rather than
// in place of all of it, could be followed by a stale frame of an older
// stream that still passes its CRC.
func TestOpenDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.nmlog")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xab}, 300)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != walHeaderSize {
		t.Fatalf("the log after opening over a torn tail: %v, %v; want its header alone", fi.Size(), err)
	}
	if _, err := db.Table("t").Insert(Row{I(7)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard()
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Table("t").Rows(); n != 1 {
		t.Fatalf("%d rows after the crash, want 1", n)
	}
}

// A frame whose write fails stays pending: the next flush writes those
// same bytes to the same place before any frame after it, and nothing is
// deflated twice.
func TestWALFrameWriteRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	w, err := OpenWAL(ffs, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	recs := logRecords(w, 8, 8) // the header's write, then this frame's
	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: "wal.nmlog", Times: 1, Short: true})
	recs = append(recs, logRecords(w, 5, 100)...)
	if err := w.Flush(w.NextLSN()); !IsIOFault(err) {
		t.Fatalf("flush over a failing write = %v, want an IOFault", err)
	}
	w.mu.Lock()
	pending := bytes.Clone(w.pending)
	w.mu.Unlock()
	recs = append(recs, logRecords(w, 6, 100)...)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	replayed(t, w, recs)
	file, err := os.ReadFile(filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := ReadLog(file)
	if err != nil || len(img.Frames) != 3 {
		t.Fatalf("the log holds %d frames, %v; want 3", len(img.Frames), err)
	}
	if got := file[img.Frames[0]:img.Frames[1]]; !bytes.Equal(got, pending) {
		t.Fatal("the retried frame is not the frame whose write failed")
	}
	if w.FileBytes() != uint64(len(file)) {
		t.Fatalf("FileBytes %d, the file holds %d", w.FileBytes(), len(file))
	}
	w.Close()
}

// A frame may inflate to at most walMaxInflate times its payload: the
// writer pads the records that compress better than that, and a reader
// refuses a frame past it, as corrupt, before inflating the rest.
func TestWALFrameInflateBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nmlog")
	w, err := OpenWAL(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.LogAlloc(string(make([]byte, 1<<20)), 1) // a megabyte of zeros
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if payload := len(file) - walHeaderSize - walFrameHeader; payload*walMaxInflate < int(lsn) || payload > int(lsn)/walMaxInflate+2*len(emptyBlock) {
		t.Fatalf("a %d-byte record deflates to %d bytes, want just over 1/%d of it", lsn, payload, walMaxInflate)
	}
	if w, err = OpenWAL(vfs.OS, path); err != nil {
		t.Fatal(err)
	}
	replayed(t, w, []appendedRecord{{lsn, walAlloc, 1, make([]byte, 1<<20)}})
	w.closeFile()

	// The same record deflated without the padding: a bomb.
	img, err := ReadLog(file)
	if err != nil {
		t.Fatal(err)
	}
	var zout bytes.Buffer
	zw, _ := flate.NewWriter(&zout, walLevel)
	zw.Write(img.Stream)
	zw.Flush()
	log := oneFrame(zout.Bytes())
	if _, err := ReadLog(log); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("ReadLog of a bomb = %v, want a corrupt frame", err)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(vfs.OS, path); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("OpenWAL of a bomb = %v, want a corrupt frame", err)
	}
}

// oneFrame is a log of one frame that starts a stream and carries payload,
// passing its CRC whatever the payload is.
func oneFrame(payload []byte) []byte {
	log := append(walMagic[:], make([]byte, 8)...)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload))|walFresh)
	log = binary.LittleEndian.AppendUint32(log, frameCRC(log[walHeaderSize:], payload))
	return append(log, payload...)
}

// retiredRecord is a log of one frame holding one intact record of type
// 4, the checkpoint marker no format-15 build writes.
func retiredRecord() []byte {
	rec := []byte{1, 0, 0, 0, 0, 0, 0, 0, 4}
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, walLevel)
	zw.Write(rec)
	zw.Flush()
	return oneFrame(z.Bytes())
}

// A record of type 4 is refused like any type the log does not know: an
// intact frame carrying it is a corrupt log.
func TestReplayRefusesRetiredType(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nmlog")
	if err := os.WriteFile(path, retiredRecord(), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(vfs.OS, path)
	if err == nil {
		_, err = w.Replay(func(WALRecord) error { return nil })
		w.closeFile()
	}
	if !errors.Is(err, errCorruptRecord) {
		t.Fatalf("replaying a type 4 record = %v, want a corrupt record", err)
	}
}

// FuzzWALLog writes hostile bytes after a valid log header and opens and
// replays them, once as they are and once as the payload of a frame that
// passes its CRC.  Whatever the bytes, nothing panics and nothing
// allocates more than FuzzApplySnapshot allows a payload — so a frame that
// inflates far past its size is refused, not inflated — and the log the
// WAL wrote replays to exactly the records appended.  The seeds are a real
// log of two frames, every cut of it, a flipped byte in each frame, the
// first frame's payload, a frame claiming the most a word can, a bomb and
// a frame holding a retired record type.
func FuzzWALLog(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.nmlog")
	w, err := OpenWAL(vfs.OS, path)
	if err != nil {
		f.Fatal(err)
	}
	recs := logRecords(w, 24, 12)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	img, err := ReadLog(real)
	if err != nil || len(img.Frames) != 2 {
		f.Fatalf("the seed log holds %d frames, %v; want 2", len(img.Frames), err)
	}
	header, body := real[:walHeaderSize], real[walHeaderSize:]
	for cut := 0; cut <= len(body); cut++ {
		f.Add(body[:cut])
	}
	start := walHeaderSize
	for _, end := range img.Frames {
		flipped := bytes.Clone(body)
		flipped[(start+end)/2-walHeaderSize] ^= 0x40
		f.Add(flipped)
		start = end
	}
	f.Add(real[walHeaderSize+walFrameHeader : img.Frames[0]]) // the first frame's payload
	f.Add(binary.LittleEndian.AppendUint32([]byte{0xff, 0xff, 0xff, 0xff}, 0))
	f.Add(oneFrame(make([]byte, 1<<10))[walHeaderSize:]) // a frame of 1 KiB of zeros
	var zout bytes.Buffer
	zw, _ := flate.NewWriter(&zout, flate.BestCompression)
	zw.Write(make([]byte, 1<<20))
	zw.Flush()
	f.Add(oneFrame(zout.Bytes())[walHeaderSize:])
	f.Add(retiredRecord()[walHeaderSize:])

	f.Fuzz(func(t *testing.T, p []byte) {
		// p as the bytes after the header, and as the payload of one frame
		// that passes its CRC: what the CRC keeps out of the first reaches
		// the inflater and the record parser in the second.
		for _, log := range [][]byte{p, oneFrame(p)[walHeaderSize:]} {
			path := filepath.Join(t.TempDir(), "wal.nmlog")
			if err := os.WriteFile(path, append(bytes.Clone(header), log...), 0o644); err != nil {
				t.Fatal(err)
			}
			own := bytes.Equal(log, body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			w, err := OpenWAL(vfs.OS, path)
			i := 0
			if err == nil {
				_, err = w.Replay(func(r WALRecord) error {
					if own && (i >= len(recs) || r.LSN != recs[i].lsn || !bytes.Equal(r.Rec, recs[i].rec)) {
						t.Fatalf("record %d of the WAL's own log replays as %+v", i, r)
					}
					i++
					return nil
				})
				w.closeFile()
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(log)) {
				t.Fatalf("a %d-byte log allocated %d bytes", len(log), grew)
			}
			if own && (err != nil || i != len(recs)) {
				t.Fatalf("the WAL's own log replayed %d of %d records: %v", i, len(recs), err)
			}
		}
	})
}

// A recovery reads the log a frame at a time: what opening a log and
// replaying it allocates does not grow with the log.  Two logs cut in
// the same 64 KiB frames, one eight times the other, are opened as
// DB.Open opens them (openWAL, then the replay recovery drives), and the
// larger may cost no more than an eighth of the records it adds.
func TestReplayAllocationFlat(t *testing.T) {
	build := func(frames int) (path string, size uint64) {
		path = filepath.Join(t.TempDir(), "wal.nmlog")
		w, err := OpenWAL(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		rids := make([]RowID, 1024)
		for i := 0; i < frames; i++ {
			for j := 0; j < 8; j++ {
				for k := range rids {
					// Runs of one slot, on pages that differ from
					// record to record: 8 bytes a row, in 8 KiB records.
					rids[k] = RowID{Page: uint32(i*8192 + j*1024 + k + 1), Slot: uint16(k)}
				}
				w.LogDeleteRun(rids)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		size = w.NextLSN()
		if err := w.closeFile(); err != nil {
			t.Fatal(err)
		}
		return path, size
	}
	reopen := func(path string) (allocated uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := openWAL(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		if _, err := w.Replay(func(WALRecord) error { records++; return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := w.closeFile(); err != nil {
			t.Fatal(err)
		}
		if records == 0 {
			t.Fatal("the replay found no records")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	smallPath, small := build(4)
	bigPath, big := build(32)
	reopen(smallPath) // warm the scanner's one-time allocations
	smallAlloc, bigAlloc := reopen(smallPath), reopen(bigPath)
	t.Logf("a %d-byte record stream allocates %d bytes to reopen, a %d-byte one %d", small, smallAlloc, big, bigAlloc)
	if bigAlloc > smallAlloc+(big-small)/8 {
		t.Fatalf("the reopen allocated %d bytes for %d bytes of records and %d for %d: it grows with the log", smallAlloc, small, bigAlloc, big)
	}
}

// A flush of more than walKeepOut does not keep its record buffer as
// the log's spare, which would pin it for the log's life; a small
// flush's buffer is kept for the next.
func TestWALSpareCapped(t *testing.T) {
	w, err := OpenWAL(vfs.OS, filepath.Join(t.TempDir(), "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	spare := func() int {
		w.flushMu.Lock()
		defer w.flushMu.Unlock()
		return cap(w.spare)
	}
	w.LogAlloc(string(make([]byte, 2<<20)), 1)
	if err := w.Flush(w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if c := spare(); c > walKeepOut {
		t.Fatalf("a 2 MiB flush left a spare of %d bytes, want at most %d", c, walKeepOut)
	}
	w.LogAlloc("XML", 2)
	if err := w.Flush(w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if c := spare(); c == 0 || c > walKeepOut {
		t.Fatalf("a small flush left a spare of %d bytes", c)
	}
}
