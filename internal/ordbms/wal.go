package ordbms

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"netmark/internal/vfs"
)

// WAL is a redo-only write-ahead log.  Every page mutation is appended
// while the page's write latch is held, and a checkpoint writes the log
// out before it commits a page map (DB.saveCatalogLocked), so no page a
// reopen reads holds a change the log lacks.  Recovery replays records
// whose LSN exceeds the page's on-disk LSN.
//
// LSNs are monotonically increasing positions in the log's record
// stream — the records as appended, before the file deflates them — so
// they say nothing about where a record sits in the file; a checkpoint
// truncates the file but advances a persistent base so LSNs never repeat.
type WAL struct {
	// flushMu is the log's one token.  Its holder alone cuts frames from
	// the buffered records and writes them, and it does that outside mu,
	// which it takes only to swap the buffer out and to publish what it
	// wrote: appenders keep filling the buffer while a flush deflates and
	// writes.  A group commit's leader holds it across its flush and its
	// fsync, and a checkpoint holds it to swap the file.
	// netmarkvet:lockorder 38
	flushMu sync.Mutex
	f       vfs.File    // guarded by flushMu
	fw      frameWriter // guarded by flushMu; the deflate stream the file's frames are cut from
	pending []byte      // guarded by flushMu; a frame whose write failed, written first by the next flush
	pendEnd uint64      // guarded by flushMu; the LSN pending ends at
	spare   []byte      // guarded by flushMu; the buffer the next flush swaps in for buf, kept up to walKeepOut
	fileEnd int64       // guarded by flushMu; file offset of the next frame: the end of the last intact one
	torn    bool        // guarded by flushMu; bytes past fileEnd at open, dropped by the next checkpoint
	// scanned is set once the first Replay has found where the file's
	// intact frames end.
	scanned bool   // guarded by flushMu
	fs      vfs.FS // filesystem all log I/O goes through
	path    string // log file path (checkpoints swap the file atomically)
	dir     string // parent directory, fsynced after the swap

	// mu guards the buffer and the log's marks.  No file I/O happens
	// under it: the flush token's holder writes outside it and the
	// group-commit leader fsyncs outside it, so an append never waits for
	// the device.  netmarkvet:hot
	// netmarkvet:lockorder 40
	mu        sync.Mutex
	base      uint64 // guarded by mu; LSN of the first record the file's frames carry
	buf       []byte // guarded by mu; appended records no flush has taken yet
	bufStart  uint64 // guarded by mu; LSN of buf[0]
	flushed   uint64 // guarded by mu; LSN through which the file is written (not necessarily synced)
	synced    uint64 // guarded by mu; LSN through which the file is fsynced
	appends   uint64 // guarded by mu; stat: records appended
	bytes     uint64 // guarded by mu; stat: bytes appended, framing included
	fileBytes uint64 // guarded by mu; stat: bytes written to the log files
	syncs     uint64 // guarded by mu; stat: fsyncs issued

	// poisoned is the first commit-fsync failure, sticky until a
	// checkpoint rebuilds the log on a fresh handle.  After a failed
	// fsync the kernel may have dropped dirty pages while clearing the
	// error, so a later "successful" fsync would not cover the earlier
	// records: every commit must keep erroring rather than silently ack
	// data that may not be durable.  Guarded by mu.
	poisoned error
}

// Log layout.  The file is a 16-byte header — walMagic, whose digits are
// the store's format number, then the base LSN — followed by frames, one
// per write of the log.  A frame is a u32 word, a u32 CRC-32 of the word
// and the payload, then the payload: the compress/flate output of the
// whole records that write carried, sync-flushed so it ends on a byte.
// The word is the payload's length, with walFresh set when the payload
// starts a new deflate stream.  Every frame after that one, up to the
// next walFresh, continues its stream: it inflates given the last 32 KiB
// the frames before it inflated to.  The first frame a WAL handle writes
// to a file, after opening it or swapping a checkpoint's successor in,
// starts a stream, so a log reopened and appended to stays readable.
//
// Inflated, the frames are the record stream, and an LSN is a position
// in it: the header's base LSN is that of the first frame's first byte.
// Every record is framed as u32 body length, u32 CRC-32 of the body, then
// the body: one type byte and a payload.  All integers are little-endian;
// "record bytes" are a row exactly as its page holds it (null bitmap and
// payloads, see Schema.Encode), so what a row costs the heap it costs
// the record stream, plus its length as a uvarint — one byte below 128.
//
// A frame cut short or failing its CRC ends the log — what a crash
// mid-write leaves — and so does the end of the file.  A frame that
// passes its CRC but does not inflate, inflates past walMaxInflate times
// its payload, or carries anything but whole intact records is a corrupt
// log, which no crash writes.
//
//	walCheckpoint   empty
//	walAlloc        page u32, table name
//	walCreateTable  table name, uvarint column count, then name + type byte per column
//	walCreateIndex  table name, column name
//	walDropTable    table name
//	walInsertRun    per page: page u32, first slot u16, row count u16, then per row: uvarint length, record bytes
//	walDeleteRun    per run of consecutive slots: page u32, first slot u16, slot count u16
//	walSymbols      table name, then its symbol table: symbol count u8, then per symbol its length u8 and bytes
//
// A run's rows on one page take consecutive new slots, so a page section
// names only the first; a delete run names its slots the same way, with
// no bytes per row.  Names are uvarint-length-prefixed strings, except
// walAlloc's, which runs to the end of the body.
const (
	_ byte = 2 + iota // 1 was format 1's per-row insert, 2 the per-row delete, gone in format 7
	_                 // 3 was the in-place update, gone in format 6
	walCheckpoint
	// walAlloc records that a table adopted a freshly allocated page.
	// The catalog persists page ownership only at checkpoints, so without
	// these records a crash would orphan every page allocated since the
	// last checkpoint: replay could rebuild the page bytes, but no table
	// would know to include the page in its heap.
	walAlloc
	// walCreateTable / walCreateIndex / walDropTable log DDL for the same
	// reason: a table created (or an index added, or a table dropped)
	// after the last catalog save exists only in the log until the next
	// checkpoint, and a crash in that window must not lose committed rows
	// in it — or resurrect a dropped table.
	walCreateTable
	walCreateIndex
	walDropTable
	// walInsertRun records every row of one run insert, page by page: one
	// record, one CRC and one LSN for the whole run, so the rows of a
	// document cost their bytes plus a length each, and a log cut anywhere
	// keeps all of the run or none of it — rows that point at each other
	// by RowID never outlive the rows they point at.  Each page checks the
	// record's LSN against its own.
	walInsertRun
	// walDeleteRun records the rows of one delete run: a document's nodes
	// leave the log as they entered it, in one record.
	walDeleteRun
	// walSymbols records the symbol table a table codes its strings with
	// from then on (see SymbolTable), logged once, before any record
	// coded with it.  Like walAlloc it is the only copy until the next
	// checkpoint saves it in the catalog.
	walSymbols
)

const walHeaderSize = 16 // magic(8) + baseLSN(8)

// walMagic names the log's format; the digits are storeFormat.
var walMagic = [8]byte{'N', 'M', 'W', 'A', 'L', 'v', '1', '4'}

const (
	// walFrameHeader is a frame's word and CRC.
	walFrameHeader = 8
	// walFresh marks, in a frame's word, a payload that starts a new
	// deflate stream.
	walFresh = 1 << 31
	// walLevel is the one compress/flate level frames are written at,
	// chosen by measurement on the log 3 000 Mixed documents write in
	// 64-document commits (1.46 MB of records): level 2 deflates it to
	// 0.357 of that, level 1 to 0.394, and 0.364 against 0.431 in
	// 8 KiB flushes, for 24 ms of CPU against 19 ms on a 2-CPU Xeon.
	walLevel = 2
	// walMaxInflate bounds what a frame may inflate to: this many times
	// its payload's bytes.  A frame past it is refused as corrupt before
	// it is inflated further, so a hostile log cannot make recovery
	// allocate more than a small multiple of its size; the writer pads
	// the rare frame that would compress better than this.
	walMaxInflate = 64
	// walWindow is how far back a deflate stream refers: a frame inflates
	// given the last walWindow bytes of its stream.
	walWindow = 1 << 15
)

// emptyBlock is a deflate stored block of no bytes that is not the
// stream's last.  A sync flush leaves a payload on a byte boundary, where
// the writer appends these to pad a frame without changing what it
// inflates to.
var emptyBlock = []byte{0, 0, 0, 0xff, 0xff}

// deflater is a compressor and the buffer it cuts frames in: about a
// megabyte of tables, kept between logs in walDeflaters.  A snapshot
// file is written through one too, whole, as a frame is.
type deflater struct {
	zw  *flate.Writer
	out []byte // the frame or file being cut: its header, then its payload
}

func (d *deflater) Write(p []byte) (int, error) {
	d.out = append(d.out, p...)
	return len(p), nil
}

// walDeflaters holds deflaters between logs: a WAL takes one at its
// first frame and hands it back when its file is closed, and a snapshot
// write for the file, so a process that opens and closes stores
// allocates one or two, not one a store.  It is a
// free list, not a sync.Pool, which a garbage collection empties.  It
// keeps four: more than a process has stores open at once outside
// tests, and few megabytes held idle.
var walDeflaters = make(chan *deflater, 4)

// walKeepOut is the most frame buffer a deflater keeps in walDeflaters,
// and the largest record buffer a WAL keeps as its spare.
const walKeepOut = 1 << 20

// takeDeflater takes a deflater from walDeflaters, or makes one.
func takeDeflater() *deflater {
	select {
	case d := <-walDeflaters:
		return d
	default:
		zw, err := flate.NewWriter(io.Discard, walLevel)
		if err != nil {
			panic(err) // walLevel is a valid level
		}
		return &deflater{zw: zw}
	}
}

// putDeflater hands d back to walDeflaters, dropping a buffer past
// walKeepOut.
func putDeflater(d *deflater) {
	d.zw.Reset(io.Discard)
	if cap(d.out) > walKeepOut {
		d.out = nil
	}
	select {
	case walDeflaters <- d:
	default:
	}
}

// frameWriter cuts frames from one deflate stream.
type frameWriter struct {
	d     *deflater // from walDeflaters; nil until the first frame
	fresh bool      // the next frame starts a new stream
}

// frame deflates records, whole framed records, into the next frame of
// the stream and returns it.  The frame is valid until the next call.
func (fw *frameWriter) frame(records []byte) []byte {
	if fw.d == nil {
		fw.d = takeDeflater()
		fw.fresh = true
	}
	d := fw.d
	if fw.fresh {
		d.zw.Reset(d)
	}
	d.out = append(d.out[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	// Neither call can fail: the stream writes to d, which does not.
	d.zw.Write(records)
	d.zw.Flush()
	for n := len(d.out) - walFrameHeader; n*walMaxInflate < len(records); n += len(emptyBlock) {
		d.out = append(d.out, emptyBlock...)
	}
	word := uint32(len(d.out) - walFrameHeader)
	if fw.fresh {
		word |= walFresh
	}
	binary.LittleEndian.PutUint32(d.out, word)
	binary.LittleEndian.PutUint32(d.out[4:], frameCRC(d.out[:4], d.out[walFrameHeader:]))
	fw.fresh = false
	return d.out
}

// release hands the deflater back to walDeflaters; the next frame takes
// one again and starts a new stream.  A frame still pending is dropped.
func (fw *frameWriter) release() {
	if fw.d == nil {
		return
	}
	putDeflater(fw.d)
	fw.d = nil
}

// frameCRC is the CRC-32 of a frame's word and payload.
func frameCRC(word, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(word), crc32.IEEETable, payload)
}

// errCorruptFrame reports a frame that passes its CRC but does not
// inflate to records: no crash writes one, so the log is corrupt.
var errCorruptFrame = errors.New("ordbms: corrupt log frame")

// logScanner reads a log file's frames in order, inflating each.
type logScanner struct {
	r       io.ReaderAt
	end     int64 // the file's size
	pos     int64 // where the next frame starts
	zr      io.ReadCloser
	src     bytes.Reader
	payload []byte
	hist    []byte // the last walWindow bytes of the current stream
	out     []byte // the frame's records
}

// newLogScanner reads r's frames from pos, where a frame that starts a
// stream begins: the header's end, or the end of the frames an open read.
func newLogScanner(r io.ReaderAt, end, pos int64) *logScanner {
	return &logScanner{r: r, end: end, pos: pos}
}

// torn reports bytes past the last intact frame.
func (s *logScanner) torn() bool { return s.pos < s.end }

// next reads the frame at s.pos and inflates it.  ok is false when no
// intact frame starts there: at the end of the file, or at a frame cut
// short or failing its CRC — a torn tail.  A frame that passes its CRC
// but does not inflate within walMaxInflate is errCorruptFrame.
func (s *logScanner) next() (ok bool, err error) {
	if s.end-s.pos < walFrameHeader {
		return false, nil
	}
	var hdr [walFrameHeader]byte
	if _, err := s.r.ReadAt(hdr[:], s.pos); err != nil {
		return false, tornOr(err)
	}
	word := binary.LittleEndian.Uint32(hdr[0:4])
	n := int64(word &^ walFresh)
	if n == 0 || n > s.end-s.pos-walFrameHeader {
		return false, nil
	}
	s.payload = slices.Grow(s.payload[:0], int(n))[:n]
	if _, err := s.r.ReadAt(s.payload, s.pos+walFrameHeader); err != nil {
		return false, tornOr(err)
	}
	if frameCRC(hdr[:4], s.payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return false, nil
	}
	fresh := word&walFresh != 0
	if !fresh && s.pos == walHeaderSize {
		return false, fmt.Errorf("%w at byte %d: the file's first frame continues a stream", errCorruptFrame, s.pos)
	}
	if fresh {
		s.hist = s.hist[:0]
	}
	s.src.Reset(s.payload)
	if s.zr == nil {
		s.zr = flate.NewReaderDict(&s.src, s.hist)
	} else if err := s.zr.(flate.Resetter).Reset(&s.src, s.hist); err != nil {
		return false, err
	}
	limit := int(n) * walMaxInflate
	s.out = s.out[:0]
	for {
		if len(s.out) == cap(s.out) {
			s.out = slices.Grow(s.out, min(max(len(s.out), 4<<10), limit+1-len(s.out)))
		}
		k, rerr := s.zr.Read(s.out[len(s.out):cap(s.out)])
		s.out = s.out[:len(s.out)+k]
		if len(s.out) > limit {
			return false, fmt.Errorf("%w at byte %d: %d bytes inflate past %d times as many", errCorruptFrame, s.pos, n, walMaxInflate)
		}
		if rerr == io.ErrUnexpectedEOF || rerr == io.EOF {
			break // the payload is spent: a sync-flushed frame ends at a block boundary
		}
		if rerr != nil {
			return false, fmt.Errorf("%w at byte %d: %v", errCorruptFrame, s.pos, rerr)
		}
	}
	tail := s.out[max(0, len(s.out)-walWindow):]
	if keep := walWindow - len(tail); keep < len(s.hist) {
		s.hist = s.hist[:copy(s.hist, s.hist[len(s.hist)-keep:])]
	}
	s.hist = append(s.hist, tail...)
	s.pos += walFrameHeader + n
	return true, nil
}

// tornOr is nil for a read that ran off the end of the file — a torn
// tail — and err otherwise.
func tornOr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// openWAL opens or creates the log at path without reading its frames:
// the first Replay finds where they end, so a recovery reads and
// inflates the log once, a frame at a time.  Until that Replay the log
// takes no appends.
func openWAL(fsys vfs.FS, path string) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ordbms: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{fs: fsys, f: f, path: path, dir: filepath.Dir(path)}
	if st.Size() == 0 {
		var hdr [walHeaderSize]byte
		copy(hdr[:8], walMagic[:])
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		w.base = 0
		w.fileBytes = walHeaderSize
	} else {
		var hdr [walHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		if [8]byte(hdr[:8]) != walMagic {
			f.Close()
			return nil, fmt.Errorf("%w (%s does not start with %q)", ErrStoreFormat, path, walMagic[:])
		}
		w.base = binary.LittleEndian.Uint64(hdr[8:16])
	}
	// A leftover checkpoint temp means a crash before the atomic rename:
	// the live log is authoritative, the half-built successor is garbage.
	fsys.Remove(path + walCkptSuffix)
	w.flushed = w.base
	w.synced = w.base
	w.bufStart = w.base
	return w, nil
}

// NextLSN returns the LSN the next record will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bufStart + uint64(len(w.buf))
}

// beginLocked opens a record of the given type at the end of w.buf and
// returns where its frame starts.  The caller appends the payload to
// w.buf and closes the record with endLocked, so a record is built once,
// in place.  Caller holds w.mu.
func (w *WAL) beginLocked(typ byte) int {
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	return start
}

// endLocked frames the record opened at start — body length and the CRC
// of the bytes as appended — and returns its end LSN.  Caller holds w.mu.
func (w *WAL) endLocked(start int) uint64 {
	body := w.buf[start+8:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], crc32.ChecksumIEEE(body))
	w.appends++
	w.bytes += uint64(len(w.buf) - start)
	return w.bufStart + uint64(len(w.buf))
}

// LogInsertRun records the rows a run insert placed, page by page in the
// order they were placed, and returns the LSN.  recs holds the run's
// records, which the rows index; a page's rows hold consecutive new
// slots, as pagePlan.place hands them out.  Pages the run placed nothing
// on are left out.
func (w *WAL) LogInsertRun(pages []*runPage, recs [][]byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walInsertRun)
	for _, rp := range pages {
		if len(rp.rows) == 0 {
			continue
		}
		w.buf = binary.LittleEndian.AppendUint32(w.buf, rp.f.PageNo)
		w.buf = binary.LittleEndian.AppendUint16(w.buf, rp.rows[0].slot)
		w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(rp.rows)))
		for _, r := range rp.rows {
			rec := recs[r.idx]
			w.buf = binary.AppendUvarint(w.buf, uint64(len(rec)))
			w.buf = append(w.buf, rec...)
		}
	}
	return w.endLocked(start)
}

// runPageHeader is a page section's page u32, first slot u16 and row
// count u16.
const runPageHeader = 8

// nextRunSection splits the header of the first page section off a run
// record's payload: the page, the first slot and how many slots follow
// it — all of a walDeleteRun section.  ok is false when the header is cut
// short, names no slot, or names one past what a page's directory can
// hold.
func nextRunSection(p []byte) (no uint32, first uint16, n int, rest []byte, ok bool) {
	if len(p) < runPageHeader {
		return 0, 0, 0, nil, false
	}
	no, first = binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint16(p[4:6])
	n = int(binary.LittleEndian.Uint16(p[6:8]))
	if n == 0 || int(first)+n > maxSlots {
		return 0, 0, 0, nil, false
	}
	return no, first, n, p[runPageHeader:], true
}

// nextRunPage splits the first page section off a walInsertRun payload:
// the page number, the first row's slot and that page's rows, for
// nextRunRow to split in turn.  ok is false when the section is
// malformed (see nextRunSection).
func nextRunPage(p []byte) (no uint32, first uint16, rows, rest []byte, ok bool) {
	no, first, n, rest, ok := nextRunSection(p)
	if !ok {
		return 0, 0, nil, nil, false
	}
	for ; n > 0; n-- {
		if _, rest, ok = nextRunRow(rest); !ok {
			return 0, 0, nil, nil, false
		}
	}
	return no, first, p[runPageHeader : len(p)-len(rest)], rest, true
}

// nextSection splits the first page section off a walInsertRun or
// walDeleteRun payload and returns its page.
func nextSection(typ byte, p []byte) (no uint32, rest []byte, ok bool) {
	if typ == walInsertRun {
		no, _, _, rest, ok = nextRunPage(p)
	} else {
		no, _, _, rest, ok = nextRunSection(p)
	}
	return no, rest, ok
}

// runFramed reports whether a run record's payload splits into whole page
// sections.
func runFramed(typ byte, p []byte) (ok bool) {
	for ok = true; ok && len(p) > 0; {
		_, p, ok = nextSection(typ, p)
	}
	return ok
}

// nextRunRow splits the first row off a page section's rows; ok is false
// when the row is malformed.
func nextRunRow(p []byte) (rec, rest []byte, ok bool) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n == 0 || n > uint64(len(p)-sz) {
		return nil, nil, false
	}
	return p[sz : sz+int(n)], p[sz+int(n):], true
}

// LogDeleteRun records the delete of rids, which must be sorted and
// distinct, and returns the LSN: one page section per run of consecutive
// slots on a page.
func (w *WAL) LogDeleteRun(rids []RowID) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walDeleteRun)
	for i := 0; i < len(rids); {
		j := i + 1
		for j < len(rids) && rids[j].Page == rids[i].Page && rids[j].Slot == rids[j-1].Slot+1 {
			j++
		}
		w.buf = binary.LittleEndian.AppendUint32(w.buf, rids[i].Page)
		w.buf = binary.LittleEndian.AppendUint16(w.buf, rids[i].Slot)
		w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(j-i))
		i = j
	}
	return w.endLocked(start)
}

// LogAlloc records that table now owns page (logged before the first
// insert record touching the page).
func (w *WAL) LogAlloc(table string, page uint32) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walAlloc)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, page)
	w.buf = append(w.buf, table...)
	return w.endLocked(start)
}

// LogCreateTable records a table creation with its schema, so recovery
// can rebuild a table the catalog has never seen.
func (w *WAL) LogCreateTable(table string, schema Schema) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walCreateTable)
	w.buf = appendWALString(w.buf, table)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(schema.Columns)))
	for _, c := range schema.Columns {
		w.buf = appendWALString(w.buf, c.Name)
		w.buf = append(w.buf, byte(c.Type))
	}
	return w.endLocked(start)
}

// LogCreateIndex records a secondary-index creation.
func (w *WAL) LogCreateIndex(table, column string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walCreateIndex)
	w.buf = appendWALString(w.buf, table)
	w.buf = appendWALString(w.buf, column)
	return w.endLocked(start)
}

// LogDropTable records a table drop (so recovery does not resurrect it
// from an earlier create record).
func (w *WAL) LogDropTable(table string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walDropTable)
	w.buf = appendWALString(w.buf, table)
	return w.endLocked(start)
}

// LogSymbols records the symbol table table has trained.
func (w *WAL) LogSymbols(table string, st *SymbolTable) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(walSymbols)
	w.buf = appendWALString(w.buf, table)
	w.buf = st.appendBinary(w.buf)
	return w.endLocked(start)
}

// readSymbolsRecord splits a walSymbols payload into its table name and
// symbol table.
func readSymbolsRecord(p []byte) (string, *SymbolTable, bool) {
	name, rest, ok := readWALString(p)
	if !ok {
		return "", nil, false
	}
	st, err := ParseSymbols(rest)
	return name, st, err == nil
}

func appendWALString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func readWALString(p []byte) (string, []byte, bool) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return "", nil, false
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], true
}

// Flush writes buffered records through lsn to the file (no fsync): what
// a checkpoint does before it commits a page map.  It waits for the token
// a flush in flight or a group commit holds.
func (w *WAL) Flush(lsn uint64) error {
	w.mu.Lock()
	done := w.flushed >= lsn
	w.mu.Unlock()
	if done {
		return nil
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	return w.flushLocked(lsn)
}

// flushLocked writes what is buffered through lsn, after any frame a
// failed write left pending.  It takes the whole buffer under mu in one
// frame, swapping the spare in, and deflates and writes it with mu
// released: one payload to deflate, one CRC and one write however many
// records it holds.  Frames go out in LSN order because only the holder
// of the flush token cuts them.  Caller holds flushMu, not mu.
func (w *WAL) flushLocked(lsn uint64) error {
	for {
		w.mu.Lock()
		if w.flushed >= lsn || (w.pending == nil && len(w.buf) == 0) {
			w.mu.Unlock()
			return nil
		}
		var recs []byte
		if w.pending == nil {
			recs, w.buf = w.buf, w.spare[:0]
			w.bufStart += uint64(len(recs))
			w.pendEnd = w.bufStart
		}
		w.mu.Unlock()
		if recs != nil {
			w.pending = w.fw.frame(recs)
			// One large flush must not pin its buffer for the log's life.
			w.spare = nil
			if cap(recs) <= walKeepOut {
				w.spare = recs
			}
		}
		if _, err := w.f.WriteAt(w.pending, w.fileEnd); err != nil {
			// The frame stays pending, so a transient write failure is
			// retryable without losing records: the stream has consumed
			// them, and the retry writes these same bytes to the same place.
			return &IOFault{Op: "wal write", Err: err}
		}
		w.fileEnd += int64(len(w.pending))
		w.mu.Lock()
		w.fileBytes += uint64(len(w.pending))
		w.flushed = w.pendEnd
		w.mu.Unlock()
		w.pending = nil
	}
}

// Sync forces all buffered records to stable storage.
//
// netmarkvet:commit
func (w *WAL) Sync() error {
	return w.SyncTo(w.NextLSN())
}

// SyncTo makes the log durable through lsn (which must not exceed
// NextLSN at the time of the call), coalescing concurrent callers into a
// single fsync — group commit.  The caller that takes the token while its
// records are not yet durable leads a group: it flushes everything
// buffered so far and fsyncs, while records appended meanwhile keep
// flowing into the buffer.  Every caller waiting for the token whose LSN
// the group covers returns without an fsync of its own.
//
// netmarkvet:commit
func (w *WAL) SyncTo(lsn uint64) error {
	if done, err := w.syncedThrough(lsn); done || err != nil {
		return err
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	// The token's last holder may have covered lsn, or poisoned the log.
	if done, err := w.syncedThrough(lsn); done || err != nil {
		return err
	}
	if err := w.flushLocked(w.NextLSN()); err != nil {
		return err
	}
	// Flushes move flushed only after their write, so this is what the
	// fsync covers.
	w.mu.Lock()
	target := w.flushed
	w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		// Sticky: a failed commit fsync poisons the log (see the
		// poisoned field).  Every caller waiting for the token and every
		// later commit gets an error instead of a phantom ack.
		w.mu.Lock()
		w.poisoned = err
		w.mu.Unlock()
		return &IOFault{Op: "wal fsync", Err: err}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if target > w.synced {
		w.synced = target
		w.syncs++
	}
	if w.synced < lsn {
		return fmt.Errorf("ordbms: wal sync to LSN %d, past the log's end at %d", lsn, w.synced)
	}
	return nil
}

// syncedThrough reports whether the log is durable through lsn, or the
// error a commit that is not covered gets from a poisoned log.
func (w *WAL) syncedThrough(lsn uint64) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.synced >= lsn {
		// Everything the caller needs was fsynced before any poisoning
		// event; acking it is honest even if later records are in doubt.
		return true, nil
	}
	if w.poisoned != nil {
		return false, &WALPoisonedError{Cause: w.poisoned}
	}
	return false, nil
}

// walCkptSuffix names the temp file a checkpoint builds next to the log.
const walCkptSuffix = ".ckpt"

// checkpointTo drops every record with LSN <= cut and advances the base
// to cut; records past cut (appended while the checkpoint's page flush
// was in flight) survive as the new log's tail, so a crash after the
// checkpoint cannot lose them.
//
// The switch is crash-atomic: the successor log — new header first, then
// the surviving tail's records in one frame that starts a new stream,
// their LSNs unchanged — is built in a temp file, fsynced, and renamed
// over the live log.  At no instant does an empty log carry the old base LSN
// (the bug the old truncate-then-rewrite-header order had: a crash in
// that window made recovery hand out LSNs lagging already-flushed page
// LSNs, so post-crash records were skipped on the next replay).
func (w *WAL) checkpointTo(cut uint64) error {
	// The token keeps every group commit and flush out until the
	// successor is live: a leader fsyncs w.f and a flush writes it, and
	// the swap below closes it.  Appenders go on filling the buffer
	// meanwhile; what they add is past flushed, and goes to whichever
	// file is live.
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if err := w.flushLocked(w.NextLSN()); err != nil {
		return err
	}
	w.mu.Lock()
	base, flushed, poisoned := w.base, w.flushed, w.poisoned
	w.mu.Unlock()
	cut = min(max(cut, base), flushed)
	if cut == base && poisoned == nil && !w.torn {
		return nil // nothing to drop; the log already starts at cut
	}
	// A poisoned log is rebuilt even when there is nothing to drop: the
	// successor below is written and fsynced from scratch on a fresh
	// handle, which is the only way to restore trust after a failed
	// fsync left the old handle's durability unknowable.  So is a log
	// with a torn tail: a frame written over the garbage could leave some
	// of it behind, such as a stale frame that still passes its CRC.
	var tail []byte
	if cut < flushed {
		var err error
		if tail, err = w.recordsPastLocked(base, flushed, cut); err != nil {
			return fmt.Errorf("ordbms: wal checkpoint tail read: %w", err)
		}
	}
	tmp := w.path + walCkptSuffix
	nf, err := w.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ordbms: wal checkpoint temp: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], cut)
	if _, err := nf.WriteAt(hdr[:], 0); err != nil {
		nf.Close()
		return err
	}
	w.addFileBytes(walHeaderSize)
	// The successor starts a stream of its own, and so does the next
	// frame, whichever file the swap leaves live.
	w.fw.fresh = true
	end := int64(walHeaderSize)
	if len(tail) > 0 {
		frame := w.fw.frame(tail)
		w.fw.fresh = true
		if _, err := nf.WriteAt(frame, end); err != nil {
			nf.Close()
			return err
		}
		end += int64(len(frame))
		w.addFileBytes(uint64(len(frame)))
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	// The rename is the commit point of the truncation.
	if err := w.fs.Rename(tmp, w.path); err != nil {
		nf.Close()
		return err
	}
	// Adopt the successor immediately: from here on nf IS the log at
	// w.path, and even if the directory fsync below fails, later appends
	// and fsyncs must land in the live file, not the unlinked old inode.
	w.f.Close()
	w.f = nf
	w.fileEnd, w.torn = end, false
	w.mu.Lock()
	w.syncs++
	w.base = cut
	w.synced = flushed
	w.mu.Unlock()
	if err := syncDir(w.fs, w.dir); err != nil {
		return err
	}
	// The live log is now a file that was written and fsynced end to end
	// on a fresh handle; any earlier fsync failure no longer taints it.
	w.mu.Lock()
	w.poisoned = nil
	w.mu.Unlock()
	return nil
}

// addFileBytes counts n bytes written to the log's files.
func (w *WAL) addFileBytes(n uint64) {
	w.mu.Lock()
	w.fileBytes += n
	w.mu.Unlock()
}

// recordsPastLocked inflates the file's frames, which carry the records
// from base to flushed, and returns those past LSN cut, which must lie on
// a record boundary.  Caller holds flushMu, with nothing pending.
func (w *WAL) recordsPastLocked(base, flushed, cut uint64) ([]byte, error) {
	tail := make([]byte, 0, flushed-cut)
	s := newLogScanner(w.f, w.fileEnd, walHeaderSize)
	for lsn := base; ; lsn += uint64(len(s.out)) {
		ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if lsn+uint64(len(s.out)) > cut {
			tail = append(tail, s.out[max(cut, lsn)-lsn:]...)
		}
	}
	if uint64(len(tail)) != flushed-cut {
		return nil, fmt.Errorf("the log's frames hold %d bytes past LSN %d, want %d", len(tail), cut, flushed-cut)
	}
	return tail, nil
}

// Poisoned returns the sticky commit-fsync failure, or nil while the
// log is trustworthy.
func (w *WAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poisoned
}

// BaseLSN returns the LSN the file's first frame starts at — the point
// the last completed checkpoint truncated through.  Snapshot stamps compare
// against it to decide whether persisted derived state is current.
func (w *WAL) BaseLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// SyncedLSN returns the LSN through which the log is durable.
func (w *WAL) SyncedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// closeFile releases the file handle without flushing — the crash-close
// path (CloseDiscard) for tests and read-only benchmark reopens.
func (w *WAL) closeFile() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.fw.release()
	return w.f.Close()
}

// Appends returns the number of records appended (for tests and stats).
func (w *WAL) Appends() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Bytes returns the bytes appended, framing included: what the log has
// cost since it was opened, whatever checkpoints have truncated since.
func (w *WAL) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// FileBytes returns the bytes written to the log's files since it was
// opened: its frames, and the headers and tails of checkpoints'
// successors.  Beside Bytes it is what deflating the records saves.
func (w *WAL) FileBytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fileBytes
}

// Syncs returns the number of fsyncs issued — the group-commit win is
// visible as syncs staying far below appends under batched ingest.
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		return err
	}
	return w.closeFile()
}

// WALRecord is a decoded log record handed to recovery.
type WALRecord struct {
	LSN  uint64 // end LSN of the record
	Type byte
	Page uint32 // walAlloc's page
	Rec  []byte // a run's page sections (see nextRunSection), walAlloc's table name, DDL payloads
}

// errCorruptRecord reports a record in an intact frame that is cut
// short, fails its CRC or does not parse: no crash writes one, so the log
// is corrupt.
var errCorruptRecord = errors.New("ordbms: corrupt log record")

// nextRecord splits the first record off a record stream: its body —
// type byte and payload — and the records after it.  ok is false when
// the record is cut short, empty or fails its CRC.
func nextRecord(p []byte) (body, rest []byte, ok bool) {
	if len(p) < 8 {
		return nil, nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(p[0:4]))
	if n == 0 || n > uint64(len(p)-8) {
		return nil, nil, false
	}
	body = p[8 : 8+n]
	return body, p[8+n:], crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(p[4:8])
}

// Replay calls fn for each record the log's frames carry, in order;
// r.Rec is valid only during the call, and a nil fn inflates the frames
// without reading their records.  A torn tail — a frame cut short or
// failing its CRC — terminates the scan cleanly (crash semantics);
// torn=true reports that bytes follow the last intact frame — the caller
// must checkpoint the log before appending new records, or the next
// replay would stop at the garbage and never reach them.  A frame that
// passes its CRC but does not inflate to whole intact records, or a
// record that does not parse, is an error, not a tail: the frames after
// it were committed.
//
// The first Replay after openWAL is also the scan that finds the log's
// end: the log counts as written and durable through each frame before
// fn sees its records, so a checkpoint that commits a page recovery
// dirtied has nothing to write first.  Memory stays at a frame whatever
// the log's size.
func (w *WAL) Replay(fn func(r WALRecord) error) (torn bool, err error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	st, err := w.f.Stat()
	if err != nil {
		return false, err
	}
	w.mu.Lock()
	lsn := w.base
	w.mu.Unlock()
	s := newLogScanner(w.f, st.Size(), walHeaderSize)
	for {
		ok, err := s.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		if !w.scanned {
			w.mu.Lock()
			w.flushed += uint64(len(s.out))
			w.synced, w.bufStart = w.flushed, w.flushed
			w.mu.Unlock()
		}
		if fn == nil {
			continue
		}
		if lsn, err = replayFrame(s.out, s.pos, lsn, fn); err != nil {
			return false, err
		}
	}
	if !w.scanned {
		w.fileEnd, w.torn, w.scanned = s.pos, s.torn(), true
	}
	return s.torn(), nil
}

// replayFrame calls fn for each record of p, the records of the frame
// ending at byte pos, which start at LSN lsn, and returns the LSN they
// end at.
func replayFrame(p []byte, pos int64, lsn uint64, fn func(r WALRecord) error) (uint64, error) {
	for len(p) > 0 {
		body, rest, ok := nextRecord(p)
		if !ok {
			return lsn, fmt.Errorf("%w: the frame ending at byte %d holds a record, at LSN %d, cut short or failing its CRC", errCorruptRecord, pos, lsn)
		}
		lsn += uint64(len(p) - len(rest))
		p = rest
		r := WALRecord{LSN: lsn, Type: body[0], Rec: body[1:]}
		ok = true
		switch body[0] {
		case walAlloc:
			if ok = len(body) >= 5; ok {
				r.Page = binary.LittleEndian.Uint32(body[1:5])
				r.Rec = body[5:] // table name
			}
		case walInsertRun, walDeleteRun:
			ok = runFramed(r.Type, r.Rec)
		case walSymbols:
			_, _, ok = readSymbolsRecord(r.Rec)
		case walCreateTable, walCreateIndex, walDropTable:
			// DDL payload, decoded by recovery
		case walCheckpoint:
			// informational only
		default:
			ok = false
		}
		if !ok {
			return lsn, fmt.Errorf("%w: type %d, ending at LSN %d", errCorruptRecord, body[0], lsn)
		}
		if err := fn(r); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}
