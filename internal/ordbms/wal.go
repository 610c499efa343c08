package ordbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"netmark/internal/vfs"
)

// WAL is a redo-only write-ahead log.  Every page mutation is logged
// before the page may reach disk (the buffer pool enforces this through
// the flush gate).  Recovery replays records whose LSN exceeds the page's
// on-disk LSN.
//
// LSNs are monotonically increasing byte positions; a checkpoint truncates
// the physical file but advances a persistent base so LSNs never repeat.
type WAL struct {
	// mu is deliberately not marked hot — flush and checkpoint
	// legitimately write and fsync the log while holding it (group
	// commit drops it around the leader's fsync).  netmarkvet:lockorder 40
	mu       sync.Mutex
	fs       vfs.FS   // filesystem all log I/O goes through
	f        vfs.File // guarded by mu
	path     string   // log file path (checkpoints swap the file atomically)
	dir      string   // parent directory, fsynced after the swap
	base     uint64   // guarded by mu; LSN of physical file offset 0
	buf      []byte   // guarded by mu; appended but not yet written records
	bufStart uint64   // guarded by mu; LSN of buf[0]
	flushed  uint64   // guarded by mu; LSN through which the file is written (not necessarily synced)
	synced   uint64   // guarded by mu; LSN through which the file is fsynced
	appends  uint64   // guarded by mu; stat: records appended
	bytes    uint64   // guarded by mu; stat: bytes appended, framing included
	syncs    uint64   // guarded by mu; stat: fsyncs issued

	// poisoned is the first commit-fsync failure, sticky until a
	// checkpoint rebuilds the log on a fresh handle.  After a failed
	// fsync the kernel may have dropped dirty pages while clearing the
	// error, so a later "successful" fsync would not cover the earlier
	// records: every commit must keep erroring rather than silently ack
	// data that may not be durable.  Guarded by mu.
	poisoned error

	// Group-commit state: while a leader's fsync is in flight, followers
	// wait on syncDone instead of issuing their own.  Guarded by mu.
	syncing  bool
	syncDone chan struct{} // guarded by mu
}

// Log layout.  The file is a 16-byte header — walMagic, whose digits are
// the store's format number, then the base LSN — followed by records.
// Every record is framed as u32 body length, u32 CRC-32 of the body, then
// the body: one type byte and a payload.  All integers are little-endian;
// "record bytes" are a row exactly as its page holds it (null bitmap and
// payloads, see Schema.Encode), so what a row costs the heap it costs
// the log, plus its length as a uvarint — one byte below 128.
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
	// frame, one CRC and one LSN for the whole run, so the rows of a
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
var walMagic = [8]byte{'N', 'M', 'W', 'A', 'L', 'v', '1', '2'}

// OpenWAL opens or creates the log at path, doing all file I/O through
// fsys.
func OpenWAL(fsys vfs.FS, path string) (*WAL, error) {
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
	end := uint64(st.Size())
	if end < walHeaderSize {
		end = walHeaderSize
	}
	w.flushed = w.base + end - walHeaderSize
	w.synced = w.flushed
	w.bufStart = w.flushed
	return w, nil
}

// AttachTo installs this WAL as the pool's flush gate, enforcing the
// WAL-ahead rule.
func (w *WAL) AttachTo(pool *BufferPool) {
	pool.SetFlushGate(func(lsn uint64) error { return w.Flush(lsn) })
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

// Flush writes buffered records through lsn to the file (no fsync).
func (w *WAL) Flush(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked(lsn)
}

func (w *WAL) flushLocked(lsn uint64) error {
	if lsn <= w.flushed || len(w.buf) == 0 {
		return nil
	}
	// Write the whole buffer; partial flushes complicate framing for no
	// benefit at these sizes.
	off := int64(w.flushed-w.base) + walHeaderSize
	if _, err := w.f.WriteAt(w.buf, off); err != nil {
		// The buffer is retained (cleared only below, on success), so a
		// transient write failure is retryable without losing records.
		return &IOFault{Op: "wal write", Err: err}
	}
	w.flushed = w.bufStart + uint64(len(w.buf))
	w.bufStart = w.flushed
	w.buf = w.buf[:0]
	return nil
}

// Sync forces all buffered records to stable storage.
//
// netmarkvet:commit
func (w *WAL) Sync() error {
	return w.SyncTo(w.NextLSN())
}

// SyncTo makes the log durable through lsn (which must not exceed
// NextLSN at the time of the call), coalescing concurrent callers into a
// single fsync — group commit.  The first caller to find no fsync in
// flight becomes the leader: it flushes everything buffered so far and
// fsyncs outside the lock, so records appended meanwhile keep flowing
// and every follower whose LSN the group covers returns without its own
// fsync.
//
// netmarkvet:commit
func (w *WAL) SyncTo(lsn uint64) error {
	for {
		w.mu.Lock()
		if w.synced >= lsn {
			// Everything the caller needs was fsynced before any
			// poisoning event; acking it is honest even if later
			// records are in doubt.
			w.mu.Unlock()
			return nil
		}
		if w.poisoned != nil {
			err := &WALPoisonedError{Cause: w.poisoned}
			w.mu.Unlock()
			return err
		}
		if w.syncing {
			// Ride on the in-flight group, then re-check coverage.
			done := w.syncDone
			w.mu.Unlock()
			<-done
			continue
		}
		w.syncing = true
		w.syncDone = make(chan struct{})
		flushErr := w.flushLocked(w.bufStart + uint64(len(w.buf)))
		target := w.flushed
		// Capture the handle while the lock is held: checkpointTo swaps
		// w.f for the truncated successor and closes the old handle, and
		// it defers that swap until no group fsync is in flight (syncing
		// is true here), so f stays open for the Sync below.
		f := w.f
		w.mu.Unlock()

		var syncErr error
		if flushErr == nil {
			syncErr = f.Sync()
		}

		w.mu.Lock()
		if flushErr == nil && syncErr == nil && target > w.synced {
			w.synced = target
			w.syncs++
		}
		if syncErr != nil {
			// Sticky: a failed commit fsync poisons the log (see the
			// poisoned field).  Every waiting follower and every later
			// commit gets an error instead of a phantom ack.
			w.poisoned = syncErr
		}
		w.syncing = false
		close(w.syncDone)
		covered := w.synced >= lsn
		w.mu.Unlock()
		if flushErr != nil {
			return flushErr
		}
		if syncErr != nil {
			return &IOFault{Op: "wal fsync", Err: syncErr}
		}
		if covered {
			return nil
		}
		// Our records were appended after the flush point we led (only
		// possible for misuse with lsn > NextLSN); lead another group.
	}
}

// walCkptSuffix names the temp file a checkpoint builds next to the log.
const walCkptSuffix = ".ckpt"

// checkpointTo drops every record with LSN <= cut and advances the base
// to cut; records past cut (appended while the checkpoint's page flush
// was in flight) survive as the new log's tail, so a crash after the
// checkpoint cannot lose them.
//
// The switch is crash-atomic: the successor log — new header first, then
// the surviving tail — is built in a temp file, fsynced, and renamed over
// the live log.  At no instant does an empty log carry the old base LSN
// (the bug the old truncate-then-rewrite-header order had: a crash in
// that window made recovery hand out LSNs lagging already-flushed page
// LSNs, so post-crash records were skipped on the next replay).
func (w *WAL) checkpointTo(cut uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Wait out any in-flight group commit: its leader fsyncs the current
	// w.f outside the lock, and the swap below closes that handle.
	for w.syncing {
		done := w.syncDone
		w.mu.Unlock()
		<-done
		w.mu.Lock()
	}
	if err := w.flushLocked(w.bufStart + uint64(len(w.buf))); err != nil {
		return err
	}
	if cut < w.base {
		cut = w.base
	}
	if cut > w.flushed {
		cut = w.flushed
	}
	if cut == w.base && w.poisoned == nil {
		return nil // nothing to drop; the log already starts at cut
	}
	// A poisoned log is rebuilt even when there is nothing to drop: the
	// successor below is written and fsynced from scratch on a fresh
	// handle, which is the only way to restore trust after a failed
	// fsync left the old handle's durability unknowable.
	var tail []byte
	if n := w.flushed - cut; n > 0 {
		tail = make([]byte, n)
		if _, err := w.f.ReadAt(tail, int64(cut-w.base)+walHeaderSize); err != nil {
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
	if len(tail) > 0 {
		if _, err := nf.WriteAt(tail, walHeaderSize); err != nil {
			nf.Close()
			return err
		}
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
	w.syncs++
	w.base = cut
	w.synced = w.flushed
	if err := syncDir(w.fs, w.dir); err != nil {
		return err
	}
	// The live log is now a file that was written and fsynced end to end
	// on a fresh handle; any earlier fsync failure no longer taints it.
	w.poisoned = nil
	return nil
}

// Poisoned returns the sticky commit-fsync failure, or nil while the
// log is trustworthy.
func (w *WAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poisoned
}

// BaseLSN returns the LSN of physical file offset 0 — the point the last
// completed checkpoint truncated through.  Snapshot stamps compare
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
	w.mu.Lock()
	defer w.mu.Unlock()
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

// errCorruptRecord reports a log record whose checksum holds but whose
// body does not parse: no crash writes one, so the log is corrupt.
var errCorruptRecord = errors.New("ordbms: corrupt log record")

// Replay scans the physical log and calls fn for each intact record.
// A torn tail — a record cut short or failing its checksum — terminates
// the scan cleanly (crash semantics); torn=true reports that garbage
// bytes follow the last intact record — the caller must checkpoint the
// log before appending new records, or the next replay would stop at the
// garbage and never reach them.  A record that passes its checksum but
// does not parse is an error, not a tail: the records after it were
// committed.
func (w *WAL) Replay(fn func(r WALRecord) error) (torn bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.f.Stat()
	if err != nil {
		return false, err
	}
	pos := int64(walHeaderSize)
	lsn := w.base
	var frame [8]byte
	for pos < st.Size() {
		if _, err := w.f.ReadAt(frame[:], pos); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return true, nil // torn tail
			}
			return false, err
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || int64(n) > st.Size()-pos-8 {
			return true, nil // torn tail
		}
		body := make([]byte, n)
		if _, err := w.f.ReadAt(body, pos+8); err != nil {
			return true, nil
		}
		if crc32.ChecksumIEEE(body) != crc {
			return true, nil // corrupt tail
		}
		pos += 8 + int64(n)
		lsn = w.base + uint64(pos-walHeaderSize)
		r := WALRecord{LSN: lsn, Type: body[0], Rec: body[1:]}
		ok := true
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
			return false, fmt.Errorf("%w: type %d, ending at LSN %d", errCorruptRecord, body[0], lsn)
		}
		if err := fn(r); err != nil {
			return false, err
		}
	}
	return false, nil
}
