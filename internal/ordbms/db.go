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
	"sort"
	"sync"
	"sync/atomic"

	"netmark/internal/vfs"
)

// Options configures a database instance.
type Options struct {
	// Dir is the directory holding the data file, WAL and catalog.
	// Empty means a volatile in-memory store with no logging.
	Dir string
	// PoolPages caps the buffer pool (default 4096 pages = 32 MiB).
	PoolPages int
	// FS routes every file operation the store performs (data file, WAL,
	// catalog, snapshots).  Nil means the real filesystem; fault-injection
	// tests pass a vfs.FaultFS.
	FS vfs.FS
}

// DB is the database engine facade: a disk manager, buffer pool, WAL and a
// set of tables.
type DB struct {
	// mu serialises DDL against table lookup.  netmarkvet:lockorder 10
	mu   sync.RWMutex
	opts Options
	dir  string
	fs   vfs.FS
	disk DiskManager
	// file is disk for a directory store: the checkpoint commits its page
	// map.  Nil for a volatile store.
	file *fileDisk
	pool *BufferPool
	wal  *WAL

	// health tracks degraded read-only mode: write-path I/O failures
	// flip it, a successful checkpoint clears it.
	health healthState

	tables map[string]*Table // guarded by mu

	// catalogGen is the generation of the catalog as loaded from disk,
	// advanced on every successful checkpoint.  Snapshot stamps compare
	// against it.
	catalogGen uint64

	// preCkpt holds the registered pre-checkpoint hooks, run inside the
	// checkpoint critical section after all pages are flushed and before
	// the catalog is saved and the WAL truncated.
	preCkpt []func(CheckpointInfo) error

	// walAllocs maps table name to pages the WAL says it adopted —
	// collected during recovery, merged into the catalog page lists by
	// loadCatalog (the catalog only learns about pages at checkpoints).
	walAllocs map[string][]uint32
	// allocsGrew reports that some table's page list had to be extended
	// beyond what the catalog recorded.
	allocsGrew bool
	// walEndAtOpen is the WAL's end LSN captured right after recovery —
	// the stamp a store-level snapshot must carry to be current.
	walEndAtOpen uint64
	// ckptDue says the next checkpoint must run even if nothing is logged
	// since the last one: the open replayed, adopted or cut something, or
	// derived state was rebuilt rather than loaded (NoteRebuilt).  A
	// checkpoint that runs clears it; one that then fails degrades the
	// store, which keeps the next from being skipped.
	ckptDue atomic.Bool

	// Replayed reports how many WAL records crash recovery applied when
	// the store was opened (0 for clean shutdowns and fresh stores).
	Replayed int

	// stringsRaw and stringsStored sum, over every row inserted since
	// open, the bytes of its STRING values and the bytes their payloads
	// took stored, coded or raw (see StringStats).
	stringsRaw, stringsStored atomic.Uint64
	// trainDue says some table's strings have passed the training sample
	// since CommitPoint last looked (see Table.train).  It spares
	// CommitPoint the db.mu a checkpoint holds across its fsyncs.
	trainDue atomic.Bool
}

// CheckpointInfo is handed to pre-checkpoint hooks.  At hook time every
// dirty page is flushed and fsynced; CatalogGen and LSN are the stamps
// the checkpoint is about to commit, so derived state persisted under
// them is exactly as current as the catalog and WAL the reopening
// process will observe.
type CheckpointInfo struct {
	// Dir is the database directory the hook should persist into.
	Dir string
	// CatalogGen is the catalog generation this checkpoint will write.
	CatalogGen uint64
	// LSN is the WAL LSN the checkpoint truncates through — the new base
	// LSN after the checkpoint completes.
	LSN uint64
	// FS is the filesystem the snapshot must be written through (the
	// store's configured vfs; nil falls back to the real filesystem).
	FS vfs.FS
}

// filesystem returns the FS snapshots are written through, defaulting
// to the real one.
func (ci CheckpointInfo) filesystem() vfs.FS {
	if ci.FS == nil {
		return vfs.OS
	}
	return ci.FS
}

// snapFrameLen is the fixed header of a snapshot file: magic(8)
// version(4) crc32(4) size(8).  The CRC covers everything after it: the
// 16-byte (catalog generation, checkpoint LSN) stamp, then the caller's
// payload as one compress/flate stream at walLevel.  size is the
// payload's inflated length with snapDeflated set: the one buffer a read
// inflates into, and the bound it holds the stream to.
const snapFrameLen = 24

// snapDeflated marks, in a snapshot's size word, a deflated payload.  The
// raw frame earlier builds wrote, whose size word is the length of its
// stamp and payload, lacks it and reads as "version": the caller
// rebuilds, and the next checkpoint writes the file deflated.
const snapDeflated = 1 << 63

// WriteSnapshotFile frames payload as a snapshot of this checkpoint —
// header, the checkpoint's stamps, payload deflated — and commits it into
// the checkpoint's directory.  ReadSnapshotFile is its inverse; the frame,
// the stamps and the test that decides whether a snapshot still
// describes the heap exist only in this pair.  Like a log frame, the
// stream is padded with empty blocks when it would inflate more than
// walMaxInflate times.
func (ci CheckpointInfo) WriteSnapshotFile(name string, magic [8]byte, version uint32, payload []byte) error {
	d := takeDeflater()
	defer putDeflater(d)
	d.out = append(d.out[:0], make([]byte, snapFrameLen)...)
	d.out = binary.LittleEndian.AppendUint64(d.out, ci.CatalogGen)
	d.out = binary.LittleEndian.AppendUint64(d.out, ci.LSN)
	start := len(d.out)
	d.zw.Reset(d)
	// None of these calls can fail: the stream writes to d, which does not.
	d.zw.Write(payload)
	d.zw.Flush()
	for n := len(d.out) - start; n*walMaxInflate < len(payload); n += len(emptyBlock) {
		d.out = append(d.out, emptyBlock...)
	}
	d.zw.Close()
	out := d.out
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[8:], version)
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(out[snapFrameLen:]))
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload))|snapDeflated)
	return ci.commitFile(name, out)
}

// ReadSnapshotFile returns the payload of the named snapshot when it was
// written by the checkpoint this open started from, and otherwise the
// reason it cannot be used: "missing",
// "unreadable", "corrupt" (which takes in a stream that does not inflate
// to exactly its recorded size), "version" (another version's file, or
// the raw frame earlier builds wrote), or "stale" (its stamps are not the
// catalog generation and log end this open found — a crash
// mid-checkpoint, or writes after it).  A reason is never an error: the
// caller rebuilds from its tables, which stay the source of truth.
//
// Recovery may have replayed records and still the snapshot be current:
// a checkpoint cut short after its snapshot was committed leaves the
// catalog before it, whose pages recovery brings forward to the log's
// end, and the snapshot is stamped with that end, while Open's own
// checkpoint commits the catalog at the generation the snapshot carries.
func (db *DB) ReadSnapshotFile(name string, magic [8]byte, version uint32) (payload []byte, reason string) {
	data, err := db.fs.ReadFile(filepath.Join(db.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "missing"
		}
		return nil, "unreadable"
	}
	if len(data) < snapFrameLen || [8]byte(data[:8]) != magic {
		return nil, "corrupt"
	}
	size := binary.LittleEndian.Uint64(data[16:24])
	if binary.LittleEndian.Uint32(data[8:12]) != version || size&snapDeflated == 0 {
		return nil, "version"
	}
	body := data[snapFrameLen:]
	if binary.LittleEndian.Uint32(data[12:16]) != crc32.ChecksumIEEE(body) || len(body) < 16 {
		return nil, "corrupt"
	}
	if binary.LittleEndian.Uint64(body[0:8]) != db.CatalogGen() ||
		binary.LittleEndian.Uint64(body[8:16]) != db.WALEndLSN() {
		return nil, "stale"
	}
	if payload = inflateSnapshot(body[16:], size&^snapDeflated); payload == nil {
		return nil, "corrupt"
	}
	return payload, ""
}

// inflater is a decompressor and the reader it inflates from, kept
// between snapshot reads in snapInflaters: a flate reader is some 40 KB
// of window and tables.
type inflater struct {
	zr  io.ReadCloser
	src bytes.Reader
}

// snapInflaters is a free list, as walDeflaters is, and keeps four for
// the same reason: more than a process has stores opening at once.
var snapInflaters = make(chan *inflater, 4)

// inflateSnapshot inflates z into one buffer of size bytes.  It is nil
// when size is past walMaxInflate times z's bytes, before anything is
// allocated for it, and when z is not one stream that inflates to
// exactly size bytes and ends with z.
func inflateSnapshot(z []byte, size uint64) []byte {
	if size > uint64(len(z))*walMaxInflate {
		return nil
	}
	var inf *inflater
	select {
	case inf = <-snapInflaters:
	default:
		inf = new(inflater)
	}
	defer func() {
		select {
		case snapInflaters <- inf:
		default:
		}
	}()
	inf.src.Reset(z)
	if inf.zr == nil {
		inf.zr = flate.NewReader(&inf.src)
	} else if inf.zr.(flate.Resetter).Reset(&inf.src, nil) != nil {
		return nil
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(inf.zr, payload); err != nil {
		return nil
	}
	// Past size the stream must end, and z with it.  A flate Read
	// returns a byte or an error.
	var past [1]byte
	if _, err := inf.zr.Read(past[:]); err != io.EOF || inf.src.Len() != 0 {
		return nil
	}
	return payload
}

// commitFile writes data under name in the checkpoint's directory with
// the engine's crash-durability sequence — temp file, fsync, rename,
// directory fsync.  The catalog and every snapshot of a checkpoint share
// this one implementation of the atomic write.
func (ci CheckpointInfo) commitFile(name string, data []byte) error {
	fsys := ci.filesystem()
	path := filepath.Join(ci.Dir, name)
	if err := writeFileSync(fsys, path+".tmp", data); err != nil {
		return err
	}
	if err := fsys.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(fsys, ci.Dir)
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	if opts.PoolPages == 0 {
		opts.PoolPages = 4096
	}
	db := &DB{opts: opts, dir: opts.Dir, fs: opts.FS, tables: make(map[string]*Table)}
	if db.fs == nil {
		db.fs = vfs.OS
	}
	if opts.Dir == "" {
		db.disk = NewMemDisk()
		db.pool = NewBufferPool(db.disk, opts.PoolPages)
		return db, nil
	}
	if err := db.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ordbms: create dir: %w", err)
	}
	// The format gate comes first: a store this version cannot read is
	// refused (ErrStoreFormat) before anything in the directory is written.
	cat, err := db.readCatalog()
	if err != nil {
		return nil, err
	}
	// Recovery's replay is the scan that finds where the log ends.
	wal, err := openWAL(db.fs, filepath.Join(opts.Dir, "wal.nmlog"))
	if err != nil {
		return nil, err
	}
	count, extents := uint32(1), [][3]int64(nil) // a fresh store's: page 0
	if cat != nil {
		count, extents = cat.PageCount, cat.Extents
	}
	disk, err := openFileDisk(db.fs, filepath.Join(opts.Dir, "data.nmdb"), count, extents)
	if err != nil {
		return nil, errors.Join(err, wal.closeFile())
	}
	db.disk, db.file = disk, disk
	db.wal = wal
	db.pool = NewBufferPool(disk, opts.PoolPages)
	db.pool.onIOFault = func(err error) { db.noteWriteError("page write", err) }
	// The open is doomed on these paths; closing may itself fail, and a
	// failed WAL close is durability information, so fold it into the
	// reported error instead of dropping it.
	fail := func(e error) error {
		return errors.Join(e, wal.Close(), disk.Close())
	}
	replayed, allocs, ops, torn, err := Recover(disk, db.pool, wal)
	if err != nil {
		return nil, fail(fmt.Errorf("ordbms: recovery failed: %w", err))
	}
	db.Replayed = replayed
	db.walAllocs = allocs
	db.walEndAtOpen = wal.SyncedLSN()
	// The catalog's heap metadata describes the pages only if nothing
	// happened after the checkpoint that wrote it: no record in the log,
	// none replayed and no torn tail.
	builds, err := db.loadCatalog(cat, replayed == 0 && !torn && db.walEndAtOpen == wal.BaseLSN())
	if err != nil {
		return nil, fail(err)
	}
	if builds, err = db.applyRecoveredOps(ops, builds); err != nil {
		return nil, fail(err)
	}
	// Indexes are built last: a table's rows decode only once it has its
	// symbol table, which the log may hold past every index it creates.
	for _, b := range builds {
		if db.tables[b.t.name] != b.t {
			continue // dropped since
		}
		if err := b.t.buildIndexLocked(b.col); err != nil {
			return nil, fail(err)
		}
	}
	for _, t := range db.tables {
		if t.syms.Load() == nil {
			// How far the table's strings are past the sample is read off
			// the heap at the first commit, as if they had just passed it.
			t.untrained.Store(sampleBytes)
			db.trainDue.Store(true)
		}
	}
	if replayed > 0 || db.allocsGrew || torn {
		db.ckptDue.Store(true)
		// Re-establish the checkpoint invariants recovery consumed: the
		// catalog must record every page the replayed records adopted
		// before those records can be dropped, so run the full sequence
		// (snapshot hooks, catalog, WAL truncation) rather than bare WAL
		// surgery.  A torn tail forces this too — new records
		// appended after surviving garbage would be unreachable by the
		// next replay, so the garbage must be truncated away before any
		// append happens.
		if err := db.Checkpoint(); err != nil {
			return nil, fail(fmt.Errorf("ordbms: post-recovery checkpoint: %w", err))
		}
	}
	return db, nil
}

// Pool exposes the buffer pool for stats.
func (db *DB) Pool() *BufferPool { return db.pool }

// CreateTable registers a new table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("ordbms: empty table name")
	}
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("ordbms: table %q already exists", name)
	}
	t := &Table{
		db:      db,
		name:    name,
		schema:  schema,
		heap:    NewHeapFile(db.pool, db.wal),
		indexes: make(map[string]*Index),
	}
	t.heap.tag = name
	if db.wal != nil {
		db.wal.LogCreateTable(name, schema)
	}
	db.tables[name] = t
	return t, nil
}

// indexBuild is a secondary index Open has still to build from its
// table's heap.
type indexBuild struct {
	t   *Table
	col string
}

// applyRecoveredOps replays logged DDL the catalog has not seen: tables
// created (with their committed pages), indexes added, tables dropped,
// symbol tables trained — all since the last checkpoint.  Ops the catalog
// already reflects are skipped; applying anything marks the catalog stale
// so Open runs a full checkpoint to persist the merged state.  An index
// is not built here but added to builds, the indexes still to build,
// which it returns.  Runs during Open, before the DB is shared with any
// other goroutine.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (db *DB) applyRecoveredOps(ops []RecoveredOp, builds []indexBuild) ([]indexBuild, error) {
	for _, op := range ops {
		switch op.Kind {
		case walCreateTable:
			if _, exists := db.tables[op.Table]; exists {
				continue
			}
			schema, err := NewSchema(op.Cols...)
			if err != nil {
				return nil, fmt.Errorf("ordbms: recovered create of %q: %w", op.Table, err)
			}
			heap, err := OpenHeapFile(db.pool, db.wal, db.walAllocs[op.Table])
			if err != nil {
				return nil, err
			}
			heap.tag = op.Table
			db.tables[op.Table] = &Table{
				db: db, name: op.Table, schema: schema,
				heap: heap, indexes: make(map[string]*Index),
			}
			db.allocsGrew = true
		case walCreateIndex:
			t := db.tables[op.Table]
			if t == nil {
				continue
			}
			if _, dup := t.indexes[op.Column]; dup || slices.Contains(builds, indexBuild{t, op.Column}) {
				continue
			}
			builds = append(builds, indexBuild{t, op.Column})
			db.allocsGrew = true
		case walDropTable:
			if _, ok := db.tables[op.Table]; ok {
				delete(db.tables, op.Table)
				db.allocsGrew = true
			}
		case walSymbols:
			// The catalog learns a table's symbol table at the checkpoint
			// after it was trained; until then the log is where it is.
			if t := db.tables[op.Table]; t != nil {
				t.syms.Store(op.Symbols)
			}
		}
	}
	return builds, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// DropTable removes a table.  Its pages are abandoned (vacuum is a
// non-goal for the reproduction).
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("ordbms: no table %q", name)
	}
	if db.wal != nil {
		db.wal.LogDropTable(name)
	}
	delete(db.tables, name)
	return nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Commit makes all mutations so far durable: the WAL is flushed (and
// fsynced unless disabled).  Concurrent commits coalesce into one fsync
// (WAL group commit).  In-memory stores are a no-op.  A commit failure
// degrades the store (see Writable); the data whose commit failed is
// reported failed, never silently acked.
//
// A table whose strings have passed the training sample trains its
// symbol table here, once, and the commit carries the walSymbols record.
// Commit is CommitPoint then CommitTo.
func (db *DB) Commit() error {
	if db.wal != nil {
		if err := db.Writable(); err != nil {
			return err
		}
	}
	lsn, err := db.CommitPoint()
	if err != nil {
		return err
	}
	return db.CommitTo(lsn)
}

// CommitPoint is the half of Commit that orders: a table whose strings
// have passed the training sample trains here, and the LSN returned is
// the one CommitTo must reach to make every mutation so far durable.  A
// writer that commits behind itself calls it where Commit would run, and
// carries on while CommitTo runs elsewhere: the tables train at the same
// rows whenever the fsync lands.
func (db *DB) CommitPoint() (uint64, error) {
	if err := db.train(); err != nil {
		return 0, err
	}
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.NextLSN(), nil
}

// CommitTo makes the log durable through lsn, an LSN CommitPoint
// returned, as Commit does, and trains nothing.
//
// netmarkvet:commit
func (db *DB) CommitTo(lsn uint64) error {
	if db.wal == nil {
		return nil
	}
	if err := db.Writable(); err != nil {
		return err
	}
	err := db.wal.SyncTo(lsn)
	if err != nil {
		db.noteWriteError("wal commit", err)
	}
	return err
}

// WALStats returns (records appended, fsyncs issued, bytes appended), all
// zero for in-memory stores.  Group-commit batching shows up as syncs
// growing per batch while appends grow per run inserted; bytes — the
// records as appended, framing included, before the log deflates them —
// over the bytes ingested is what the store logs per byte.
func (db *DB) WALStats() (appends, syncs, bytes uint64) {
	if db.wal == nil {
		return 0, 0, 0
	}
	return db.wal.Appends(), db.wal.Syncs(), db.wal.Bytes()
}

// WALFileBytes returns the bytes written to the log's files since open
// (see WAL.FileBytes), zero for in-memory stores: over the bytes
// ingested, the log's write amplification on the device.
func (db *DB) WALFileBytes() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.FileBytes()
}

// HeapStats returns how many pages the tables' heaps own and their bytes
// uncompressed — beside WALStats and HeapFileBytes, the terms that make up
// a store's bytes per byte ingested.
func (db *DB) HeapStats() (pages int, bytes int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		pages += len(t.heap.Pages())
	}
	return pages, int64(pages) * PageSize
}

// HeapFileBytes returns the bytes the data file's committed extents take,
// each page compressed as the last checkpoint wrote it; zero for a
// volatile store.  Over HeapStats' bytes it is what compressing pages at
// rest saves.
func (db *DB) HeapFileBytes() int64 {
	if db.file == nil {
		return 0
	}
	return db.file.fileBytes()
}

// StringStats returns the bytes of STRING values inserted since open,
// the bytes their payloads took stored — codes where coding was
// shorter, the string where not — and how many tables have a symbol
// table.  Stored over raw is what coding saves; on a store whose later
// documents differ from those its tables trained on, it drifts up.
func (db *DB) StringStats() (raw, stored uint64, coded int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.syms.Load() != nil {
			coded++
		}
	}
	return db.stringsRaw.Load(), db.stringsStored.Load(), coded
}

// train has every table whose strings have passed the training sample
// build its symbol table; CommitPoint runs it when trainDue says one has.
func (db *DB) train() error {
	if !db.trainDue.Swap(false) {
		return nil
	}
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, name := range db.tableNamesLocked() {
		tables = append(tables, db.tables[name])
	}
	db.mu.RUnlock()
	for _, t := range tables {
		if err := t.train(); err != nil {
			db.trainDue.Store(true) // the next CommitPoint tries again
			return err
		}
	}
	return nil
}

// RegisterPreCheckpointHook installs fn to run inside every checkpoint's
// critical section, after all pages are flushed and before the catalog
// is saved and the WAL truncated.  Stores layered on the engine persist
// their derived state here, stamped with the CheckpointInfo values, so a
// reopen can tell exactly whether that state matches the heap.  A hook
// error aborts the checkpoint (the WAL keeps its records, so nothing is
// lost), and a checkpoint with nothing to write runs none.  Hooks must
// not call back into DB methods.
func (db *DB) RegisterPreCheckpointHook(fn func(CheckpointInfo) error) {
	db.mu.Lock()
	db.preCkpt = append(db.preCkpt, fn)
	db.mu.Unlock()
}

// CatalogGen returns the catalog generation currently on disk.
func (db *DB) CatalogGen() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.catalogGen
}

// WALEndLSN returns the log's end LSN as captured at open, before any
// new activity.  A store-level snapshot is current exactly when it is
// stamped with this LSN and recovery replayed nothing: every logged
// record was already reflected in the flushed heap the snapshot
// serialised, and nothing was logged since.
func (db *DB) WALEndLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.walEndAtOpen
}

// Dir returns the storage directory ("" for in-memory stores).
func (db *DB) Dir() string { return db.dir }

// Checkpoint flushes all pages, runs the snapshot hooks, persists the
// catalog with each heap's metadata, and truncates the WAL.  After a
// clean checkpoint, reopening replays nothing and takes the heap
// metadata from the catalog.  A checkpoint writes nothing when the
// store's files already hold all it has: nothing logged since the last
// checkpoint's cut, nothing replayed or rebuilt at open, and no failure
// since that degraded the store.
//
// The sequence is crash-safe at every step: the catalog and the WAL
// successor are written temp-file-first with fsyncs and committed by
// rename, and every hook's snapshot is stamped with the catalog
// generation and checkpoint LSN so a reopen after a mid-sequence crash
// either sees matching stamps (state is current) or falls back to the
// WAL replay + derived-rebuild path.
func (db *DB) Checkpoint() error {
	if err := db.checkpoint(); err != nil {
		// A failed checkpoint is a write-path failure: durability could
		// not be re-established, so the store (stays) degraded.
		db.noteWriteError("checkpoint", err)
		return err
	}
	// A checkpoint that completed proved the device writable end to end
	// (pages, snapshots, catalog, WAL swap all written and fsynced), so
	// write service can resume.
	db.clearDegraded()
	return nil
}

func (db *DB) checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.upToDate() {
		return nil
	}
	db.ckptDue.Store(false)
	var cut uint64
	if db.wal != nil {
		if err := db.wal.Sync(); err != nil && db.wal.Poisoned() == nil {
			return err
		}
		// A poisoned log does not abort the checkpoint: the WAL swap at
		// the end rebuilds the log on a fresh handle, which is exactly
		// the repair path.  cut stays at the last trustworthy fsync, so
		// every record in doubt survives into (and is fsynced with) the
		// successor file.
		//
		// Records at or below cut are covered by the page flush below;
		// records appended after it (concurrent writers) survive the
		// truncation as the new log's tail.
		cut = db.wal.SyncedLSN()
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if db.dir != "" {
		gen := db.catalogGen + 1
		info := CheckpointInfo{Dir: db.dir, CatalogGen: gen, LSN: cut, FS: db.fs}
		for _, hook := range db.preCkpt {
			if err := hook(info); err != nil {
				return err
			}
		}
		if err := db.saveCatalogLocked(gen); err != nil {
			return err
		}
		db.catalogGen = gen
	}
	if db.wal != nil {
		return db.wal.checkpointTo(cut)
	}
	return nil
}

// NoteRebuilt tells the store that derived state a checkpoint hook
// persists was rebuilt at open rather than loaded, so the next checkpoint
// writes it again even when nothing was logged since.
func (db *DB) NoteRebuilt() { db.ckptDue.Store(true) }

// upToDate reports whether a directory store's files hold all it has:
// no record logged past the last checkpoint's cut, where the log's base
// stands, nothing due from the open (a torn log among it) or a rebuild,
// and a store that is not degraded — by a failed checkpoint, or by a
// failed fsync, which poisons the log.  Caller holds db.mu.
func (db *DB) upToDate() bool {
	return db.wal != nil && !db.ckptDue.Load() && !db.health.degraded.Load() &&
		db.wal.NextLSN() == db.wal.BaseLSN()
}

// Close checkpoints and releases all resources.  A store opened only to
// be read closes without writing: its checkpoint has nothing to write.
func (db *DB) Close() error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil {
			return err
		}
	}
	return db.disk.Close()
}

// CloseDiscard releases file handles without checkpointing or flushing —
// the "process died" close.  Tests use it to materialise a crash;
// read-only opens (benchmark reopen loops) use it to avoid paying a
// checkpoint for a store they never mutated.  Anything not already
// durable is lost, exactly as in a crash.
func (db *DB) CloseDiscard() error {
	if db.wal != nil {
		db.wal.closeFile()
	}
	return db.disk.Close()
}

// Table is a heap of rows plus secondary indexes.  Reads take a shared
// lock; mutations take an exclusive lock (table-level locking, which is
// what the paper's insert-heavy document workload needs — documents are
// written once and queried many times).
type Table struct {
	db   *DB
	name string

	// mu is the table-level lock.  netmarkvet:lockorder 20
	mu     sync.RWMutex
	schema Schema
	// heap's pages, row count and free-space map ride in the catalog;
	// dropping them from either side silently degrades reopen to a full
	// scan.  netmarkvet:snap
	heap *HeapFile
	// indexes is mutated by CreateIndex while queries resolve index
	// names.  Guarded by mu.
	indexes map[string]*Index
	// syms is the table's symbol table: nil until the table trains it,
	// then set once, under mu, and never changed.  Schema reads it.
	syms atomic.Pointer[SymbolTable]
	// untrained counts, while syms is nil, the bytes of STRING values the
	// table holds as far as its inserts tell: sampleBytes at open, until
	// CommitPoint reads the heap's (see train), and every insert's since.
	untrained atomic.Int64
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// writable rejects mutations while the store is degraded (nil db — a
// bare table in tests — never degrades).
func (t *Table) writable() error {
	if t.db == nil {
		return nil
	}
	return t.db.Writable()
}

// Schema returns the table schema, with the table's symbol table once it
// has one.  The table's rows are encoded and decoded with the schema as
// it is then: a record coded with the symbol table is only ever written
// after the table has it.  A reader must take the schema after it has
// the record in view, under the table's lock.
func (t *Table) Schema() Schema { return t.schema.WithSymbols(t.syms.Load()) }

// noteStrings counts what a run of stored rows spent on strings: raw,
// their STRING values' bytes, toward training, and both those and
// stored, the bytes their payloads took (see EncodeOffsets), in the
// store's stats.  Caller holds t.mu.
func (t *Table) noteStrings(raw, stored int) {
	if raw == 0 || t.db == nil {
		return
	}
	if t.syms.Load() == nil && t.untrained.Add(int64(raw)) >= sampleBytes {
		t.db.trainDue.Store(true)
	}
	t.db.stringsRaw.Add(uint64(raw))
	t.db.stringsStored.Add(uint64(stored))
}

// train builds the table's symbol table once its strings have passed
// sampleBytes.  The sample is the first sampleBytes of STRING values in
// the heap, in physical order, which is RowID order: the same rows give
// the same table, so a restart that lost the walSymbols record builds
// the same one again.  CommitPoint runs it, on the writer's path, never
// the goroutine that waits for the fsync: which rows are coded depends
// on where the writer stood when the table trained, so a heap is the
// same whenever the fsync lands.
//
// The table is published, then logged, both under the table's write
// lock.  Every record is logged under that lock too, so none coded with
// the table is logged before it; and a checkpoint whose cut covers the
// walSymbols record saves a catalog that holds the table.
func (t *Table) train() error {
	if t.syms.Load() != nil || t.untrained.Load() < sampleBytes {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.syms.Load() != nil {
		return nil
	}
	sample, n, err := t.sampleLocked()
	if err != nil {
		return fmt.Errorf("ordbms: sample %s for its symbol table: %w", t.name, err)
	}
	if t.untrained.Store(int64(n)); n < sampleBytes {
		return nil // not there yet: reopened early, or deletes took it back
	}
	st := trainSymbols(sample)
	t.syms.Store(st)
	if t.db.wal != nil {
		t.db.wal.LogSymbols(t.name, st)
	}
	return nil
}

// sampleLocked returns the table's first sampleBytes of STRING values,
// in physical order — the last one cut short where the sample ends —
// or all there are, and their total length.  Caller holds t.mu.
func (t *Table) sampleLocked() (sample []string, n int, err error) {
	if !slices.ContainsFunc(t.schema.Columns, func(c Column) bool { return c.Type == TypeString }) {
		return nil, 0, nil
	}
	sch := t.Schema()
	var derr error
	err = t.heap.Scan(func(rid RowID, rec []byte) bool {
		row, e := DecodeRow(sch, rid, rec)
		if e != nil {
			derr = e
			return false
		}
		for _, v := range row {
			if v.Type == TypeString && v.Str != "" && n < sampleBytes {
				s := v.Str[:min(len(v.Str), sampleBytes-n)]
				sample = append(sample, s)
				n += len(s)
			}
		}
		return n < sampleBytes
	})
	if derr != nil {
		return nil, 0, derr
	}
	return sample, n, err
}

// Rows returns the live row count.
func (t *Table) Rows() int64 { return t.heap.Rows() }

// Insert validates and stores a row, returning its physical RowID.
//
// netmarkvet:mutates
func (t *Table) Insert(row Row) (RowID, error) {
	if err := t.schema.Validate(row); err != nil {
		return ZeroRowID, err
	}
	if err := t.writable(); err != nil {
		return ZeroRowID, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, raw, stored := t.Schema().EncodeOffsets(nil, nil, row, ZeroRowID, 0)
	rid, err := t.heap.Insert(rec)
	if err != nil {
		return ZeroRowID, err
	}
	for _, ix := range t.indexes {
		ix.insert(row, rid)
	}
	t.noteStrings(raw, stored)
	return rid, nil
}

// InsertRun stores a run of records in one pass and returns their
// physical RowIDs, in order.  Each of recs must be a row the caller has
// checked with Schema.Validate, encoded by EncodeOffsets with a Schema
// this table returned before the call (any ROWID column near or far),
// except in the bytes link patches; raw and stored sum what
// EncodeOffsets returned for recs, and raw decides when the table trains
// its symbol table, so it must count every string of the run.  The
// caller encodes off the table's write lock (the batch-ingest pipeline
// does it in its parse workers), and link, called once every RowID of
// the run is placed and before any row is written, may overwrite ROWID
// columns in recs with those RowIDs — so rows that reference each other
// physically are written and logged once, with their final bytes.  A
// near link is only right if its target landed near the record (see
// Near); link may re-encode such a record with the column far, and a
// record that grows is placed again (see HeapFile.InsertRun).
// link runs under the table lock: it must not block or call back into
// the table.  A table with secondary indexes decodes each record, with
// its final bytes, to index it; a table without any decodes nothing.
// The run is all or nothing: an error means no row was written, logged
// or indexed.
//
// netmarkvet:mutates
func (t *Table) InsertRun(recs [][]byte, raw, stored int, link func(rids []RowID)) ([]RowID, error) {
	if err := t.writable(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rids, err := t.heap.InsertRun(recs, link)
	if err != nil {
		return nil, err
	}
	if len(t.indexes) > 0 {
		sch := t.Schema()
		row := make(Row, len(sch.Columns))
		for i, rec := range recs {
			// A record EncodeOffsets wrote always decodes, and this one
			// is already written: failing here is a broken caller.
			if err := DecodeRowInto(sch, rids[i], rec, row); err != nil {
				panic(fmt.Sprintf("ordbms: run record %d written to %s does not decode: %v", i, t.name, err))
			}
			for _, ix := range t.indexes {
				ix.insert(row, rids[i])
			}
		}
	}
	t.noteStrings(raw, stored)
	return rids, nil
}

// Fetch returns the row at rid.  The row is decoded directly from the
// latched page — no intermediate record copy — because Decode copies
// every payload anyway.
func (t *Table) Fetch(rid RowID) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var row Row
	sch := t.Schema()
	err := t.heap.View(rid, func(rec []byte) error {
		var derr error
		row, derr = DecodeRow(sch, rid, rec)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// FetchView invokes fn with the raw record bytes at rid under the table's
// shared lock and the page read latch.  It is the cheapest read path:
// callers with a fixed schema decode straight into stack storage with
// DecodeRowInto, paying zero per-fetch heap allocations inside the
// engine.  fn must not retain rec, block, or call back into the table.
func (t *Table) FetchView(rid RowID, fn func(rec []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.View(rid, fn)
}

// ViewPage reads page no under one shared table lock and one page read
// latch: fn gets the table's schema, the page's slot count, dead slots
// included, and live, which calls yield for every live record in slot
// order (Page.LiveRecords) and reports a corrupt directory.  fn must not
// retain rec, block, or call back into the table.
func (t *Table) ViewPage(no uint32, fn func(sch Schema, slots int, live func(yield func(slot int, rec []byte) bool) error) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.ViewPage(no, func(p *Page) error {
		if p.freeLower() > PageSize {
			return fmt.Errorf("%w: %d slots", errCorruptPage, p.numSlots())
		}
		return fn(t.Schema(), p.NumSlots(), p.LiveRecords)
	})
}

// Delete removes the row at rid and its index entries: a run of one.
//
// netmarkvet:mutates
func (t *Table) Delete(rid RowID) error { return t.DeleteRun([]RowID{rid}) }

// DeleteRun removes the rows at rids, in the order given, and their index
// entries, in one table-lock hold and one log record; see
// HeapFile.DeleteRun for what a failure partway leaves.  ErrRecordDeleted
// means every row was gone already.
//
// netmarkvet:mutates
func (t *Table) DeleteRun(rids []RowID) error {
	if err := t.writable(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The old rows are read only to unhook their index entries.
	var rows []Row
	if len(t.indexes) > 0 {
		sch := t.Schema()
		rows = make([]Row, len(rids))
		for i, rid := range rids {
			rec, err := t.heap.Fetch(rid)
			if err == ErrRecordDeleted {
				continue
			}
			if err != nil {
				return err
			}
			if rows[i], err = DecodeRow(sch, rid, rec); err != nil {
				return err
			}
		}
	}
	if err := t.heap.DeleteRun(rids); err != nil {
		return err
	}
	for i, row := range rows {
		if row == nil {
			continue // gone already
		}
		for _, ix := range t.indexes {
			ix.remove(row, rids[i])
		}
	}
	return nil
}

// Scan iterates all rows in physical order.
func (t *Table) Scan(fn func(rid RowID, row Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var derr error
	sch := t.Schema()
	err := t.heap.Scan(func(rid RowID, rec []byte) bool {
		row, e := DecodeRow(sch, rid, rec)
		if e != nil {
			derr = e
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// CreateIndex builds a secondary index on the named column.
func (t *Table) CreateIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.buildIndexLocked(column); err != nil {
		return err
	}
	if t.db != nil && t.db.wal != nil {
		t.db.wal.LogCreateIndex(t.name, column)
	}
	return nil
}

// buildIndexLocked creates and populates an index.  Caller holds t.mu.
func (t *Table) buildIndexLocked(column string) error {
	if _, dup := t.indexes[column]; dup {
		return fmt.Errorf("ordbms: index on %s.%s already exists", t.name, column)
	}
	ci := t.schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("ordbms: no column %q in table %s", column, t.name)
	}
	ix := newIndex(column, ci)
	var derr error
	sch := t.Schema()
	err := t.heap.Scan(func(rid RowID, rec []byte) bool {
		row, e := DecodeRow(sch, rid, rec)
		if e != nil {
			derr = e
			return false
		}
		ix.insert(row, rid)
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	t.indexes[column] = ix
	return nil
}

// Index returns the index on column, or nil.
func (t *Table) Index(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[column]
}

// Lookup uses the index on column for an equality probe, fetching rows.
func (t *Table) Lookup(column string, v Value) ([]RowID, error) {
	ix := t.Index(column)
	if ix == nil {
		return nil, fmt.Errorf("ordbms: no index on %s.%s", t.name, column)
	}
	return ix.Lookup(v), nil
}
