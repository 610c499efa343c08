package ordbms

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"netmark/internal/vfs"
)

// faultDisk wraps a DiskManager and fails operations on command.
type faultDisk struct {
	mu         sync.Mutex
	inner      DiskManager
	failReads  bool
	failWrites bool
	writesLeft int // fail writes after this many succeed (-1 = off)
}

var errInjected = errors.New("injected I/O failure")

func newFaultDisk() *faultDisk {
	return &faultDisk{inner: NewMemDisk(), writesLeft: -1}
}

func (d *faultDisk) AllocatePage() (uint32, error) { return d.inner.AllocatePage() }

func (d *faultDisk) ReadPage(no uint32, buf []byte) error {
	d.mu.Lock()
	fail := d.failReads
	d.mu.Unlock()
	if fail {
		return errInjected
	}
	return d.inner.ReadPage(no, buf)
}

func (d *faultDisk) WritePage(no uint32, buf []byte) error {
	d.mu.Lock()
	if d.failWrites {
		d.mu.Unlock()
		return errInjected
	}
	if d.writesLeft == 0 {
		d.mu.Unlock()
		return errInjected
	}
	if d.writesLeft > 0 {
		d.writesLeft--
	}
	d.mu.Unlock()
	return d.inner.WritePage(no, buf)
}

func (d *faultDisk) NumPages() uint32 { return d.inner.NumPages() }
func (d *faultDisk) Sync() error      { return d.inner.Sync() }
func (d *faultDisk) Close() error     { return d.inner.Close() }

func TestReadFailureSurfacesCleanly(t *testing.T) {
	disk := newFaultDisk()
	pool := NewBufferPool(disk, 4) // tiny pool forces re-reads
	h := NewHeapFile(pool, nil)
	var rids []RowID
	for i := 0; i < 20; i++ {
		rid, err := h.Insert(make([]byte, 3000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Touch pages so the first ones are evicted, then poison reads.
	disk.mu.Lock()
	disk.failReads = true
	disk.mu.Unlock()
	_, err := h.Fetch(rids[0])
	if !errors.Is(err, errInjected) {
		t.Fatalf("expected injected error, got %v", err)
	}
	// Recovery of the fault restores service.
	disk.mu.Lock()
	disk.failReads = false
	disk.mu.Unlock()
	if _, err := h.Fetch(rids[0]); err != nil {
		t.Fatalf("after fault cleared: %v", err)
	}
}

func TestEvictionWriteFailureDoesNotLoseData(t *testing.T) {
	disk := newFaultDisk()
	pool := NewBufferPool(disk, 4)
	h := NewHeapFile(pool, nil)
	// Fill beyond the pool so evictions happen; then make writes fail and
	// confirm the insert that needed an eviction reports the error
	// rather than silently dropping a dirty page.
	for i := 0; i < 8; i++ {
		if _, err := h.Insert(make([]byte, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	disk.mu.Lock()
	disk.failWrites = true
	disk.mu.Unlock()
	_, err := h.Insert(make([]byte, 5000))
	if !errors.Is(err, errInjected) {
		t.Fatalf("eviction write failure swallowed: %v", err)
	}
	disk.mu.Lock()
	disk.failWrites = false
	disk.mu.Unlock()
	if _, err := h.Insert(make([]byte, 5000)); err != nil {
		t.Fatalf("after fault cleared: %v", err)
	}
}

// TestWALTornTailIgnored appends garbage to the log and verifies
// recovery stops at the corruption instead of failing or applying junk.
func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.saveCatalogLocked(db.catalogGen + 1)
	db.mu.Unlock()
	// Crash, then corrupt the WAL tail.
	walPath := filepath.Join(dir, "wal.nmlog")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery choked on torn tail: %v", err)
	}
	defer db2.Close()
	if db2.Table("t").Rows() != 50 {
		t.Fatalf("rows = %d", db2.Table("t").Rows())
	}
}

// TestWALMidRecordCorruption flips a byte inside a committed record; the
// CRC must reject it and recovery must keep the prefix.
func TestWALMidRecordCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	for i := 0; i < 50; i++ {
		tbl.Insert(Row{I(int64(i))})
	}
	db.Commit()
	db.mu.Lock()
	db.saveCatalogLocked(db.catalogGen + 1)
	db.mu.Unlock()

	walPath := filepath.Join(dir, "wal.nmlog")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte ~80% in: the first 80% of records stay valid.
	pos := walHeaderSize + (len(data)-walHeaderSize)*8/10
	data[pos] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed on mid-record corruption: %v", err)
	}
	defer db2.Close()
	rows := db2.Table("t").Rows()
	if rows == 0 || rows > 50 {
		t.Fatalf("rows after partial recovery = %d", rows)
	}
	// Rows that survived must read back intact and in prefix order.
	seen := int64(0)
	db2.Table("t").Scan(func(_ RowID, row Row) bool {
		if row[0].Int != seen {
			t.Fatalf("row %d has value %d", seen, row[0].Int)
		}
		seen++
		return true
	})
}

func TestBufferPoolExhaustionError(t *testing.T) {
	disk := NewMemDisk()
	pool := NewBufferPool(disk, 8)
	// Pin more pages than capacity without unpinning.
	var frames []*Frame
	for i := 0; i < 8; i++ {
		f, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := pool.NewPage(); err == nil {
		t.Fatal("pool exhaustion not reported")
	}
	// Unpinning frees capacity again.
	pool.Unpin(frames[0])
	if _, err := pool.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestConcurrentTablesIndependent(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	const g = 6
	errc := make(chan error, g)
	for w := 0; w < g; w++ {
		go func(w int) {
			tbl, err := db.CreateTable(fmt.Sprintf("t%d", w), MustSchema(Column{"v", TypeInt}))
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < 100; i++ {
				if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
					errc <- err
					return
				}
			}
			if tbl.Rows() != 100 {
				errc <- fmt.Errorf("t%d rows = %d", w, tbl.Rows())
				return
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < g; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCrashMatrix simulates a crash at every step of the
// checkpoint sequence — catalog write, WAL truncation — and proves each aborted state recovers to the exact
// pre-crash contents, and that LSNs handed out after recovery never lag
// already-flushed page LSNs (the old truncate-before-header-rewrite bug:
// an empty log carrying the stale base made recovery skip the next
// session's records).  A FaultFS cuts each step: a "<x>-temp" crash fails
// the rename onto x's final name, leaving the fsynced temp beside the old
// x; a "<x>-rename" crash fails the store directory's fsync after the
// rename, the checkpoint's Nth, leaving the new x and no temp.
func TestCheckpointCrashMatrix(t *testing.T) {
	steps := []struct {
		name      string
		file, tmp string
		rule      vfs.Rule // an OpSync rule names the store directory
	}{
		{"catalog-temp", "catalog.json", "catalog.json.tmp", vfs.Rule{Op: vfs.OpRename, Path: "catalog.json"}},
		{"catalog-rename", "catalog.json", "catalog.json.tmp", vfs.Rule{Op: vfs.OpSync}},
		{"wal-temp", "wal.nmlog", "wal.nmlog.ckpt", vfs.Rule{Op: vfs.OpRename, Path: "wal.nmlog"}},
		{"wal-rename", "wal.nmlog", "wal.nmlog.ckpt", vfs.Rule{Op: vfs.OpSync, After: 1}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			db, err := Open(Options{Dir: dir, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("v"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for i := 40; i < 80; i++ {
				if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(filepath.Join(dir, step.file))
			if err != nil {
				t.Fatal(err)
			}
			rule := step.rule
			rule.Times = 1
			if rule.Op == vfs.OpSync {
				rule.Path = filepath.Base(dir)
			}
			ffs.AddRule(rule)
			if err := db.Checkpoint(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("checkpoint survived the injected crash at %s: %v", step.name, err)
			}
			db.CloseDiscard() // the crash
			checkCrashFiles(t, dir, step.name, step.file, step.tmp, before)

			db2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", step.name, err)
			}
			tbl2 := db2.Table("t")
			if tbl2 == nil || tbl2.Rows() != 80 {
				t.Fatalf("after crash at %s: rows = %v", step.name, tbl2.Rows())
			}
			for i := 0; i < 80; i++ {
				rids, err := tbl2.Lookup("v", I(int64(i)))
				if err != nil || len(rids) != 1 {
					t.Fatalf("after crash at %s: lookup %d -> %v, %v", step.name, i, rids, err)
				}
			}
			// LSN-regression guard: a fresh record must be replayable.  If
			// recovery handed out LSNs lagging flushed page LSNs, this
			// insert's record would be skipped on the next replay.
			if _, err := tbl2.Insert(Row{I(80)}); err != nil {
				t.Fatal(err)
			}
			if err := db2.Commit(); err != nil {
				t.Fatal(err)
			}
			db2.CloseDiscard() // crash again, before any checkpoint

			db3, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer db3.Close()
			if got := db3.Table("t").Rows(); got != 81 {
				t.Fatalf("post-recovery insert lost: rows = %d, want 81 (LSN regression)", got)
			}
			if rids, err := db3.Table("t").Lookup("v", I(80)); err != nil || len(rids) != 1 {
				t.Fatalf("post-recovery insert unreadable: %v, %v", rids, err)
			}
		})
	}
}

// checkCrashFiles asserts the files a checkpoint crash at step left in
// dir: after a "-temp" crash the fsynced temp file beside file, which
// still holds before; after a "-rename" crash file replaced and no temp.
func checkCrashFiles(t *testing.T, dir, step, file, tmp string, before []byte) {
	t.Helper()
	now, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	_, err = os.Stat(filepath.Join(dir, tmp))
	tempLeft := err == nil
	if strings.HasSuffix(step, "-temp") != tempLeft || strings.HasSuffix(step, "-temp") != bytes.Equal(now, before) {
		t.Fatalf("crash at %s: temp %s left = %v, %s unchanged = %v", step, tmp, tempLeft, file, bytes.Equal(now, before))
	}
}

// TestCheckpointKeepsConcurrentTail proves records appended while a
// checkpoint is in flight survive its WAL truncation: the truncate drops
// only records covered by the page flush, so a crash right after the
// checkpoint cannot lose a write that raced it.
func TestCheckpointKeepsConcurrentTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{I(int64(i))})
	}
	db.Commit()
	// Sneak a write into the middle of the checkpoint (after the page
	// flush, before the WAL truncation) from a pre-checkpoint hook, then
	// let the checkpoint complete.
	raced := false
	db.RegisterPreCheckpointHook(func(CheckpointInfo) error {
		if !raced {
			raced = true
			if _, err := tbl.Insert(Row{I(999)}); err != nil {
				t.Errorf("racing insert: %v", err)
			}
			if err := db.Commit(); err != nil {
				t.Errorf("racing commit: %v", err)
			}
		}
		return nil
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !raced {
		t.Fatal("pre-checkpoint hook never ran")
	}
	db.CloseDiscard() // crash: the raced write's page never reached disk

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Replayed == 0 {
		t.Fatal("expected the raced record to survive truncation and replay")
	}
	if got := db2.Table("t").Rows(); got != 11 {
		t.Fatalf("raced write lost by checkpoint truncation: rows = %d, want 11", got)
	}
	if rids, err := db2.Table("t").Lookup("v", I(999)); err != nil || len(rids) != 1 {
		t.Fatalf("raced row unreadable: %v, %v", rids, err)
	}
}

// TestDerivedSnapshotReopen proves a clean close/reopen takes each
// heap's row count and free-space map from the catalog, reading no page
// of a table without indexes, rebuilds the secondary indexes by scan,
// and behaves exactly as a scan rebuild does; and that a write after the
// checkpoint sends the next open back to the scan, with the right counts.
func TestDerivedSnapshotReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", MustSchema(Column{"v", TypeInt}, Column{"s", TypeString}))
	tbl.CreateIndex("v")
	tbl.CreateIndex("s")
	plain, _ := db.CreateTable("u", MustSchema(Column{"x", TypeString}))
	var deleted RowID
	for i := 0; i < 200; i++ {
		rid, err := tbl.Insert(Row{I(int64(i)), S(fmt.Sprintf("row-%03d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if i == 77 {
			deleted = rid
		}
		if _, err := plain.Insert(Row{S(fmt.Sprintf("plain %d %s", i, strings.Repeat("x", i%90)))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB, rows int64) {
		t.Helper()
		tbl := db.Table("t")
		if tbl.Rows() != rows || db.Table("u").Rows() != 200 {
			t.Fatalf("rows = %d and %d, want %d and 200", tbl.Rows(), db.Table("u").Rows(), rows)
		}
		// The heap as opened agrees with a scan of its pages.
		for _, name := range []string{"t", "u"} {
			pages, rows, free := db.Table(name).heap.meta()
			srows, sfree, err := ScanMeta(db.pool, pages)
			if err != nil {
				t.Fatal(err)
			}
			if srows != rows || !reflect.DeepEqual(sfree, free) {
				t.Fatalf("%s opened with %d rows, free %v; a scan finds %d, %v", name, rows, free, srows, sfree)
			}
		}
		if rids, _ := tbl.Lookup("v", I(77)); len(rids) != 0 {
			t.Fatal("deleted row resurfaced in index")
		}
		if rids, _ := tbl.Lookup("s", S("row-123")); len(rids) != 1 {
			t.Fatal("string index lookup failed")
		}
		if rids := tbl.Index("s").Prefix("row-12"); len(rids) != 10 {
			t.Fatalf("prefix scan = %d rids, want 10", len(rids))
		}
		// The free-space map must still be usable: inserting lands rows
		// without corrupting pages.
		if _, err := tbl.Insert(Row{I(1000 + rows), S("post-reopen")}); err != nil {
			t.Fatal(err)
		}
		if rids, _ := tbl.Lookup("v", I(1000+rows)); len(rids) != 1 {
			t.Fatal("post-reopen insert not indexed")
		}
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Only the indexed table's pages were read, to build its indexes.
	if _, misses, _ := db2.Pool().Stats(); misses != uint64(len(db2.Table("t").heap.Pages())) {
		t.Fatalf("a clean reopen missed %d pages, want the %d of the indexed table", misses, len(db2.Table("t").heap.Pages()))
	}
	check(db2, 199)
	if err := db2.Commit(); err != nil {
		t.Fatal(err)
	}
	db2.CloseDiscard() // a crash with the insert in the log

	db3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := db3.Pool().Stats(); misses < uint64(len(db3.Table("t").heap.Pages())+len(db3.Table("u").heap.Pages())) {
		t.Fatalf("a reopen with a logged insert missed only %d pages: it did not scan", misses)
	}
	check(db3, 200)
	db3.CloseDiscard()
}

// TestFreshStoreCrashBeforeFirstCheckpoint commits rows into tables that
// have never been checkpointed (no catalog entry exists at all), then
// crashes: the logged DDL (creates, index creates) plus page adoptions
// must rebuild the tables with every committed row.  Before DDL logging,
// recovery replayed the pages but no table claimed them, and the
// post-recovery checkpoint then truncated the log — permanent loss of
// durably committed data.
func TestFreshStoreCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}, Column{"s", TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	// A second table that is created and dropped must not resurrect.
	if _, err := db.CreateTable("gone", MustSchema(Column{"x", TypeInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ { // enough rows to span several pages
		if _, err := tbl.Insert(Row{I(int64(i)), S(fmt.Sprintf("value-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard() // crash: no checkpoint ever ran, catalog.json absent

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Table("gone") != nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	tbl2 := db2.Table("t")
	if tbl2 == nil {
		t.Fatal("table created before first checkpoint lost on crash")
	}
	if got := tbl2.Rows(); got != 300 {
		t.Fatalf("rows = %d, want 300 (committed rows lost)", got)
	}
	for _, i := range []int64{0, 150, 299} {
		rids, err := tbl2.Lookup("v", I(i))
		if err != nil || len(rids) != 1 {
			t.Fatalf("index lookup %d after recovery: %v, %v", i, rids, err)
		}
	}
	// The post-recovery checkpoint persisted the merged catalog: a second
	// crash (WAL now truncated) must still reopen to the same state.
	db2.CloseDiscard()
	db3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Replayed != 0 {
		t.Fatalf("second reopen replayed %d records (post-recovery checkpoint missing)", db3.Replayed)
	}
	if got := db3.Table("t").Rows(); got != 300 {
		t.Fatalf("second reopen rows = %d, want 300", got)
	}
}

// TestTornTailThenNewCommitsSurvive covers the replayed==0 torn-tail
// window: garbage after the last intact record (a crash mid-flush whose
// records were all already reflected in flushed pages) must be truncated
// at open, or records committed by the next session would sit behind the
// garbage where replay can never reach them.
func TestTornTailThenNewCommitsSurvive(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	for i := 0; i < 20; i++ {
		tbl.Insert(Row{I(int64(i))})
	}
	if err := db.Close(); err != nil { // clean checkpoint: WAL empty
		t.Fatal(err)
	}
	// Simulate a crash mid-flush that wrote only garbage (no intact
	// record): replay will apply nothing (replayed == 0) yet the tail
	// must still be cleaned up.
	f, err := os.OpenFile(filepath.Join(dir, "wal.nmlog"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xba, 0xad, 0xf0, 0x0d, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Replayed != 0 {
		t.Fatalf("setup: expected replayed == 0, got %d", db2.Replayed)
	}
	// Commit a new row, crash, and reopen: the row must be recovered.
	if _, err := db2.Table("t").Insert(Row{I(777)}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Commit(); err != nil {
		t.Fatal(err)
	}
	db2.CloseDiscard()

	db3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.Table("t").Rows(); got != 21 {
		t.Fatalf("rows = %d, want 21 (commit after torn tail lost)", got)
	}
}

// TestDropRecreateCrashDoesNotResurrectRows drops a table and recreates
// the name with a different schema, all since the last checkpoint, then
// crashes: the new incarnation must adopt only its own pages, never the
// dropped predecessor's rows.
func TestDropRecreateCrashDoesNotResurrectRows(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	old, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		old.Insert(Row{I(int64(i))})
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.CreateTable("t", MustSchema(Column{"s", TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Insert(Row{S("only-me")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard() // crash before any checkpoint

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl := db2.Table("t")
	if tbl == nil {
		t.Fatal("recreated table lost")
	}
	if got := tbl.Rows(); got != 1 {
		t.Fatalf("rows = %d, want 1 (dropped incarnation's rows resurrected)", got)
	}
	tbl.Scan(func(_ RowID, row Row) bool {
		if row[0].Type != TypeString || row[0].Str != "only-me" {
			t.Fatalf("unexpected row %v", row)
		}
		return true
	})
}

// dirDigest hashes every file in dir so tests can assert a reopen
// changed nothing on disk.
func dirDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return m
}

// TestCheckpointENOSPCMatrix is TestCheckpointCrashMatrix's sibling for
// a disk that stays up but misbehaves: at each step of the checkpoint
// sequence the filesystem reports ENOSPC instead of the process dying.
// The checkpoint must fail cleanly, the store must degrade (writes
// refused, reads served), a checkpoint after space returns must restore
// write service, and reopening must reproduce the exact committed state
// — with a second reopen leaving every on-disk byte untouched.
func TestCheckpointENOSPCMatrix(t *testing.T) {
	steps := []struct {
		name string
		rule vfs.Rule
	}{
		{"catalog-temp", vfs.Rule{Op: vfs.OpWrite, Path: "catalog.json.tmp", Err: syscall.ENOSPC}},
		{"catalog-rename", vfs.Rule{Op: vfs.OpRename, Path: "catalog.json", Err: syscall.ENOSPC}},
		{"wal-temp", vfs.Rule{Op: vfs.OpWrite, Path: "wal.nmlog.ckpt", Err: syscall.ENOSPC}},
		{"wal-rename", vfs.Rule{Op: vfs.OpRename, Path: "wal.nmlog", Err: syscall.ENOSPC}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			db, err := Open(Options{Dir: dir, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("v"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for i := 40; i < 80; i++ {
				if _, err := tbl.Insert(Row{I(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}

			// The disk fills: the checkpoint fails cleanly and the store
			// flips to degraded read-only.
			ffs.AddRule(step.rule)
			if err := db.Checkpoint(); err == nil {
				t.Fatalf("checkpoint survived ENOSPC at %s", step.name)
			}
			h := db.Health()
			if !h.Degraded || h.WriteErrors == 0 {
				t.Fatalf("store not degraded after failed checkpoint: %+v", h)
			}
			if _, err := tbl.Insert(Row{I(999)}); !errors.Is(err, ErrDegraded) {
				t.Fatalf("insert while degraded = %v, want ErrDegraded", err)
			}
			// Reads keep serving the committed state.
			if rids, err := tbl.Lookup("v", I(41)); err != nil || len(rids) != 1 {
				t.Fatalf("degraded read: %v, %v", rids, err)
			}

			// Space returns: a clean checkpoint restores write service.
			ffs.ClearFaults()
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("healing checkpoint: %v", err)
			}
			if db.Health().Degraded {
				t.Fatal("degraded flag survived a successful checkpoint")
			}
			if _, err := tbl.Insert(Row{I(80)}); err != nil {
				t.Fatalf("insert after healing: %v", err)
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			db.CloseDiscard() // crash

			// Reopen reproduces exactly the acked state.
			db2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after ENOSPC at %s: %v", step.name, err)
			}
			if got := db2.Table("t").Rows(); got != 81 {
				t.Fatalf("rows = %d, want 81", got)
			}
			for i := 0; i <= 80; i++ {
				rids, err := db2.Table("t").Lookup("v", I(int64(i)))
				if err != nil || len(rids) != 1 {
					t.Fatalf("lookup %d -> %v, %v", i, rids, err)
				}
			}
			db2.CloseDiscard()

			// A reopen with no writes must not disturb a single byte.
			before := dirDigest(t, dir)
			db3, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := db3.Table("t").Rows(); got != 81 {
				t.Fatalf("second reopen rows = %d", got)
			}
			db3.CloseDiscard()
			after := dirDigest(t, dir)
			if len(before) != len(after) {
				t.Fatalf("file set changed across reopen: %v vs %v", before, after)
			}
			for name, sum := range before {
				if after[name] != sum {
					t.Fatalf("reopen mutated %s", name)
				}
			}
		})
	}
}
