package ordbms

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netmark/internal/vfs"
)

// TestWALGroupCommitConcurrent hammers the group-commit path: many
// goroutines append records and demand durability; afterwards every
// record must be synced and replayable, with (usually far) fewer fsyncs
// than commit calls.
func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(vfs.OS, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn := w.LogDeleteRun([]RowID{{Page: uint32(g), Slot: uint16(i)}})
				if err := w.SyncTo(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := w.Appends(); got != goroutines*perG {
		t.Fatalf("appends = %d, want %d", got, goroutines*perG)
	}
	if syncs := w.Syncs(); syncs == 0 || syncs > goroutines*perG {
		t.Fatalf("syncs = %d, want in (0, %d]", syncs, goroutines*perG)
	}
	count := 0
	torn, err := w.Replay(func(r WALRecord) error {
		if r.Type == walDeleteRun {
			count++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("fully synced log reported a torn tail")
	}
	if count != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", count, goroutines*perG)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALSyncToAlreadyCovered verifies followers whose LSN an earlier
// group covered return without an extra fsync.
func TestWALSyncToAlreadyCovered(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(vfs.OS, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn1 := w.LogDeleteRun([]RowID{{Page: 1, Slot: 0}})
	lsn2 := w.LogDeleteRun([]RowID{{Page: 1, Slot: 1}})
	if err := w.SyncTo(lsn2); err != nil {
		t.Fatal(err)
	}
	syncs := w.Syncs()
	if err := w.SyncTo(lsn1); err != nil {
		t.Fatal(err)
	}
	if w.Syncs() != syncs {
		t.Fatal("covered SyncTo issued a redundant fsync")
	}
}

// TestCommitCoalescesAcrossGoroutines exercises DB.Commit's group commit
// end to end: concurrent insert+commit loops on a durable store, then a
// clean reopen with every row present.
func TestCommitCoalescesAcrossGoroutines(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", MustSchema(
		Column{Name: "g", Type: TypeInt},
		Column{Name: "i", Type: TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 6, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := tbl.Insert(Row{I(int64(g)), I(int64(i))}); err != nil {
					t.Error(err)
					return
				}
				if err := db.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("T").Rows(); got != goroutines*perG {
		t.Fatalf("rows after reopen = %d, want %d", got, goroutines*perG)
	}
}

func TestEncodeOffsetsPatchable(t *testing.T) {
	row := Row{
		I(42),
		S("variable-width prefix"),
		Null(),
		R(ZeroRowID),
		S("suffix"),
	}
	schema := MustSchema(
		Column{"id", TypeInt}, Column{"pre", TypeString},
		Column{"absent", TypeRowID}, Column{"link", TypeRowID}, Column{"post", TypeString},
	)
	// Appended behind another record, the offsets are still the record's
	// own.
	offs := make([]int, len(row))
	buf, raw, stored := schema.EncodeOffsets([]byte("prior record"), offs, row, ZeroRowID, 0)
	rec := buf[len("prior record"):]
	if want := schema.Encode(row); string(rec) != string(want) || string(buf[:len("prior record")]) != "prior record" {
		t.Fatal("EncodeOffsets encoding diverges from Encode")
	}
	if n := len("variable-width prefix") + len("suffix"); raw != n || stored != n {
		t.Fatalf("strings %d B raw, %d B stored, want %d each", raw, stored, n)
	}
	if offs[2] != -1 {
		t.Fatalf("NULL column has payload offset %d, want -1", offs[2])
	}
	// Patch the present link's payload in place and decode.
	want := RowID{Page: 0xA1B2C3D4, Slot: 0x65F6}
	PutRowID(rec[offs[3]:], want)
	got, err := DecodeRow(schema, RowID{Page: 1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got[3].RowID() != want || !got[2].IsNull() {
		t.Fatalf("links after patch = %v, %v", got[2], got[3])
	}
	if got[0].Int != 42 || got[1].Str != "variable-width prefix" || got[4].Str != "suffix" {
		t.Fatal("patch corrupted neighboring columns")
	}
	// A slot with the top bit set is a far payload's marker, not a slot.
	row[3] = R(RowID{Page: 0xA1B2C3D4, Slot: 0xE5F6})
	if err := schema.Validate(row); err == nil {
		t.Fatal("slot 0xE5F6 validated")
	}
}

// TestWALSyncDuringCheckpoint races group commits against log
// truncation.  checkpointTo swaps w.f for the truncated successor and
// closes the old handle; a group-commit leader fsyncs its captured
// handle outside the lock.  Before checkpointTo learned to wait out an
// in-flight group, this closed the file under the leader's feet and
// commits failed with "file already closed" (and the race detector
// flagged the unsynchronized w.f access).
func TestWALSyncDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(vfs.OS, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn := w.LogDeleteRun([]RowID{{Page: uint32(g + 1), Slot: uint16(i)}})
				if err := w.SyncTo(lsn); err != nil {
					t.Errorf("SyncTo: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		if err := w.checkpointTo(w.SyncedLSN()); err != nil {
			t.Errorf("checkpointTo: %v", err)
			break
		}
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCheckpointWaitsForInflightSync pins the invariant directly:
// while a group-commit leader is fsyncing (syncing set, lock released),
// checkpointTo must not swap and close the log file.  Before the fix it
// returned immediately, closing the handle the leader was about to
// fsync.
func TestWALCheckpointWaitsForInflightSync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(vfs.OS, filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.LogDeleteRun([]RowID{{Page: 1, Slot: 0}})
	if err := w.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}

	// Pose as a group-commit leader mid-fsync.
	w.mu.Lock()
	w.syncing = true
	w.syncDone = make(chan struct{})
	w.mu.Unlock()

	ckptDone := make(chan error, 1)
	go func() { ckptDone <- w.checkpointTo(w.SyncedLSN()) }()
	select {
	case <-ckptDone:
		t.Fatal("checkpointTo completed while a group commit was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// Leader finishes; the checkpoint may now proceed.
	w.mu.Lock()
	w.syncing = false
	close(w.syncDone)
	w.mu.Unlock()
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
