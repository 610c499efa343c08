package daemon

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netmark/internal/ordbms"
	"netmark/internal/vfs"
	"netmark/internal/xmlstore"
)

func newStore(t testing.TB) *xmlstore.Store {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scanUntilStable runs the two scans the stability gate requires: the
// first observes the files, the second ingests the ones left unchanged.
func scanUntilStable(t *testing.T, d *Daemon) int {
	t.Helper()
	if n, err := d.ScanOnce(); err != nil || n != 0 {
		t.Fatalf("observation scan = %d %v, want 0 nil", n, err)
	}
	n, err := d.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestScanOnceIngestsAndMoves(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.html"),
		[]byte(`<html><body><h1>T</h1><p>x</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.txt"),
		[]byte("HEADING\n\nplain body\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := scanUntilStable(t, d); n != 2 {
		t.Fatalf("ingested = %d", n)
	}
	if store.NumDocuments() != 2 {
		t.Fatalf("store docs = %d", store.NumDocuments())
	}
	// Files moved out of the drop folder.
	if _, err := os.Stat(filepath.Join(dir, "a.html")); !os.IsNotExist(err) {
		t.Fatal("a.html still in drop folder")
	}
	if _, err := os.Stat(filepath.Join(dir, processedDir, "a.html")); err != nil {
		t.Fatal("a.html not archived")
	}
	// Later scans find nothing.
	n, err := d.ScanOnce()
	if err != nil || n != 0 {
		t.Fatalf("rescan = %d %v", n, err)
	}
}

func TestScanOnceRecordsFailures(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Binary garbage has no converter.
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"),
		[]byte{0, 1, 2, 0xFF, 0, 0, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := scanUntilStable(t, d); n != 0 {
		t.Fatalf("ingested = %d", n)
	}
	ing, failed := d.Stats()
	if ing != 0 || failed != 1 {
		t.Fatalf("stats = %d %d", ing, failed)
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "blob.bin")); err != nil {
		t.Fatal("failed file not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "blob.bin.err")); err != nil {
		t.Fatal("error note missing")
	}
}

func TestOnIngestCallback(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, time.Second)
	var calls []string
	d.OnIngest = func(name string, docID uint64, err error) {
		calls = append(calls, name)
		if err == nil && docID == 0 {
			t.Error("success without docID")
		}
	}
	os.WriteFile(filepath.Join(dir, "x.html"), []byte(`<html><body><h1>A</h1><p>b</p></body></html>`), 0o644)
	scanUntilStable(t, d)
	if len(calls) != 1 || calls[0] != "x.html" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestRunLoopIngests(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	os.WriteFile(filepath.Join(dir, "live.html"),
		[]byte(`<html><body><h1>Live</h1><p>dropped while running</p></body></html>`), 0o644)

	deadline := time.After(3 * time.Second)
	for store.NumDocuments() == 0 {
		select {
		case <-deadline:
			t.Fatal("daemon never picked up the file")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	secs, err := store.ContextSearchN("Live", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("search after daemon ingest: %v %v", secs, err)
	}
}

func TestHiddenAndDirEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, time.Second)
	os.WriteFile(filepath.Join(dir, ".hidden.html"), []byte(`<html><body><h1>H</h1></body></html>`), 0o644)
	os.MkdirAll(filepath.Join(dir, "subdir"), 0o755)
	for i := 0; i < 2; i++ {
		n, err := d.ScanOnce()
		if err != nil || n != 0 {
			t.Fatalf("scan = %d %v", n, err)
		}
	}
}

// TestPartialWriteNotIngested is the mid-copy scenario: a file still
// growing between scans must not be stored truncated.  Only once its
// size/mtime hold still across two scans is it ingested — complete.
func TestPartialWriteNotIngested(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, time.Second)
	path := filepath.Join(dir, "slow.html")

	// First half lands; scan observes it.
	if err := os.WriteFile(path, []byte(`<html><body><h1>Slow Copy</h1><p>first half`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := d.ScanOnce(); err != nil || n != 0 {
		t.Fatalf("scan during copy ingested %d (%v)", n, err)
	}
	// The copy continues: size changes, so the next scan must hold off.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(` second half</p></body></html>`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, err := d.ScanOnce(); err != nil || n != 0 {
		t.Fatalf("scan after growth ingested %d (%v)", n, err)
	}
	// Now the file is stable: the next scan ingests the complete bytes.
	n, err := d.ScanOnce()
	if err != nil || n != 1 {
		t.Fatalf("stable scan = %d %v", n, err)
	}
	secs, err := store.ContentSearchN("second", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("full content not stored: %d sections, %v", len(secs), err)
	}
	if !strings.Contains(secs[0].Content, "second half") {
		t.Fatalf("stored content truncated: %q", secs[0].Content)
	}
}

// TestRenameFailureDoesNotReingest is the duplicate-ingestion scenario:
// when the move to .processed/ fails, the document must still be stored
// exactly once, the failure surfaced, and no later scan may store it
// again.
func TestRenameFailureDoesNotReingest(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, time.Second)
	var failures []error
	d.OnIngest = func(name string, docID uint64, err error) {
		if err != nil {
			failures = append(failures, err)
		}
	}
	// Sabotage the archive folder: replace it with a plain file so the
	// move to .processed/ fails and the document stays in the folder.
	p := filepath.Join(dir, processedDir)
	if err := os.RemoveAll(p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stuck.html"),
		[]byte(`<html><body><h1>Stuck</h1><p>once only</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := scanUntilStable(t, d); n != 1 {
		t.Fatalf("ingested = %d", n)
	}
	if store.NumDocuments() != 1 {
		t.Fatalf("docs = %d", store.NumDocuments())
	}
	if len(failures) == 0 {
		t.Fatal("stuck archive was not surfaced")
	}
	if !strings.Contains(failures[0].Error(), "archive") {
		t.Fatalf("unexpected failure: %v", failures[0])
	}
	// A stored document is not a failed ingest: the file must stay in
	// the drop folder awaiting the archive retry, not be quarantined.
	if _, err := os.Stat(filepath.Join(dir, "stuck.html")); err != nil {
		t.Fatal("stuck file left the drop folder")
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "stuck.html")); !os.IsNotExist(err) {
		t.Fatal("stored document was quarantined to .failed")
	}
	// The audit note still lands.
	if _, err := os.Stat(filepath.Join(dir, failedDir, "stuck.html.err")); err != nil {
		t.Fatal("archive-failure note missing")
	}
	// The file is stuck in the drop folder, but later scans must never
	// store it again.
	for i := 0; i < 3; i++ {
		if n, err := d.ScanOnce(); err != nil || n != 0 {
			t.Fatalf("rescan %d = %d %v", i, n, err)
		}
	}
	if store.NumDocuments() != 1 {
		t.Fatalf("document re-ingested: docs = %d", store.NumDocuments())
	}
	// Restore the archive folder: the pending move completes and the
	// tracking entry drains.
	if err := os.Remove(filepath.Join(dir, processedDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, processedDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if n, err := d.ScanOnce(); err != nil || n != 0 {
		t.Fatalf("drain scan = %d %v", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, processedDir, "stuck.html")); err != nil {
		t.Fatal("stuck file not archived after the folder came back")
	}
	if store.NumDocuments() != 1 {
		t.Fatalf("archive retry re-ingested: docs = %d", store.NumDocuments())
	}
}

// TestScanBatchesLargeDrops verifies a multi-batch scan ingests
// everything and the batch knob is honored.
func TestScanBatchesLargeDrops(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, _ := New(dir, store, time.Second)
	d.BatchSize = 4
	d.Workers = 2
	for i := 0; i < 10; i++ {
		name := filepath.Join(dir, string(rune('a'+i))+".txt")
		if err := os.WriteFile(name, []byte("TITLE\n\nbody text\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := scanUntilStable(t, d); n != 10 {
		t.Fatalf("ingested = %d", n)
	}
	if store.NumDocuments() != 10 {
		t.Fatalf("docs = %d", store.NumDocuments())
	}
}

// faultStore opens a durable store over a FaultFS so tests can inject
// device errors, returning the store and the fault handle.
func faultStore(t *testing.T) (*xmlstore.Store, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(nil)
	db, err := ordbms.Open(ordbms.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// manualClock pins the daemon to a test-controlled clock so backoff
// waits are jumped over instead of slept through.
func manualClock(d *Daemon) *time.Time {
	cur := time.Now()
	d.now = func() time.Time { return cur }
	return &cur
}

// TestTransientFailureRetriedThenRecovers: a one-off WAL fsync failure
// must not quarantine the document.  The daemon backs off, the store
// heals via checkpoint, and the retry ingests the file normally.
func TestTransientFailureRetriedThenRecovers(t *testing.T) {
	dir := t.TempDir()
	store, ffs := faultStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clock := manualClock(d)
	if err := os.WriteFile(filepath.Join(dir, "doc.html"),
		[]byte(`<html><body><h1>T</h1><p>retry me</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The commit fsync fails exactly once: transient by definition.
	ffs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "*.nmlog", Times: 1})
	if n := scanUntilStable(t, d); n != 0 {
		t.Fatalf("ingested through a failed commit: %d", n)
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "doc.html")); !os.IsNotExist(err) {
		t.Fatal("transient failure was quarantined")
	}
	retries, _ := d.RetryStats()
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
	// An immediate rescan finds the file still backing off.
	if n, err := d.ScanOnce(); err != nil || n != 0 {
		t.Fatalf("backoff scan = %d %v", n, err)
	}
	if _, backoffs := d.RetryStats(); backoffs == 0 {
		t.Fatal("backoff skip not counted")
	}
	// The fault is spent; a checkpoint rebuilds the WAL and restores
	// write service.  Jump past the backoff and retry.
	if err := store.DB().Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	*clock = clock.Add(time.Minute)
	n, err := d.ScanOnce()
	if err != nil || n != 1 {
		t.Fatalf("retry scan = %d %v", n, err)
	}
	ing, failed := d.Stats()
	if ing != 1 || failed != 0 {
		t.Fatalf("stats = %d %d, want 1 0", ing, failed)
	}
	if _, err := os.Stat(filepath.Join(dir, processedDir, "doc.html")); err != nil {
		t.Fatal("retried file not archived")
	}
}

// TestTransientExhaustsRetriesThenQuarantines: a store that stays
// degraded eventually exhausts the retry budget and the file is
// quarantined like any other failure.
func TestTransientExhaustsRetriesThenQuarantines(t *testing.T) {
	dir := t.TempDir()
	store, ffs := faultStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d.MaxRetries = 2
	clock := manualClock(d)
	if err := os.WriteFile(filepath.Join(dir, "doomed.html"),
		[]byte(`<html><body><h1>D</h1><p>no luck</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every WAL fsync fails: the store degrades and stays degraded.
	ffs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "*.nmlog"})
	if n := scanUntilStable(t, d); n != 0 {
		t.Fatalf("ingested through a failed commit: %d", n)
	}
	for i := 0; i < 2; i++ {
		*clock = clock.Add(time.Minute)
		if n, err := d.ScanOnce(); err != nil || n != 0 {
			t.Fatalf("retry scan %d = %d %v", i, n, err)
		}
	}
	retries, _ := d.RetryStats()
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	if _, failed := d.Stats(); failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "doomed.html")); err != nil {
		t.Fatal("exhausted file not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "doomed.html.err")); err != nil {
		t.Fatal("error note missing")
	}
}

// TestPermanentFailureNotRetried: an unconvertible file gains nothing
// from retries, so it is quarantined on the first attempt.
func TestPermanentFailureNotRetried(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"),
		[]byte{0, 1, 2, 0xFF, 0, 0, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := scanUntilStable(t, d); n != 0 {
		t.Fatalf("ingested = %d", n)
	}
	retries, backoffs := d.RetryStats()
	if retries != 0 || backoffs != 0 {
		t.Fatalf("retry stats = %d %d, want 0 0", retries, backoffs)
	}
	if _, failed := d.Stats(); failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if _, err := os.Stat(filepath.Join(dir, failedDir, "blob.bin")); err != nil {
		t.Fatal("permanent failure not quarantined immediately")
	}
}

func TestQuarantineFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t)
	d, err := New(dir, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Binary garbage has no converter, so ingest fails and the daemon
	// tries to quarantine.  Replace .failed/ with a regular file so the
	// quarantine move itself fails.
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"),
		[]byte{0, 1, 2, 0xFF, 0, 0, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, failedDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, failedDir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := scanUntilStable(t, d); n != 0 {
		t.Fatalf("ingested = %d", n)
	}
	if _, failed := d.Stats(); failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if got := d.QuarantineFails(); got != 1 {
		t.Fatalf("QuarantineFails = %d, want 1", got)
	}
	// The broken file is still in the drop folder, not quarantined.
	if _, err := os.Stat(filepath.Join(dir, "blob.bin")); err != nil {
		t.Fatal("file vanished despite failed quarantine")
	}
}
