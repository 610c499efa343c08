// Package daemon implements the NETMARK DAEMON of Fig 3: "Users insert
// new documents (in any format such as Word, PDF, HTML, XML or others)
// into NETMARK by simply dragging the documents into a (NETMARK) desktop
// folder.  The 'NETMARK DAEMON' periodically picks up these documents
// [and] passes them onto the 'SGML Parser', which converts the documents
// into XML" for schema-less storage.
//
// The daemon polls a drop folder; successfully ingested files move to
// .processed/, failures to .failed/ with a .err note, so a drop folder is
// also an audit trail.
//
// Two safeguards protect the drop-folder contract:
//
//   - A file is only ingested once its size and mtime are unchanged
//     across two consecutive scans, so a document mid-copy into the
//     folder is never stored truncated.  The quiet period equals the
//     poll interval: a writer that stalls longer than one full interval
//     mid-copy can still be misread as complete, so pick an interval
//     longer than any expected stall (or copy in via rename, which is
//     atomic).
//   - Names already stored are tracked in memory, so a file whose move
//     to .processed/ failed is never ingested twice; the stuck archive
//     is surfaced through recordFailure and retried on later scans.
//
// Ingest failures are classified before quarantining.  Permanent
// failures (no converter, unparseable content) will never succeed on a
// retry, so the file moves to .failed/ immediately.  Transient failures
// (device I/O errors, a store in degraded read-only mode, an unreadable
// drop file) are retried with capped exponential backoff and jitter;
// only a file that exhausts its retries is quarantined.
//
// Each scan's stable files are ingested through the store's concurrent
// pipeline as one run: preparation fans across workers, and each
// BatchSize of files costs one WAL group commit, which the pipeline does
// not stop for.  A file is archived, and OnIngest hears of it, only once
// its commit has landed.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"netmark/internal/xmlstore"
)

// processedDir and failedDir are the bookkeeping subfolders.
const (
	processedDir = ".processed"
	failedDir    = ".failed"
)

// DefaultBatchSize is how many documents one WAL group commit covers
// when no explicit batch size is configured.
const DefaultBatchSize = 64

// DefaultMaxRetries is how many times a transiently failing file is
// retried before quarantine when no explicit limit is configured.
const DefaultMaxRetries = 4

// Backoff schedule for transient-failure retries: base doubles per
// attempt up to the cap, with ±25% jitter so a burst of failures does
// not retry in lockstep.
const (
	retryBackoffBase = 250 * time.Millisecond
	retryBackoffCap  = 30 * time.Second
)

// fileState is one observation of a drop-folder file, used for the
// two-scan stability check.
type fileState struct {
	size  int64
	mtime time.Time
}

func (a fileState) equal(b fileState) bool {
	return a.size == b.size && a.mtime.Equal(b.mtime)
}

// Daemon watches one drop folder and ingests into one store.
type Daemon struct {
	dir      string
	store    *xmlstore.Store
	interval time.Duration

	// Workers sets the batch pipeline's preparation fan-out
	// (0 = GOMAXPROCS).  Set before Run/ScanOnce.
	Workers int
	// BatchSize is how many documents one WAL group commit covers
	// (0 = DefaultBatchSize): a scan's files go through the pipeline as
	// one run, committed every BatchSize files, and are archived as
	// each commit lands.  Set before Run/ScanOnce.
	BatchSize int
	// MaxRetries caps transient-failure retries per file before the
	// file is quarantined (0 = DefaultMaxRetries).  Set before
	// Run/ScanOnce.
	MaxRetries int

	// OnIngest, when set, observes every attempt (err nil on success).
	OnIngest func(name string, docID uint64, err error)

	// pending holds each candidate file's last observed size/mtime; a
	// file is ingested only when a scan re-observes the same state.
	pending map[string]fileState
	// processed holds names that were stored but whose move to
	// .processed/ failed, so they are never ingested again while they
	// linger in the drop folder.
	processed map[string]bool
	// attempts counts transient-failure retries consumed per file;
	// deferred holds the earliest next attempt for a file backing off.
	attempts map[string]int
	deferred map[string]time.Time

	// now and rng are the clock and jitter source, swappable in tests.
	// Only ScanOnce, and the pipeline reports it waits for, touch rng.
	now func() time.Time
	rng *rand.Rand

	mu       sync.Mutex
	ingested int // guarded by mu
	failed   int // guarded by mu
	retries  int // transient failures given another chance; guarded by mu
	backoffs int // scans that skipped a file still backing off; guarded by mu
	// quarantineFails counts failed files whose move to .failed/ itself
	// failed: the file is still sitting in the drop folder with nothing
	// marking it broken, so operators must know.  Guarded by mu.
	quarantineFails int
}

// New creates a daemon for a drop folder (created if missing).
func New(dir string, store *xmlstore.Store, interval time.Duration) (*Daemon, error) {
	if interval <= 0 {
		interval = time.Second
	}
	for _, d := range []string{dir, filepath.Join(dir, processedDir), filepath.Join(dir, failedDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("daemon: %w", err)
		}
	}
	return &Daemon{
		dir:       dir,
		store:     store,
		interval:  interval,
		pending:   make(map[string]fileState),
		processed: make(map[string]bool),
		attempts:  make(map[string]int),
		deferred:  make(map[string]time.Time),
		now:       time.Now,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Stats returns how many files were ingested and how many failed.
func (d *Daemon) Stats() (ingested, failed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingested, d.failed
}

// QuarantineFails returns how many failed files could not be moved to
// .failed/ and are still sitting unmarked in the drop folder.
func (d *Daemon) QuarantineFails() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantineFails
}

// RetryStats returns how many transient failures were given another
// chance (retries) and how many scans skipped a file that was still
// waiting out its backoff (backoffs).
func (d *Daemon) RetryStats() (retries, backoffs int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retries, d.backoffs
}

// ScanOnce processes every file currently in the drop folder and returns
// the number ingested.  It is the synchronous core Run loops over, and
// what tests call directly.  A freshly dropped file is only observed on
// its first scan; it is ingested by the next scan that finds its size
// and mtime unchanged.
func (d *Daemon) ScanOnce() (int, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, fmt.Errorf("daemon: read drop folder: %w", err)
	}
	current := make(map[string]fileState, len(entries))
	var stable []string // sorted: ReadDir returns names in order
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue // vanished between ReadDir and stat
		}
		st := fileState{size: info.Size(), mtime: info.ModTime()}
		current[name] = st
		if d.processed[name] {
			// Stored on an earlier scan but stuck in the folder; retry
			// the archive move, never the ingest.
			if d.archiveProcessed(name) {
				delete(d.processed, name)
				delete(current, name)
			}
			continue
		}
		if until, ok := d.deferred[name]; ok {
			if d.now().Before(until) {
				// Still backing off from a transient failure; leave it
				// for a later scan.
				d.mu.Lock()
				d.backoffs++
				d.mu.Unlock()
				continue
			}
			delete(d.deferred, name)
		}
		if prev, ok := d.pending[name]; ok && prev.equal(st) {
			stable = append(stable, name)
		}
	}
	// Forget files that left the folder, and remember this scan's
	// observations for the next stability check.
	for name := range d.processed {
		if _, ok := current[name]; !ok {
			delete(d.processed, name)
		}
	}
	for name := range d.attempts {
		if _, ok := current[name]; !ok {
			delete(d.attempts, name)
		}
	}
	for name := range d.deferred {
		if _, ok := current[name]; !ok {
			delete(d.deferred, name)
		}
	}
	d.pending = current

	return d.ingest(stable), nil
}

// readError is a drop file that could not be read.  It may read fine
// once a copy or mount hiccup passes, so it is transient.
type readError struct{ error }

// ingest reads and stores the stable files through the concurrent
// pipeline, one group commit per BatchSize of them, and archives each
// file by its outcome once its commit has landed.  The pipeline's
// workers read the files, no more than a batch of them ahead.
func (d *Daemon) ingest(names []string) int {
	batchSize := d.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	load := func(i int) (xmlstore.BatchDoc, error) {
		data, err := os.ReadFile(filepath.Join(d.dir, names[i]))
		if err != nil {
			return xmlstore.BatchDoc{Name: names[i]}, readError{err}
		}
		return xmlstore.BatchDoc{Name: names[i], Data: data}, nil
	}
	count := 0
	d.store.StoreChunks(len(names), d.Workers, batchSize, load, func(_ int, rs []xmlstore.BatchResult) {
		for _, r := range rs {
			if d.archive(r) {
				count++
			}
		}
	})
	return count
}

// archive settles one file by its ingest outcome and reports whether it
// was stored.
func (d *Daemon) archive(r xmlstore.BatchResult) bool {
	full := filepath.Join(d.dir, r.Name)
	if r.Err != nil {
		var re readError
		if d.failOrRetry(r.Name, full, r.Err, errors.As(r.Err, &re) || xmlstore.IsTransient(r.Err)) {
			delete(d.pending, r.Name)
		}
		return false
	}
	delete(d.pending, r.Name)
	delete(d.attempts, r.Name)
	delete(d.deferred, r.Name)
	d.mu.Lock()
	d.ingested++
	d.mu.Unlock()
	if d.OnIngest != nil {
		d.OnIngest(r.Name, r.DocID, nil)
	}
	if err := os.Rename(full, filepath.Join(d.dir, processedDir, r.Name)); err != nil {
		// The document is stored; remember the name so no later scan
		// ingests it again, and surface the stuck archive.  The file
		// must stay in place — it is not a failed ingest, and later
		// scans retry the move — so only the bookkeeping half of
		// recordFailure runs.
		d.processed[r.Name] = true
		d.noteFailure(r.Name,
			fmt.Errorf("stored as doc %d but archive to %s failed: %w", r.DocID, processedDir, err))
	}
	return true
}

// failOrRetry decides a failed ingest's fate and reports whether the
// file was quarantined (and so left the drop folder).  A transient
// failure with retries left is scheduled for another attempt after a
// backoff; the file stays in the drop folder and stays pending so the
// next eligible scan retries it.  Everything else — permanent failures,
// and transient ones out of retries — quarantines via recordFailure.
func (d *Daemon) failOrRetry(name, full string, err error, transient bool) bool {
	max := d.MaxRetries
	if max <= 0 {
		max = DefaultMaxRetries
	}
	if transient && d.attempts[name] < max {
		d.attempts[name]++
		d.deferred[name] = d.now().Add(d.backoffDelay(d.attempts[name] - 1))
		d.mu.Lock()
		d.retries++
		d.mu.Unlock()
		if d.OnIngest != nil {
			d.OnIngest(name, 0, err)
		}
		return false
	}
	delete(d.attempts, name)
	delete(d.deferred, name)
	d.recordFailure(name, full, err)
	return true
}

// backoffDelay returns the capped exponential backoff for the n-th
// retry (0-based), jittered by ±25% so a burst of transient failures
// does not hammer a struggling store in lockstep.
func (d *Daemon) backoffDelay(attempt int) time.Duration {
	delay := retryBackoffBase << uint(attempt)
	if delay <= 0 || delay > retryBackoffCap {
		delay = retryBackoffCap
	}
	jitter := time.Duration(d.rng.Int63n(int64(delay)/2+1)) - delay/4
	return delay + jitter
}

// archiveProcessed retries the archive move for a file that is already
// stored.  Failure is deliberately not an event: the file simply stays
// in the drop folder and the next scan retries the move again, so only
// success mutates any bookkeeping.
//
// netmarkvet:errsink
func (d *Daemon) archiveProcessed(name string) bool {
	return os.Rename(filepath.Join(d.dir, name),
		filepath.Join(d.dir, processedDir, name)) == nil
}

// recordFailure quarantines a file that could not be ingested and
// surfaces the error.  A failed quarantine move is itself an event: the
// broken file stays in the drop folder looking like any other document,
// so it is logged and counted rather than swallowed — this function is
// the daemon's designated sink for those errors.
//
// netmarkvet:errsink
func (d *Daemon) recordFailure(name, full string, err error) {
	if mvErr := os.Rename(full, filepath.Join(d.dir, failedDir, name)); mvErr != nil {
		log.Printf("daemon: quarantine of %s failed: %v (ingest error: %v)", name, mvErr, err)
		d.mu.Lock()
		d.quarantineFails++
		d.mu.Unlock()
	}
	d.noteFailure(name, err)
}

// noteFailure is the bookkeeping half of recordFailure: the .err audit
// note, the counter, and the callback — without moving the file.
func (d *Daemon) noteFailure(name string, err error) {
	_ = os.WriteFile(filepath.Join(d.dir, failedDir, name+".err"), []byte(err.Error()), 0o644)
	d.mu.Lock()
	d.failed++
	d.mu.Unlock()
	if d.OnIngest != nil {
		d.OnIngest(name, 0, err)
	}
}

// Run polls until the context is cancelled.
func (d *Daemon) Run(ctx context.Context) error {
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if _, err := d.ScanOnce(); err != nil {
				return err
			}
		}
	}
}
