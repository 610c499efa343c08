package xmlstore

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/vfs"
)

// A failed fsync fails exactly the chunk whose commit it was and every
// chunk after it: the chunks before it report success and survive a
// crash, the log stays poisoned and the store degraded.  Each chunk's
// documents are handed to the pipeline only once the chunk before it has
// been reported, so no chunk's records reach the log before the previous
// chunk's fsync, and the third fsync of the log is the third chunk's.
func TestPipelineFsyncFaultChunkExact(t *testing.T) {
	const chunk, chunks = 8, 5
	docs := make([]BatchDoc, chunk*chunks)
	for i := range docs {
		docs[i].Name, docs[i].Data = chaosDoc(i)
	}
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	ffs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "wal.nmlog", After: 2, Times: 1})
	reported := make([]chan struct{}, chunks)
	for k := range reported {
		reported[k] = make(chan struct{})
	}
	var results []BatchResult
	s.StoreChunks(len(docs), 2, chunk,
		func(i int) (BatchDoc, error) {
			if k := i / chunk; k > 0 {
				<-reported[k-1]
			}
			return docs[i], nil
		},
		func(first int, rs []BatchResult) {
			results = append(results, rs...)
			close(reported[first/chunk])
		})
	if len(results) != len(docs) {
		t.Fatalf("%d results, want %d", len(results), len(docs))
	}
	for i, r := range results {
		switch k := i / chunk; {
		case k < 2 && r.Err != nil:
			t.Errorf("chunk %d, %s: %v", k+1, r.Name, r.Err)
		case k == 2 && !ordbms.IsIOFault(r.Err):
			t.Errorf("chunk 3, %s: %v, want the fsync's fault", r.Name, r.Err)
		case k > 2 && !errors.Is(r.Err, ordbms.ErrDegraded):
			t.Errorf("chunk %d, %s: %v, want the degraded store's refusal", k+1, r.Name, r.Err)
		}
	}
	if h := db.Health(); !h.Degraded || !strings.HasPrefix(h.Reason, "wal commit") {
		t.Fatalf("health %+v, want degraded by the commit", h)
	}
	// The fault is gone, but the log is not trusted until a checkpoint
	// rebuilds it.
	ffs.ClearFaults()
	if rs := s.StoreBatch(docs[:1], 1); rs[0].Err == nil {
		t.Fatal("an ingest after the failed fsync succeeded")
	}
	db.CloseDiscard()

	db, s = openDir(t, dir, OpenOptions{})
	defer db.Close()
	for _, d := range docs[:2*chunk] {
		if got := reconstructBytes(t, s, d.Name); got == "" {
			t.Fatalf("%s empty after the crash", d.Name)
		}
	}
}

// readCountFS counts the bytes read from the files named name.
type readCountFS struct {
	vfs.FS
	name string
	read atomic.Int64
}

func (c *readCountFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != c.name {
		return f, err
	}
	return readCountFile{f, &c.read}, nil
}

type readCountFile struct {
	vfs.File
	read *atomic.Int64
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// A crash reopen reads and inflates the log once: recovery's replay is
// the scan that finds the log's end.  The log
// is that of 1 000 Mixed documents stored in 16-document batches and
// never checkpointed.
func TestCrashReopenReadsLogOnce(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	var docs []BatchDoc
	for _, d := range corpus.New(1).Mixed(1000) {
		docs = append(docs, BatchDoc{Name: d.Name, Data: d.Data})
	}
	storeBatches(t, s, docs, 16)
	db.CloseDiscard()
	st, err := vfs.OS.Stat(filepath.Join(dir, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	cfs := &readCountFS{FS: vfs.OS, name: "wal.nmlog"}
	start := time.Now()
	db, err = ordbms.Open(ordbms.Options{Dir: dir, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	defer db.Close()
	t.Logf("crash reopen replayed %d records of a %d-byte log in %v", db.Replayed, st.Size(), elapsed)
	if db.Replayed == 0 {
		t.Fatal("the reopen replayed nothing")
	}
	if got := cfs.read.Load(); got != st.Size() {
		t.Fatalf("the reopen read %d bytes of a %d-byte log: %.2f passes, want 1", got, st.Size(), float64(got)/float64(st.Size()))
	}
}
