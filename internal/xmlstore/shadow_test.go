package xmlstore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/vfs"
)

// countFS passes every call through to vfs.OS and counts, per file base
// name, the calls that change a file — Write, WriteAt, Truncate and Sync
// on a handle; Create, WriteFile, Rename, a Remove that removed, and an
// OpenFile that truncates — and the bytes written.
type countFS struct {
	vfs.FS
	mu     sync.Mutex
	writes map[string]int
	bytes  map[string]int64
}

func newCountFS() *countFS {
	return &countFS{FS: vfs.OS, writes: map[string]int{}, bytes: map[string]int64{}}
}

func (c *countFS) note(name string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes[filepath.Base(name)]++
	c.bytes[filepath.Base(name)] += int64(n)
}

// reset forgets what was counted so far.
func (c *countFS) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.writes)
	clear(c.bytes)
}

func (c *countFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{f, c, name}, nil
}

func (c *countFS) Create(name string) (vfs.File, error) {
	c.note(name, 0)
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{f, c, name}, nil
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if flag&os.O_TRUNC != 0 {
		c.note(name, 0)
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{f, c, name}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.note(newpath, 0)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) Remove(name string) error {
	err := c.FS.Remove(name)
	if err == nil {
		c.note(name, 0)
	}
	return err
}

func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.note(name, len(data))
	return c.FS.WriteFile(name, data, perm)
}

type countFile struct {
	vfs.File
	c    *countFS
	name string
}

func (f *countFile) Write(p []byte) (int, error) {
	f.c.note(f.name, len(p))
	return f.File.Write(p)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.note(f.name, len(p))
	return f.File.WriteAt(p, off)
}

func (f *countFile) Truncate(size int64) error {
	f.c.note(f.name, 0)
	return f.File.Truncate(size)
}

func (f *countFile) Sync() error {
	f.c.note(f.name, 0)
	return f.File.Sync()
}

// pageMap is the page map the catalog in dir commits, as [page, offset,
// length] triples.
func pageMap(t *testing.T, dir string) [][3]int64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cf struct {
		Extents [][3]int64 `json:"extents"`
	}
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatal(err)
	}
	return cf.Extents
}

// dirDigest maps each file in dir to its bytes' digest.
func dirDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string][32]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = sha256.Sum256(b)
	}
	return m
}

// dataHeader is the data file's header: no extent starts before it.
const dataHeader = 16

// scribble overwrites every byte of dir's data file past its header that
// the committed page map does not name and returns how many it overwrote:
// whatever reads one of them afterwards reads noise.
func scribble(t *testing.T, dir string) int {
	t.Helper()
	path := filepath.Join(dir, "data.nmdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]bool, len(data))
	for _, e := range pageMap(t, dir) {
		for i := e[1]; i < e[1]+e[2]; i++ {
			named[i] = true
		}
	}
	n := 0
	for i := dataHeader; i < len(data); i++ {
		if !named[i] {
			data[i] = 0xee
			n++
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return n
}

// A crash finds every page where the last committed page map says, as
// that checkpoint left it, and recovery redoes the log from there.  The
// store runs on a pool small enough to evict between checkpoints.  After
// a crash that follows evictions, and after one that follows a
// checkpoint whose pages were flushed but whose catalog rename failed,
// every byte of the data file the committed map does not name is
// overwritten — so no extent written since the commit is read — and the
// reopened store reconstructs every committed document byte for byte.
// So it does after a crash that follows more ingest, uncommitted, whose
// pages were evicted while their records sat only in the log's buffer:
// the evictions write nothing to the log, which the crash leaves as the
// last fsync did, and the reopen is the store that fsync left.
func TestShadowPagesSurviveCrash(t *testing.T) {
	for _, crash := range []string{"after-evictions", "catalog-rename-failed", "evicted-unlogged"} {
		t.Run(crash, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: ffs, PoolPages: 8})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(db)
			if err != nil {
				t.Fatal(err)
			}
			gen := corpus.New(5)
			for _, d := range gen.Mixed(200) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			_, _, evicted := db.Pool().Stats()
			// Rewrite pages the checkpoint committed: deletes dirty
			// the documents' pages, and more documents fill the pool.
			docs, err := s.Documents()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs[:len(docs)/3] {
				if err := s.DeleteDocument(d.DocID); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range gen.DeepReports(2, 3, 6, 4) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, _, ev := db.Pool().Stats(); ev == evicted {
				t.Fatal("nothing was evicted between the checkpoints")
			}
			want := reconstructAll(t, s, 0)
			if crash == "catalog-rename-failed" {
				ffs.AddRule(vfs.Rule{Op: vfs.OpRename, Path: "catalog.json"})
				if err := db.Checkpoint(); !errors.Is(err, syscall.EIO) {
					t.Fatalf("checkpoint under a failing rename = %v", err)
				}
			}
			if crash == "evicted-unlogged" {
				logPath := filepath.Join(dir, "wal.nmlog")
				synced, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				// Past the pool's 8 pages evicted, pages this ingest filled
				// are evicted too.
				_, _, ev := db.Pool().Stats()
				late := gen.Mixed(300)
				for _, d := range late {
					if _, _, now := db.Pool().Stats(); now > ev+8 {
						break
					}
					if _, err := s.StoreRaw("late-"+d.Name, d.Data); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, now := db.Pool().Stats(); now <= ev+8 {
					t.Fatalf("%d documents evicted %d pages", len(late), now-ev)
				}
				st, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() != synced.Size() {
					t.Fatalf("evictions wrote the log: %d bytes after the fsync's %d", st.Size(), synced.Size())
				}
			}
			db.CloseDiscard() // the crash
			if n := scribble(t, dir); n == 0 {
				t.Fatal("the data file holds no byte the committed map does not name")
			}

			db, s = openDir(t, dir, OpenOptions{})
			defer db.CloseDiscard()
			if db.Replayed == 0 {
				t.Fatal("the reopen replayed nothing")
			}
			got := reconstructAll(t, s, 0)
			if len(got) != len(want) {
				t.Fatalf("%d documents after the crash, want %d", len(got), len(want))
			}
			for name, tree := range want {
				if got[name] != tree {
					t.Fatalf("%s does not reconstruct as before the crash", name)
				}
			}
		})
	}
}

// A page's old extents are reused: over ten cycles of opening a store,
// ingesting into it, deleting from it and closing it, the data file never
// grows past its live extents plus what the closing checkpoint rewrote,
// whose old versions it could not yet reuse.
func TestDataFileReusesFreedExtents(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountFS()
	gen := corpus.New(8)
	for cycle := 0; cycle < 10; cycle++ {
		cfs.reset()
		db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: cfs})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range gen.Mixed(30) {
			if _, err := s.StoreRaw(fmt.Sprintf("%d-%s", cycle, d.Name), d.Data); err != nil {
				t.Fatal(err)
			}
		}
		docs, err := s.Documents()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs[:10] {
			if err := s.DeleteDocument(d.DocID); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "data.nmdb"))
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		m := pageMap(t, dir)
		for _, e := range m {
			live += e[2]
		}
		rewrote := cfs.bytes["data.nmdb"]
		if st.Size() > dataHeader+live+rewrote {
			t.Fatalf("cycle %d: the data file is %d bytes, past its %d live and %d rewritten", cycle, st.Size(), live, rewrote)
		}
		if end := slices.MaxFunc(m, func(a, b [3]int64) int { return int(a[1] + a[2] - b[1] - b[2]) }); end[1]+end[2] != st.Size() {
			t.Fatalf("cycle %d: the data file is %d bytes, its last extent ends at %d", cycle, st.Size(), end[1]+end[2])
		}
	}
}

// Opening a store, reading it and closing it writes nothing: the close
// skips the checkpoint when nothing was logged, replayed or rebuilt since
// open.  A store that took a document checkpoints at its close.
func TestReadOnlyCloseWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirDigest(t, dir)
	cfs := newCountFS()
	for i := 0; i < 2; i++ {
		db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: cfs})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(db)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.SnapshotStats(); !st.Loaded {
			t.Fatalf("the snapshot was not loaded: %+v", st)
		}
		diffPlans(t, "read-only reopen", runPlans(t, s), want)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(cfs.writes) != 0 {
		t.Fatalf("read-only opens and closes wrote %v", cfs.writes)
	}
	if after := dirDigest(t, dir); !maps.Equal(before, after) {
		t.Fatalf("read-only opens and closes changed the store:\nbefore %v\nafter  %v", before, after)
	}

	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(db)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "late.html", "<html><body><h1>Late</h1><p>one more</p></body></html>")
	cfs.reset()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if cfs.writes["catalog.json"] == 0 || cfs.writes["xmlstore.nmsnap"] == 0 {
		t.Fatalf("closing a store that took a document wrote %v", cfs.writes)
	}
}

// A checkpoint with nothing to write writes nothing.  Of three back to
// back after an ingest, the first commits a catalog and a snapshot, and
// the other two touch no file; nor does the close after them.
func TestNoOpCheckpointWritesNothing(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountFS()
	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range corpus.New(3).Mixed(40) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	gen := db.CatalogGen()
	cfs.reset()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cfs.writes["catalog.json"] != 1 || cfs.writes[snapshotName] != 1 {
		t.Fatalf("the first checkpoint wrote %v", cfs.writes)
	}
	cfs.reset()
	for i := 0; i < 2; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cfs.writes) != 0 {
		t.Fatalf("two checkpoints and a close with nothing to write wrote %v", cfs.writes)
	}
	if got := db.CatalogGen(); got != gen+1 {
		t.Fatalf("catalog generation %d after three checkpoints, want %d", got, gen+1)
	}
}
