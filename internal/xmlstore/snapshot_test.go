package xmlstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/vfs"
)

// openDir opens a persistent store, failing the test on error.
func openDir(t *testing.T, dir string, opts OpenOptions) (*ordbms.DB, *Store) {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, s
}

// catalogPages counts the pages the catalog in dir lists for tables.
func catalogPages(t *testing.T, dir string, tables ...string) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Tables []struct {
			Name  string
			Pages []uint32
		}
	}
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ct := range cat.Tables {
		if slices.Contains(tables, ct.Name) {
			n += len(ct.Pages)
		}
	}
	return n
}

// snapshotQueryPlans is the query battery the reopen-equivalence tests
// compare byte-for-byte across open paths (mirrors TestKernelEquivalence).
var snapshotQueryPlans = []struct {
	name string
	run  func(s *Store) (any, error)
}{
	{"content", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic", 0) }},
	{"content-multi", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic turbine", 0) }},
	{"content-limit", func(s *Store) (any, error) { return s.ContentSearchN("review", 5) }},
	{"context", func(s *Store) (any, error) { return s.ContextSearchN("Budget", 0) }},
	{"context-prefix", func(s *Store) (any, error) { return s.ContextPrefixSearchN("Tech", 0) }},
	{"combined", func(s *Store) (any, error) { return s.SearchN("Budget", "request", 0) }},
	{"phrase", func(s *Store) (any, error) {
		return s.collect(SectionQuery{Content: "was tested during", Phrase: true})
	}},
	{"phrase-hits", func(s *Store) (any, error) { return s.ContentIndex().Phrase("cryogenic turbine"), nil }},
	{"docs", func(s *Store) (any, error) { return s.ContentSearchDocsN("turbine", 0) }},
	{"headings", func(s *Store) (any, error) { return s.ContextHeadings(), nil }},
}

func runPlans(t *testing.T, s *Store) map[string]any {
	t.Helper()
	out := make(map[string]any, len(snapshotQueryPlans))
	for _, p := range snapshotQueryPlans {
		got, err := p.run(s)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out[p.name] = got
	}
	return out
}

func diffPlans(t *testing.T, stage string, got, want map[string]any) {
	t.Helper()
	for _, p := range snapshotQueryPlans {
		if !reflect.DeepEqual(got[p.name], want[p.name]) {
			t.Fatalf("%s: %s diverges:\n got: %+v\nwant: %+v", stage, p.name, got[p.name], want[p.name])
		}
	}
}

// TestSnapshotReopenEquivalence ingests a corpus, checkpoints, and
// reopens both via the snapshot and via the forced rebuild fallback:
// every query family must answer byte-for-byte what the pre-close store
// answered, and the snapshot-loaded store must keep working as a live
// store (counters restored, new ingests visible and searchable).
func TestSnapshotReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	docs, err := s.Documents()
	if err != nil || len(docs) < 3 {
		t.Fatalf("docs: %v (%d)", err, len(docs))
	}
	// A delete before the checkpoint exercises tombstones and pruned
	// derived entries in the snapshot.
	if err := s.DeleteDocument(docs[2].DocID); err != nil {
		t.Fatal(err)
	}
	// A document whose root fills a page takes a fresh one, and a small
	// document stored after it lands in an earlier page's free space: DOC
	// order and heap order differ, and the rebuild walks DOC order.  The
	// root's filler is punctuation, which the symbol table codes no
	// shorter, so it is stored at full size.
	memo := sgml.NewElement("memo")
	memo.AppendChild(sgml.NewText(strings.Repeat("~|", 4000)))
	big, err := s.StoreDocument(docform.Meta{FileName: "big.xml", Format: "xml"}, memo, sgml.XMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.StoreRaw("small.xml", []byte(`<note>krypton ballast</note>`))
	if err != nil {
		t.Fatal(err)
	}
	bigInfo, err := s.Document(big)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := s.Document(small); err != nil || !info.RootRowID.Less(bigInfo.RootRowID) {
		t.Fatalf("small document %+v (%v) not placed before the previous document's root %v", info, err, bigInfo.RootRowID)
	}
	want := runPlans(t, s)
	maxDoc := max(big, small)
	for _, d := range docs {
		maxDoc = max(maxDoc, d.DocID)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot path.
	db2, s2 := openDir(t, dir, OpenOptions{})
	if st := s2.SnapshotStats(); !st.Enabled || !st.Loaded {
		t.Fatalf("snapshot not loaded: %+v", st)
	}
	// The heaps took their metadata from the catalog: the open read the
	// DOC pages to build DOC's indexes, and the TAG pages to load the tag
	// dictionary, but no XML page.
	if _, misses, _ := db2.Pool().Stats(); misses > uint64(catalogPages(t, dir, "DOC", "TAG")) {
		t.Fatalf("a clean reopen missed %d pages, more than DOC's and TAG's %d", misses, catalogPages(t, dir, "DOC", "TAG"))
	}
	diffPlans(t, "snapshot reopen", runPlans(t, s2), want)
	db2.CloseDiscard()

	// Forced rebuild fallback on the identical on-disk state.
	db3, s3 := openDir(t, dir, OpenOptions{DisableSnapshot: true})
	if st := s3.SnapshotStats(); st.Enabled || st.Loaded {
		t.Fatalf("ablation flag ignored: %+v", st)
	}
	diffPlans(t, "scan reopen", runPlans(t, s3), want)
	db3.CloseDiscard()

	// The snapshot-loaded store must remain a fully live store.
	db4, s4 := openDir(t, dir, OpenOptions{})
	if !s4.SnapshotStats().Loaded {
		t.Fatal("snapshot not loaded on second reopen")
	}
	id, err := s4.StoreRaw("fresh.xml",
		[]byte(`<report><heading>Xenon Thrusters</heading><para>grid erosion telemetry</para></report>`))
	if err != nil {
		t.Fatal(err)
	}
	if id <= maxDoc {
		t.Fatalf("restored doc-ID counter reused an ID: got %d, prior max %d", id, maxDoc)
	}
	secs, err := s4.ContentSearchN("erosion", 0)
	if err != nil || len(secs) != 1 || secs[0].Context != "Xenon Thrusters" {
		t.Fatalf("post-reopen ingest not searchable: %v %+v", err, secs)
	}
	if err := db4.Close(); err != nil {
		t.Fatal(err)
	}

	// And the refreshed snapshot includes the new document.
	db5, s5 := openDir(t, dir, OpenOptions{})
	if !s5.SnapshotStats().Loaded {
		t.Fatalf("refreshed snapshot not loaded: %+v", s5.SnapshotStats())
	}
	secs, err = s5.ContentSearchN("erosion", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("refreshed snapshot misses new doc: %v %+v", err, secs)
	}
	if err := db5.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuild restores the doc-ID counter too: past every document,
	// whichever order DOC and the heap hold them in.
	db6, s6 := openDir(t, dir, OpenOptions{DisableSnapshot: true})
	defer db6.CloseDiscard()
	next, err := s6.StoreRaw("after-rebuild.xml", []byte(`<note>argon purge</note>`))
	if err != nil {
		t.Fatal(err)
	}
	if next <= id {
		t.Fatalf("rebuilt doc-ID counter reused an ID: got %d, prior max %d", next, id)
	}
}

// TestSnapshotStaleAfterCrash mutates the store after a checkpoint, then
// crashes: the reopened store must reject the now-stale snapshot, rebuild
// by scan, and answer with the post-mutation state.
func TestSnapshotStaleAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, s2 := openDir(t, dir, OpenOptions{})
	if !s2.SnapshotStats().Loaded {
		t.Fatal("setup: snapshot should load")
	}
	if _, err := s2.StoreRaw("late.xml",
		[]byte(`<report><heading>Regolith Handling</heading><para>auger torque margins</para></report>`)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := runPlans(t, s2)
	db2.CloseDiscard() // crash: WAL holds the late ingest, snapshot does not

	db3, s3 := openDir(t, dir, OpenOptions{})
	defer db3.CloseDiscard()
	st := s3.SnapshotStats()
	if st.Loaded {
		t.Fatal("stale snapshot was loaded after a crash with unreplayed WAL records")
	}
	if st.Fallback != "wal-replay" && st.Fallback != "stale" {
		t.Fatalf("unexpected fallback reason %q", st.Fallback)
	}
	diffPlans(t, "crash reopen", runPlans(t, s3), want)
	if secs, err := s3.ContentSearchN("auger", 0); err != nil || len(secs) != 1 {
		t.Fatalf("late ingest lost: %v %+v", err, secs)
	}
}

// TestSnapshotCheckpointCrashMatrix simulates a crash at every step of
// the full checkpoint sequence — store snapshot write, catalog write, WAL
// truncation — and proves each aborted state
// reopens to the exact pre-crash answers, via the snapshot when its
// stamps prove it current and via the scan fallback otherwise.  A FaultFS
// cuts each step: a "<x>-temp" crash fails the rename onto x's final
// name, leaving the fsynced temp beside the old x; a "<x>-rename" crash
// fails the store directory's fsync after the rename, the checkpoint's
// Nth, leaving the new x and no temp.
func TestSnapshotCheckpointCrashMatrix(t *testing.T) {
	// The store snapshot's commit point is its rename: a crash before it
	// leaves the previous snapshot, whose LSN stamp no longer matches the
	// log end, so the reopen falls back to the scan rebuild.  From the
	// rename onward the snapshot is exactly as current as the flushed
	// heap plus the surviving WAL, so every later crash point reopens
	// through it (the post-recovery checkpoint in DB.Open re-commits the
	// catalog at the generation the aborted checkpoint stamped).
	steps := []struct {
		step       string
		file, tmp  string
		rule       vfs.Rule // an OpSync rule names the store directory
		wantLoaded bool     // snapshot valid after this crash?
	}{
		// previous snapshot, stale LSN stamp
		{"snapshot-temp", snapshotName, snapshotName + ".tmp", vfs.Rule{Op: vfs.OpRename, Path: snapshotName}, false},
		{"snapshot-rename", snapshotName, snapshotName + ".tmp", vfs.Rule{Op: vfs.OpSync}, true},
		{"catalog-temp", "catalog.json", "catalog.json.tmp", vfs.Rule{Op: vfs.OpRename, Path: "catalog.json"}, true},
		{"catalog-rename", "catalog.json", "catalog.json.tmp", vfs.Rule{Op: vfs.OpSync, After: 1}, true},
		{"wal-temp", "wal.nmlog", "wal.nmlog.ckpt", vfs.Rule{Op: vfs.OpRename, Path: "wal.nmlog"}, true},
		{"wal-rename", "wal.nmlog", "wal.nmlog.ckpt", vfs.Rule{Op: vfs.OpSync, After: 2}, true},
	}
	for _, tc := range steps {
		t.Run(tc.step, func(t *testing.T) {
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
			gen := corpus.New(99)
			for _, d := range gen.DeepReports(3, 3, 6, 4) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for _, d := range gen.Proposals(5) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			want := runPlans(t, s)
			wantDocs := s.NumDocuments()

			before, err := os.ReadFile(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			rule := tc.rule
			rule.Times = 1
			if rule.Op == vfs.OpSync {
				rule.Path = filepath.Base(dir)
			}
			ffs.AddRule(rule)
			if err := db.Checkpoint(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("checkpoint survived injected crash at %s: %v", tc.step, err)
			}
			db.CloseDiscard() // the crash
			now, err := os.ReadFile(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			_, err = os.Stat(filepath.Join(dir, tc.tmp))
			tempLeft, atTemp := err == nil, strings.HasSuffix(tc.step, "-temp")
			if tempLeft != atTemp || bytes.Equal(now, before) != atTemp {
				t.Fatalf("crash at %s: temp %s left = %v, %s unchanged = %v", tc.step, tc.tmp, tempLeft, tc.file, bytes.Equal(now, before))
			}

			db2, s2 := openDir(t, dir, OpenOptions{})
			defer db2.CloseDiscard()
			st := s2.SnapshotStats()
			if st.Loaded != tc.wantLoaded {
				t.Fatalf("crash at %s: snapshot loaded = %v (fallback %q), want %v",
					tc.step, st.Loaded, st.Fallback, tc.wantLoaded)
			}
			if got := s2.NumDocuments(); got != wantDocs {
				t.Fatalf("crash at %s: documents = %d, want %d", tc.step, got, wantDocs)
			}
			diffPlans(t, fmt.Sprintf("crash at %s", tc.step), runPlans(t, s2), want)
		})
	}
}

// TestSnapshotCorruptionFallsBack damages the snapshot file in several
// ways; every damaged form must be rejected in favour of the scan
// rebuild, never a failed open or wrong answers.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func() []byte{
		"bit-flip": func() []byte {
			b := append([]byte(nil), pristine...)
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func() []byte { return pristine[:len(pristine)*2/3] },
		"bad-magic": func() []byte {
			b := append([]byte(nil), pristine...)
			b[0] = 'X'
			return b
		},
		"empty": func() []byte { return nil },
	}
	for name, mk := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mk(), 0o644); err != nil {
				t.Fatal(err)
			}
			db2, s2 := openDir(t, dir, OpenOptions{})
			defer db2.CloseDiscard()
			st := s2.SnapshotStats()
			if st.Loaded {
				t.Fatalf("%s snapshot accepted", name)
			}
			if st.Fallback != "corrupt" {
				t.Fatalf("fallback reason = %q, want corrupt", st.Fallback)
			}
			diffPlans(t, name, runPlans(t, s2), want)
		})
	}
	// Restore the pristine file: it must load again (proves the damage
	// cases above were the only reason for fallback).
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	db3, s3 := openDir(t, dir, OpenOptions{})
	defer db3.CloseDiscard()
	if !s3.SnapshotStats().Loaded {
		t.Fatalf("pristine snapshot rejected: %+v", s3.SnapshotStats())
	}
	diffPlans(t, "pristine", runPlans(t, s3), want)
}

// TestSnapshotVersionSkewFallsBack: a snapshot whose version field is
// not the current one — an old v1 file, version 7's (whose text index
// posts words under text nodes, followed by node→CONTEXT entries), the
// previous version's, or a newer format — must fall back to the scan
// rebuild (which
// retokenizes under the current tokenizer contract) and be rewritten at
// the current version by the next checkpoint.
func TestSnapshotVersionSkewFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(pristine[8:12]); got != snapshotVersion {
		t.Fatalf("fresh snapshot version = %d, want %d", got, snapshotVersion)
	}

	var skews []uint32 // every older version, and the next one
	for v := uint32(1); v <= snapshotVersion+1; v++ {
		if v != snapshotVersion {
			skews = append(skews, v)
		}
	}
	for _, skew := range skews {
		t.Run(fmt.Sprintf("version=%d", skew), func(t *testing.T) {
			stale := append([]byte(nil), pristine...)
			binary.LittleEndian.PutUint32(stale[8:12], skew)
			if err := os.WriteFile(path, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			// Fallback, never a failed open or wrong answers.
			db2, s2 := openDir(t, dir, OpenOptions{})
			if st := s2.SnapshotStats(); st.Loaded || st.Fallback != "version" {
				t.Fatalf("version-skewed snapshot mishandled: %+v", st)
			}
			diffPlans(t, "skew reopen", runPlans(t, s2), want)
			// The next checkpoint upgrades the file in place.
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			upgraded, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint32(upgraded[8:12]); got != snapshotVersion {
				t.Fatalf("post-checkpoint version = %d, want %d", got, snapshotVersion)
			}
			db3, s3 := openDir(t, dir, OpenOptions{})
			defer db3.CloseDiscard()
			if st := s3.SnapshotStats(); !st.Loaded {
				t.Fatalf("upgraded snapshot not loaded: %+v", st)
			}
			diffPlans(t, "upgraded reopen", runPlans(t, s3), want)
		})
	}
}

// TestSnapshotV7FallsBack writes a file in version 7's layout — a
// payload followed by node→CONTEXT entries — and opens it: the
// store must rebuild by scan with reason "version" and answer as before,
// and the payload must not apply even under the current version number.
func TestSnapshotV7FallsBack(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two node→CONTEXT entries: key and heading deltas.
	file = append(file, 2, 1, 2, 1, 0)
	body := file[24:] // the frame's header is magic, version, CRC, length
	binary.LittleEndian.PutUint32(file[8:], 7)
	binary.LittleEndian.PutUint32(file[12:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(file[16:], uint64(len(body)))
	if err := (&Store{}).applySnapshot(body[16:]); err == nil {
		t.Fatal("a version 7 payload applies")
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, s2 := openDir(t, dir, OpenOptions{})
	defer db2.CloseDiscard()
	if st := s2.SnapshotStats(); st.Loaded || st.Fallback != "version" {
		t.Fatalf("version 7 snapshot: %+v", st)
	}
	diffPlans(t, "v7 reopen", runPlans(t, s2), want)
}
