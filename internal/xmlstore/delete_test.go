package xmlstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/vfs"
)

// checkDeleted fails unless the full scan — which needs no link and no
// index to find a row — sees nothing left of docID: every row it finds is
// in another document, by docOf, and none is cut off from the rows above
// it that name its document.
func checkDeleted(t *testing.T, s *Store, docID uint64) {
	t.Helper()
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if id, err := s.docOf(n); err != nil || id == docID {
			t.Fatalf("row %v is in document %d (%v) after document %d was deleted", n.RowID, id, err, docID)
		}
	}
}

// docPages counts the heap pages holding doc's rows.
func docPages(t *testing.T, s *Store, doc *DocInfo) int {
	t.Helper()
	pages := make(map[uint32]bool)
	for _, rid := range docRowIDs(t, s, doc.DocID) {
		pages[rid.Page] = true
	}
	return len(pages)
}

// reconstructAll serialises every stored document except skip.
func reconstructAll(t *testing.T, s *Store, skip uint64) map[string]string {
	t.Helper()
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(docs))
	for _, d := range docs {
		if d.DocID != skip {
			out[d.FileName] = reconstructBytes(t, s, d.FileName)
		}
	}
	return out
}

// checkInterrupted holds a store to what an interrupted delete of doc must
// leave behind — the DOC row, no posting under a row that is gone, and
// kept nodes (-1: some but not all of them), the root among them
// unless none are — then takes one more document, next, which lands on
// pages the delete left with room but never on a slot it freed, so under
// none of the links the survivors still carry; retries the delete and
// checks it finished the job and touched nothing else.  before is
// NumNodes and others the other documents' serialised trees, both from
// before the first attempt.
func checkInterrupted(t *testing.T, s *Store, doc *DocInfo, kept int64, before int64, others map[string]string, next BatchDoc) {
	t.Helper()
	if _, err := s.Document(doc.DocID); err != nil {
		t.Fatalf("interrupted delete lost the DOC row: %v", err)
	}
	left := s.NumNodes() - (before - doc.NNodes)
	switch {
	case kept < 0 && (left <= 0 || left >= doc.NNodes):
		t.Fatalf("%d of %d nodes left: the delete was not interrupted partway", left, doc.NNodes)
	case kept >= 0 && left != kept:
		t.Fatalf("%d of %d nodes left, want %d", left, doc.NNodes, kept)
	}
	root, err := s.fetchNodeUncached(doc.RootRowID)
	if left > 0 && (err != nil || root.DocID != doc.DocID) {
		t.Fatalf("interrupted delete lost the root: %v, %v", root, err)
	}
	// The delete took every posting of the document before any row, and a
	// reopen's rebuild posts only the survivors: no posting key names a
	// deleted row.
	checkPostings(t, "interrupted delete", s, doc.DocID)

	nextID, err := s.StoreRaw(next.Name, next.Data)
	if err != nil {
		t.Fatal(err)
	}
	nextInfo, err := s.Document(nextID)
	if err != nil {
		t.Fatal(err)
	}
	others[next.Name] = reconstructBytes(t, s, next.Name)
	// A RowID is never handed out twice, so every survivor the walk from
	// the root reaches — the walk the retry makes — is the deleted
	// document's, not the new one's.
	if left > 0 {
		reached := int64(0)
		follow := func(rid ordbms.RowID) (*Node, error) {
			n, err := s.fetchNodeUncached(rid)
			if err == ordbms.ErrRecordDeleted {
				return nil, nil
			}
			return n, err
		}
		err := walkSubtree(root, follow, func(n *Node, _ int) {
			reached++
			if id, err := s.docOf(n); err != nil || id != doc.DocID {
				t.Errorf("node %v, reached from the deleted document's root, is in document %d (%v)", n.RowID, id, err)
			}
		})
		if err != nil || reached != left {
			t.Fatalf("the walk from the root reached %d of %d survivors: %v", reached, left, err)
		}
	}

	if err := s.DeleteDocument(doc.DocID); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if _, err := s.Document(doc.DocID); !IsGone(err) {
		t.Fatalf("DOC row after the retried delete: %v", err)
	}
	checkDeleted(t, s, doc.DocID)
	if got, want := s.NumNodes(), before-doc.NNodes+nextInfo.NNodes; got != want {
		t.Fatalf("%d nodes after the retried delete, want %d", got, want)
	}
	for name, want := range others {
		if got := reconstructBytes(t, s, name); got != want {
			t.Fatalf("%s is not byte-identical after the retried delete", name)
		}
	}
}

// An interrupted DeleteDocument — by an I/O fault partway, or by a crash
// that kept only a prefix of its two log records — leaves a document a
// retry can finish: rows go in reverse document order, so the survivors
// are a prefix still reachable from DOC.rootrowid, and the retry's walk
// stays inside the document whatever has been stored since.
func TestDeleteInterruptedIsRetryable(t *testing.T) {
	const poolPages = 8
	var docs []corpus.Document
	victim := func() string { return docs[len(docs)-1].Name }
	load := func(t *testing.T, s *Store) *DocInfo {
		for _, d := range docs {
			if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
				t.Fatal(err)
			}
		}
		doc, err := s.DocumentByName(victim())
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	// The victim, the last document in, is a deep report grown until the
	// built store holds it on poolPages+3 pages or more, however small the
	// record format makes a node: each round scales its sections by the
	// pages still missing.
	for sections := 8; ; {
		gen := corpus.New(41)
		docs = append(gen.Mixed(40), gen.DeepReport(0, sections, 24, 16))
		s := memStore(t)
		pages := docPages(t, s, load(t, s))
		if pages >= poolPages+3 {
			break
		}
		sections = sections*(poolPages+3)/pages + 1
	}

	// Reopened on a pool far smaller than the document, deleting — last
	// page first — dirties every page of the document, and once the pool
	// is full each further page evicts a dirty one: about one write-back
	// per page beyond the pool's.  The write-back halfway through those
	// fails, whatever the record format makes the document's page count.
	t.Run("io-fault", func(t *testing.T) {
		dir := t.TempDir()
		db, s := openDir(t, dir, OpenOptions{})
		load(t, s)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		ffs := vfs.NewFaultFS(nil)
		db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: ffs, PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if s, err = Open(db); err != nil {
			t.Fatal(err)
		}
		doc, err := s.DocumentByName(victim())
		if err != nil {
			t.Fatal(err)
		}
		pages := docPages(t, s, doc)
		if pages < poolPages+3 {
			t.Fatalf("the victim spans %d pages: too few past a %d-page pool to interrupt its delete", pages, poolPages)
		}
		before, others := s.NumNodes(), reconstructAll(t, s, doc.DocID)
		ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: "data.nmdb", After: (pages - poolPages) / 2})
		if err := s.DeleteDocument(doc.DocID); !IsTransient(err) {
			t.Fatalf("delete under a failing data file = %v, want a transient error", err)
		}
		if err := s.DeleteDocument(doc.DocID); !IsDegraded(err) {
			t.Fatalf("delete while degraded = %v, want ErrDegraded", err)
		}
		ffs.ClearFaults()
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("healing checkpoint: %v", err)
		}
		// The next document's run pins every page it lands on, and every
		// page with a little room left is a candidate: a one-section
		// document fits the pool's frames.
		checkInterrupted(t, s, doc, -1, before, others, longDoc("next.html", 1, "omega"))
	})

	// A delete logs two records, the XML run and then the DOC row.  Cut
	// the log of a whole delete before each and reopen.
	t.Run("log-cut", func(t *testing.T) {
		src := t.TempDir()
		db, s := openDir(t, src, OpenOptions{})
		doc := load(t, s)
		if err := db.Commit(); err != nil { // trains the tables: their walSymbols go before the checkpoint
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before, others := s.NumNodes(), reconstructAll(t, s, doc.DocID)
		if err := s.DeleteDocument(doc.DocID); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		db.CloseDiscard()
		_, img := readLog(t, filepath.Join(src, "wal.nmlog"))
		var rows []int64 // each record's rows
		start := 0
		for _, end := range img.Ends {
			body := img.Stream[start+8 : end] // past the record's length and CRC
			start = end
			if body[0] != 10 { // walDeleteRun: per section page u32, first slot u16, count u16
				t.Fatalf("the delete logged a record of type %d", body[0])
			}
			n := int64(0)
			for sec := body[1:]; len(sec) >= 8; sec = sec[8:] {
				n += int64(binary.LittleEndian.Uint16(sec[6:]))
			}
			rows = append(rows, n)
		}
		cuts := recordCuts(img)
		if len(rows) != 2 || rows[0] != doc.NNodes || rows[1] != 1 {
			t.Fatalf("the delete logged runs of %v rows, want the document's %d nodes, then its DOC row", rows, doc.NNodes)
		}
		// The last cut is the whole delete; the one before it lacks only
		// the DOC row, and the first lacks the delete.
		for i, kept := range []int64{doc.NNodes, 0} {
			cut := cuts[i]
			dir := t.TempDir()
			for _, f := range []string{"data.nmdb", "catalog.json", "xmlstore.nmsnap"} {
				b, err := os.ReadFile(filepath.Join(src, f))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.nmlog"), cut.log, 0o644); err != nil {
				t.Fatal(err)
			}
			db, s := openDir(t, dir, OpenOptions{})
			trees := make(map[string]string, len(others))
			for name, tree := range others {
				trees[name] = tree
			}
			checkInterrupted(t, s, doc, kept, before, trees, longDoc("next.html", 40, "omega"))
			db.CloseDiscard()
		}
	})
}

// A folded heading's words are posted under its CONTEXT row, so deleting
// the document must take them out of the text index with the row: a word
// that occurs only in the deleted document's headings matches nothing,
// in memory and after both reopens, while the survivor's still match.
func TestDeleteRemovesFoldedHeadingWords(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	ingest(t, s, "keep.html", `<html><body><h1>Keepheading</h1><p>shared body</p></body></html>`)
	gone := ingest(t, s, "gone.html", `<html><body><h1>Goneheading</h1><p>shared body</p><h2>Gonesub Title</h2><p>more</p></body></html>`)
	if secs, err := s.ContentSearchN("goneheading", 0); err != nil || len(secs) != 1 || secs[0].Context != "Goneheading" {
		t.Fatalf("heading word before the delete: %+v, %v", secs, err)
	}
	if err := s.DeleteDocument(gone); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, s *Store) {
		t.Helper()
		for _, word := range []string{"goneheading", "gonesub", "title"} {
			if secs, err := s.ContentSearchN(word, 0); err != nil || len(secs) != 0 || s.ContentIndex().DF(word) != 0 {
				t.Fatalf("%s: deleted heading word %q matches %+v (df %d), %v", stage, word, secs, s.ContentIndex().DF(word), err)
			}
		}
		if secs, err := s.ContentSearchN("keepheading", 0); err != nil || len(secs) != 1 || secs[0].Content != "shared body" {
			t.Fatalf("%s: survivor's heading word matches %+v, %v", stage, secs, err)
		}
	}
	check("in memory", s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, s = openDir(t, dir, OpenOptions{})
	if !s.SnapshotStats().Loaded {
		t.Fatalf("snapshot not loaded: %+v", s.SnapshotStats())
	}
	check("snapshot reopen", s)
	db.CloseDiscard()
	db, s = openDir(t, dir, OpenOptions{DisableSnapshot: true})
	check("scan reopen", s)
	db.CloseDiscard()
}

// A document nested 10 000 deep reconstructs and deletes on a goroutine
// stack capped far below what one frame per level would need: the subtree
// walk keeps its pending links on the heap.
func TestDeepDocumentWalksIteratively(t *testing.T) {
	const depth = 10000
	root := sgml.NewElement("doc")
	leaf := root
	for i := 1; i < depth; i++ {
		child := sgml.NewElement("level")
		leaf.AppendChild(child)
		leaf = child
	}
	leaf.AppendChild(sgml.NewText("bottom"))
	s := memStore(t)
	id, err := s.StoreDocument(docform.Meta{FileName: "deep.xml", Format: "xml"}, root, sgml.XMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Exceeding the cap is fatal to the process, not a test failure; 10 000
	// frames of even 64 bytes would exceed it.
	defer debug.SetMaxStack(debug.SetMaxStack(512 << 10))
	tree, err := s.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	for n := tree; n != nil; n = n.FirstChild {
		levels++
	}
	if levels != depth+1 {
		t.Fatalf("reconstructed %d levels, want %d", levels, depth+1)
	}
	if err := s.DeleteDocument(id); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 0 {
		t.Fatalf("%d nodes left of a deleted document", s.NumNodes())
	}
}
