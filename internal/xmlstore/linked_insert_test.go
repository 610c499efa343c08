package xmlstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// longDoc is a document of n sections, enough nodes to span several heap
// pages, so its rows reach the log as several per-page run records.
func longDoc(name string, n int, word string) BatchDoc {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>", name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<h2>Section %d of %s</h2><p>%s paragraph %d with a little text to carry</p>", i, name, word, i)
	}
	b.WriteString("</body></html>")
	return BatchDoc{Name: name, Data: []byte(b.String())}
}

// checkLinks walks a document from its root and fails unless every
// parent/prev/next/child link agrees with the walk that reached it.
func checkLinks(t *testing.T, s *Store, doc *DocInfo) {
	t.Helper()
	nodes := 0
	var walk func(n *Node, parent ordbms.RowID)
	walk = func(n *Node, parent ordbms.RowID) {
		nodes++
		if id, err := s.docOf(n); n.ParentRowID != parent || err != nil || id != doc.DocID {
			t.Fatalf("%s: node %v has parent %v doc %d (%v), reached from %v in doc %d", doc.FileName, n.RowID, n.ParentRowID, id, err, parent, doc.DocID)
		}
		prev := ordbms.ZeroRowID
		for at := n.ChildRowID; at != ordbms.ZeroRowID; {
			c, err := s.FetchNode(at)
			if err != nil {
				t.Fatalf("%s: child %v of %v: %v", doc.FileName, at, n.RowID, err)
			}
			if c.PrevRowID != prev {
				t.Fatalf("%s: node %v has prev %v, its left sibling is %v", doc.FileName, at, c.PrevRowID, prev)
			}
			walk(c, n.RowID)
			prev, at = at, c.NextRowID
		}
	}
	root, err := s.FetchNode(doc.RootRowID)
	if err != nil {
		t.Fatalf("%s: root %v: %v", doc.FileName, doc.RootRowID, err)
	}
	walk(root, ordbms.ZeroRowID)
	if int64(nodes) != doc.NNodes {
		t.Fatalf("%s: walked %d nodes, DOC row says %d", doc.FileName, nodes, doc.NNodes)
	}
}

// docRowIDs enumerates a document's rows the way the store does: by the
// subtree walk from DOC.rootrowid, in document order.
func docRowIDs(t *testing.T, s *Store, docID uint64) []ordbms.RowID {
	t.Helper()
	info, err := s.Document(docID)
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.FetchNode(info.RootRowID)
	if err != nil {
		t.Fatal(err)
	}
	var rids []ordbms.RowID
	if err := walkSubtree(root, s.FetchNode, func(n *Node, _ int) { rids = append(rids, n.RowID) }); err != nil {
		t.Fatal(err)
	}
	if int64(len(rids)) != info.NNodes {
		t.Fatalf("%s: walked %d nodes, DOC row says %d", info.FileName, len(rids), info.NNodes)
	}
	return rids
}

// (b) Crash cuts: whatever prefix of the log survives, the store opens,
// every document that has a DOC row is whole — byte-identical, every link
// consistent — every search answers, over nodes whose DOC row was cut off
// too (a document's nodes are in the log whole or not at all), the store
// takes the next document, and a second crash straight after changes
// nothing.
func TestLinkedInsertCrashCuts(t *testing.T) {
	src := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	var batch []BatchDoc
	for i := 0; i < 3; i++ {
		name, data := chaosDoc(i)
		batch = append(batch, BatchDoc{Name: name, Data: data})
	}
	batch = append(batch, longDoc("long.html", 120, "alpha"))
	name, data := chaosDoc(3)
	batch = append(batch, BatchDoc{Name: name, Data: data})
	want := make(map[string]string)
	for _, r := range s.StoreBatch(batch, 2) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want[r.Name] = reconstructBytes(t, s, r.Name)
	}
	db.CloseDiscard()
	// The documents that are the first to use some name, found by storing
	// the batch again one document at a time.
	tagRuns, ref := 0, memStore(t)
	for _, d := range batch {
		known := len(dictionary(ref))
		if _, err := ref.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
		if len(dictionary(ref)) > known {
			tagRuns++
		}
	} // nothing checkpointed: the batch exists only in the log

	wal, img := readLog(t, filepath.Join(src, "wal.nmlog"))
	data0, err := os.ReadFile(filepath.Join(src, "data.nmdb"))
	if err != nil {
		t.Fatal(err)
	}
	// Every record boundary, each as a log of exactly the records before
	// it, and the log as written cut at every frame boundary and twice
	// inside every frame: in its header and in the middle of its payload.
	cuts := append(recordCuts(img), frameCuts(wal, img)...)
	runs := bytes.Count(img.Types, []byte{9}) // walInsertRun
	// Each document: the TAG rows of the names it is the first to use (if
	// any), its nodes, then its DOC row.
	if tagRuns == 0 || runs != tagRuns+len(batch)+len(batch) {
		t.Fatalf("log holds %d run records for %d documents, %d of them with new tags; want one per document with new tags, one per document and one per DOC row", runs, len(batch), tagRuns)
	}
	const longSections = 120

	sawPartial := false
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.nmlog"), cut.log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "data.nmdb"), data0, 0o644); err != nil {
			t.Fatal(err)
		}
		var first []string
		for crash := 0; crash < 2; crash++ {
			db, err := ordbms.Open(ordbms.Options{Dir: dir})
			if err != nil {
				t.Fatalf("cut %s, open %d: %v", cut.name, crash, err)
			}
			s, err := Open(db)
			if err != nil {
				t.Fatalf("cut %s, open %d: %v", cut.name, crash, err)
			}
			docs, err := s.Documents()
			if err != nil {
				t.Fatalf("cut %s, open %d: %v", cut.name, crash, err)
			}
			var names []string
			for _, doc := range docs {
				names = append(names, doc.FileName)
				if got := reconstructBytes(t, s, doc.FileName); got != want[doc.FileName] {
					t.Fatalf("cut %s, open %d: %s is not byte-identical", cut.name, crash, doc.FileName)
				}
				checkLinks(t, s, doc)
			}
			if crash == 0 {
				first = names
			} else if strings.Join(names, ",") != strings.Join(first, ",") {
				t.Fatalf("cut %s: documents %v after the first crash, %v after the second", cut.name, first, names)
			}
			if len(docs) > 0 && len(docs) < len(batch) {
				sawPartial = true
			}
			// Searches reach nodes through the derived indexes, DOC row or
			// not: none may meet a link to a row the cut took away.
			sections := func(search func(string, int) ([]Section, error), arg, doc string) int {
				hits, err := search(arg, 0)
				if err != nil {
					t.Fatalf("cut %s, open %d: search %q: %v", cut.name, crash, arg, err)
				}
				n := 0
				for _, h := range hits {
					if strings.Contains(h.Context, doc) {
						n++
					}
				}
				return n
			}
			if n := sections(s.ContextPrefixSearchN, "Section", "long.html"); n != 0 && n != longSections {
				t.Fatalf("cut %s, open %d: %d of long.html's %d sections survive, want all or none", cut.name, crash, n, longSections)
			}
			if n := sections(s.ContentSearchN, "alpha", "long.html"); n != 0 && n != longSections {
				t.Fatalf("cut %s, open %d: content search finds %d of long.html's %d sections", cut.name, crash, n, longSections)
			}
			sections(s.ContextSearchN, "Section 7 of long.html", "long.html")
			sections(s.ContextSearchN, "Doc 1", "")
			if crash == 1 {
				// The store goes on: another long document lands (in part on
				// whatever room the cut left) and reads back whole.
				next := longDoc("next.html", 40, "omega")
				id, err := s.StoreRaw(next.Name, next.Data)
				if err != nil {
					t.Fatalf("cut %s: ingest after recovery: %v", cut.name, err)
				}
				docs, err := s.Documents()
				if err != nil {
					t.Fatalf("cut %s: %v", cut.name, err)
				}
				for _, doc := range docs {
					if doc.DocID == id {
						checkLinks(t, s, doc)
					}
				}
				if n := sections(s.ContentSearchN, "omega", "next.html"); n != 40 {
					t.Fatalf("cut %s: content search finds %d of next.html's 40 sections", cut.name, n)
				}
				if n := sections(s.ContextPrefixSearchN, "Section", "long.html"); n != 0 && n != longSections {
					t.Fatalf("cut %s: %d of long.html's sections after the next ingest", cut.name, n)
				}
			}
			db.CloseDiscard()
		}
	}
	if !sawPartial {
		t.Fatal("no cut left a proper subset of the batch: the cuts prove nothing")
	}
}

// linkWidths checks every link of document id, which is d as stored,
// against the tree d flattens to: each decodes to the node the tree
// names, and is stored near — its slot distance, one byte — exactly when
// ordbms.Near says so: its target is on the node's own page and at most
// 63 slots away.  It returns the document's RowIDs in document order, its
// near and far links, and, per link column, the far links whose target
// is on the node's own page.
func linkWidths(t *testing.T, s *Store, d BatchDoc, id uint64) (rids []ordbms.RowID, near, far int, samePageFar map[int]int) {
	t.Helper()
	tree, meta, err := docform.Convert(d.Name, d.Data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.prepareDocument(meta, tree, sgml.XMLConfig(), id, new(prepWorker))
	if err != nil {
		t.Fatal(err)
	}
	rids = docRowIDs(t, s, id) // document order, the order the tree flattens in
	if len(rids) != len(p.flat) {
		t.Fatalf("stored %d nodes, the tree flattens to %d", len(rids), len(p.flat))
	}
	ridOf := func(idx int) ordbms.RowID {
		if idx < 0 {
			return ordbms.ZeroRowID
		}
		return rids[idx]
	}
	samePageFar = make(map[int]int)
	for i, fn := range p.flat {
		row, err := ordbms.DecodeRow(p.schema, ordbms.ZeroRowID, p.recs[i]) // its links zero
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(0)
		for _, l := range []struct{ col, idx int }{
			{xmlColParentRowID, fn.parent}, {xmlColPrevRowID, fn.prev},
			{xmlColNextRowID, fn.next}, {xmlColChildRowID, fn.child},
		} {
			if l.idx < 0 {
				continue
			}
			row[l.col] = ordbms.R(rids[l.idx])
			switch {
			case ordbms.Near(rids[i], rids[l.idx]):
				mask |= 1 << l.col
				near++
			case rids[l.idx].Page == rids[i].Page:
				samePageFar[l.col]++
				far++
			default:
				far++
			}
		}
		want, _, _ := xmlSchema.EncodeOffsets(nil, nil, row, rids[i], mask)
		err = s.xml.FetchView(rids[i], func(rec []byte) error {
			if string(rec) != string(want) {
				t.Errorf("node %d at %v is stored as %x, want %x", i, rids[i], rec, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.FetchNode(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if n.ParentRowID != ridOf(fn.parent) || n.PrevRowID != ridOf(fn.prev) || n.NextRowID != ridOf(fn.next) || n.ChildRowID != ridOf(fn.child) {
			t.Fatalf("node %d at %v links %v %v %v %v, the tree says %v %v %v %v", i, rids[i],
				n.ParentRowID, n.PrevRowID, n.NextRowID, n.ChildRowID, ridOf(fn.parent), ridOf(fn.prev), ridOf(fn.next), ridOf(fn.child))
		}
	}
	return rids, near, far, samePageFar
}

// A document whose run spans pages stores each link as wide as it must
// be (see linkWidths).  Every link starts near, so a far one means the
// run was placed again after its record grew; two fresh stores still
// place the run identically.
func TestNearLinksFollowPlacement(t *testing.T) {
	d := longDoc("long.html", 150, "near")
	var placed [2][]ordbms.RowID
	for round := range placed {
		s := memStore(t)
		id, err := s.StoreRaw(d.Name, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		rids, nearLinks, farLinks, _ := linkWidths(t, s, d, id)
		pages := make(map[uint32]bool)
		for _, rid := range rids {
			pages[rid.Page] = true
		}
		if len(pages) < 3 || farLinks == 0 || nearLinks <= farLinks {
			t.Fatalf("the run spans %d pages with %d near and %d far links: want 3 or more pages, mostly near", len(pages), nearLinks, farLinks)
		}
		placed[round] = rids
	}
	if fmt.Sprint(placed[0]) != fmt.Sprint(placed[1]) {
		t.Fatal("two fresh stores placed the same document differently")
	}
}

// A link to a row on the node's own page more than 63 slots away is
// stored far.  A section holding a list of 70 items puts the list's next
// sibling 141 slots on, and the later items' parent up to 139 slots back,
// all on one page; the document reads back as it went in, in memory, from
// a snapshot and from a scan.
func TestNearLinksEndAt63Slots(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><head><title>Wide</title></head><body><h2>Wide section</h2><ul>")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "<li>item %d</li>", i)
	}
	b.WriteString("</ul><p>after the list</p></body></html>")
	d := BatchDoc{Name: "wide.html", Data: []byte(b.String())}
	want := sourceBytes(t, d)
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	id, err := s.StoreRaw(d.Name, d.Data)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, s *Store) {
		t.Helper()
		rids, near, _, samePageFar := linkWidths(t, s, d, id)
		for _, rid := range rids {
			if rid.Page != rids[0].Page {
				t.Fatalf("%s: the document spans pages %d and %d, want one", stage, rids[0].Page, rid.Page)
			}
		}
		if samePageFar[xmlColNextRowID] == 0 || samePageFar[xmlColParentRowID] == 0 || near == 0 {
			t.Fatalf("%s: %d near links, far ones on the node's own page by column %v: want a next and a parent link among them", stage, near, samePageFar)
		}
		if got := reconstructBytes(t, s, d.Name); got != want {
			t.Fatalf("%s: the document does not reconstruct as it went in", stage)
		}
	}
	check("in memory", s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []OpenOptions{{}, {DisableSnapshot: true}} {
		db, s := openDir(t, dir, opts)
		if s.SnapshotStats().Loaded == opts.DisableSnapshot {
			t.Fatalf("%+v: snapshot stats %+v", opts, s.SnapshotStats())
		}
		check(fmt.Sprintf("reopen %+v", opts), s)
		db.CloseDiscard()
	}
}

// (d) A RowID freed by a delete is never handed out again, so the next
// ingest never meets the deleted node in the cache, with readers filling
// the cache all the while.
func TestSlotReuseNeverServesStaleNode(t *testing.T) {
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableNodeCache(8 << 20)

	store := func(d BatchDoc) uint64 {
		id, err := s.StoreRaw(d.Name, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// Small documents of one shape, each stored once the one before it is
	// deleted: its nodes take new slots wherever there is room.
	docID := store(longDoc("a.html", 20, "stale"))
	var hot atomic.Pointer[[]ordbms.RowID] // what the readers hammer: the live document's RowIDs
	live := docRowIDs(t, s, docID)
	first := live
	hot.Store(&first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, rid := range *hot.Load() {
					select {
					case <-stop:
						return
					default:
					}
					// A miss, a deleted row or either document's node are all
					// fine here; the check comes once the writes are done.
					_, _ = s.FetchNode(rid)
				}
			}
		}()
	}
	reused := 0
	for round := 0; round < 30; round++ {
		if err := s.DeleteDocument(docID); err != nil {
			t.Fatal(err)
		}
		word := fmt.Sprintf("fresh%02d", round)
		docID = store(longDoc("b.html", 20, word))
		was := make(map[ordbms.RowID]bool, len(live))
		for _, rid := range live {
			was[rid] = true
		}
		live = docRowIDs(t, s, docID)
		for _, rid := range live {
			if was[rid] {
				reused++
			}
			cached, err := s.FetchNode(rid)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := s.fetchNodeUncached(rid)
			if err != nil {
				t.Fatal(err)
			}
			id, err := s.docOf(cached)
			if err != nil {
				t.Fatal(err)
			}
			if cached.Name != direct.Name || cached.Data != direct.Data || cached.DocID != direct.DocID || id != docID ||
				cached.ParentRowID != direct.ParentRowID || cached.ChildRowID != direct.ChildRowID ||
				cached.PrevRowID != direct.PrevRowID || cached.NextRowID != direct.NextRowID {
				t.Fatalf("round %d: cache serves <%s> of doc %d (%q) at %v, the table holds <%s> (%q)",
					round, cached.Name, id, cached.Data, rid, direct.Name, direct.Data)
			}
		}
		tree, err := s.Reconstruct(docID)
		if err != nil {
			t.Fatal(err)
		}
		if out := sgml.Serialize(tree); !strings.Contains(out, word) || strings.Contains(out, "stale") {
			t.Fatalf("round %d: reconstruction mixes documents", round)
		}
		next := live
		hot.Store(&next)
	}
	if reused != 0 {
		t.Fatalf("%d RowIDs of deleted documents were handed out again", reused)
	}
	close(stop)
	wg.Wait()
}
