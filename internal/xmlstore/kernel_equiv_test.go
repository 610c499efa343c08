package xmlstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// loadDeepCorpus fills a store with a mixed corpus: deep XML reports
// (long sibling runs, nested blocks) plus flat HTML proposals, so the
// kernels cross both shapes.
func loadDeepCorpus(t testing.TB, s *Store) {
	t.Helper()
	gen := corpus.New(99)
	docs := append(gen.DeepReports(6, 4, 8, 5), gen.Proposals(10)...)
	for _, d := range docs {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatalf("ingest %s: %v", d.Name, err)
		}
	}
}

// TestKernelEquivalence proves the decoded-node cache changes no answer:
// with it, cold and warm, every query family and limit shape returns
// byte-for-byte what the store returns through a zero-budget cache, every
// hop decoding its page afresh.
// Both configurations run against the same store (heap page placement
// uses map-ordered free-space hints, so two separately loaded stores can
// legitimately differ in physical RowIDs).
func TestKernelEquivalence(t *testing.T) {
	s := memStore(t)
	loadDeepCorpus(t, s)
	asBaseline := func() { s.EnableNodeCache(0) }
	asOptimized := func() { s.EnableNodeCache(16 << 20) }

	type plan struct {
		name string
		run  func(s *Store) (any, error)
	}
	plans := []plan{
		{"content", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic", 0) }},
		{"content-multi", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic turbine", 0) }},
		{"content-limit", func(s *Store) (any, error) { return s.ContentSearchN("review", 5) }},
		{"context", func(s *Store) (any, error) { return s.ContextSearchN("Budget", 0) }},
		{"context-limit", func(s *Store) (any, error) { return s.ContextSearchN("Budget", 3) }},
		{"context-prefix", func(s *Store) (any, error) { return s.ContextPrefixSearchN("Tech", 0) }},
		{"context-prefix-limit", func(s *Store) (any, error) { return s.ContextPrefixSearchN("Tech", 2) }},
		{"combined", func(s *Store) (any, error) { return s.SearchN("Budget", "request", 0) }},
		{"combined-drive-content", func(s *Store) (any, error) {
			return s.collect(SectionQuery{Context: "Budget", Content: "request"})
		}},
		{"combined-drive-context", func(s *Store) (any, error) {
			return headingPlan(t, s, SectionQuery{Context: "Budget", Content: "request"}), nil
		}},
		{"docs", func(s *Store) (any, error) {
			// Project out FileDate: it is stamped with time.Now at ingest
			// and the two stores load at different instants.
			infos, err := s.ContentSearchDocsN("turbine", 0)
			if err != nil {
				return nil, err
			}
			type stable struct {
				ID     uint64
				Name   string
				Title  string
				NNodes int64
			}
			out := make([]stable, len(infos))
			for i, d := range infos {
				out[i] = stable{d.DocID, d.FileName, d.Title, d.NNodes}
			}
			return out, nil
		}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			asBaseline()
			want, err := p.run(s)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			// Run the optimized kernel twice: once cold (filling the node
			// cache) and once warm (served from it) — both must match.
			asOptimized()
			for _, pass := range []string{"cold", "warm"} {
				got, err := p.run(s)
				if err != nil {
					t.Fatalf("optimized %s: %v", pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pass diverges from the uncached kernel:\n got: %+v\nwant: %+v", pass, got, want)
				}
			}
			if st := s.NodeCacheStats(); st.Hits == 0 {
				t.Fatalf("node cache never hit during the warm pass: %+v", st)
			}
		})
	}
}

// TestSameQuerySameWork repeats one capped content query on a warm store
// and counts node-cache lookups: the pipeline pulls exactly what the
// limit needs, so every execution must do identical work.
func TestSameQuerySameWork(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(64 << 20)
	for _, d := range corpus.New(99).DeepReports(6, 4, 8, 5) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	run := func() uint64 {
		before := s.NodeCacheStats()
		secs, err := s.ContentSearchN("review", 10)
		if err != nil || len(secs) != 10 {
			t.Fatalf("content=review&limit=10: %d sections, %v", len(secs), err)
		}
		after := s.NodeCacheStats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	want := run() // the first execution also warms the cache
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("execution %d made %d node lookups, the first made %d", i, got, want)
		}
	}
}

// checkPostings holds the text index to what ingest posts: every node
// with words of its own has them posted under its section's key row — the
// heading the ContextFor walk finds, or where no heading governs it the
// element holding the text: a text node's parent, or the node itself —
// and the index holds no other posting, so none names a deleted row or
// a word its row does not hold.  The rows of document skip (0: none),
// which an interrupted delete left behind, may be posted or not.
func checkPostings(t *testing.T, stage string, s *Store, skip uint64) {
	t.Helper()
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	type posting struct {
		term string
		key  ordbms.RowID
	}
	posted := make(map[posting]bool)
	for _, n := range nodes {
		text, _ := n.OwnText()
		terms := textindex.Tokenize(text)
		if len(terms) == 0 {
			continue
		}
		ctx, err := s.ContextFor(n)
		if err != nil {
			t.Fatalf("%s: ContextFor(%v): %v", stage, n.RowID, err)
		}
		key := n.ParentRowID
		switch {
		case ctx != nil:
			key = ctx.RowID
		case n.Class != sgml.ClassText:
			key = n.RowID // an element holding its own text is its scope
		}
		for _, term := range terms {
			if id, ok := s.content.LookupIter(term).SeekGE(key.Uint64()); ok && id == key.Uint64() {
				posted[posting{term, key}] = true
				continue
			}
			if doc, err := s.docOf(n); err != nil || doc != skip {
				t.Fatalf("%s: %q of node %v is not posted under its section's key row %v (document %d, %v)", stage, term, n.RowID, key, doc, err)
			}
		}
	}
	if got := s.content.Stats().Postings; got != len(posted) {
		t.Fatalf("%s: the text index holds %d postings, %d of them stored sections' words", stage, got, len(posted))
	}
}

// TestContextIndexMatchesWalk checks the text index, which posts each
// node's words under its section's key row, against the paper's
// ContextFor walk for every node in the store, after ingest and after a
// delete removes a document's postings.
func TestContextIndexMatchesWalk(t *testing.T) {
	s := memStore(t)
	loadDeepCorpus(t, s)
	ingest(t, s, "raw.xml", `<r><p>alpha <b>beta</b> alpha gamma</p><q>delta</q></r>`)
	checkPostings(t, "after ingest", s, 0)

	docs, err := s.Documents()
	if err != nil || len(docs) < 3 {
		t.Fatalf("docs: %v (%d)", err, len(docs))
	}
	if err := s.DeleteDocument(docs[1].DocID); err != nil {
		t.Fatal(err)
	}
	checkPostings(t, "after delete", s, 0)
}

// TestContextIndexRebuildOnReopen checks the postings rebuilt on a
// persistent reopen against the ContextFor walk, after a snapshot reopen
// and after a scan reopen, whose rebuild finds each key row from the
// stored links rather than the parsed tree, and that a search answers as
// it did before the close.
func TestContextIndexRebuildOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	docs, err := s.Documents()
	if err != nil || len(docs) < 3 {
		t.Fatalf("docs: %v (%d)", err, len(docs))
	}
	if err := s.DeleteDocument(docs[1].DocID); err != nil {
		t.Fatal(err)
	}
	want, err := s.ContentSearchN("cryogenic", 0)
	if err != nil || len(want) == 0 {
		t.Fatalf("pre-close search: %v (%d sections)", err, len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := func(stage string, s *Store) {
		t.Helper()
		checkPostings(t, stage, s, 0)
		got, err := s.ContentSearchN("cryogenic", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results diverge:\n got %d sections\nwant %d sections", stage, len(got), len(want))
		}
	}
	db, s = openDir(t, dir, OpenOptions{})
	if !s.SnapshotStats().Loaded {
		t.Fatalf("snapshot not loaded: %+v", s.SnapshotStats())
	}
	reopened("snapshot reopen", s)
	db.CloseDiscard()

	db, s = openDir(t, dir, OpenOptions{DisableSnapshot: true})
	defer db.CloseDiscard()
	reopened("scan reopen", s)
}

// TestContentSearchRaceWithNodeCache hammers the accelerated kernel
// against concurrent ingest and delete with the node cache enabled, and
// small documents that land in the free space of cached pages beside
// Reconstructs of the documents that stay.  Run under -race it proves
// the lock-free page-image hops, fills published under the page latch
// and the posting removals are sound; the results themselves must only
// ever contain complete sections, and every staying document must read
// back byte for byte.
func TestContentSearchRaceWithNodeCache(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(8 << 20)
	gen := corpus.New(7)
	want := make(map[uint64]string)
	for _, d := range gen.DeepReports(4, 3, 4, 3) {
		id, err := s.StoreRaw(d.Name, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = reconstructBytes(t, s, d.Name)
	}

	const writers, searchers, readers, rounds = 2, 4, 2, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+1+searchers+readers)
	wg.Add(1)
	go func() { // small documents, stored into cached pages' free space
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			id, err := s.StoreRaw(fmt.Sprintf("small-%d.html", r),
				[]byte(fmt.Sprintf("<html><body><h1>Budget</h1><p>cryogenic review %d</p></body></html>", r)))
			if err != nil {
				errs <- err
				return
			}
			if tree, err := s.Reconstruct(id); err != nil || len(sgml.Serialize(tree)) == 0 {
				errs <- fmt.Errorf("small document %d: %v", r, err)
				return
			}
			if r%2 == 0 {
				if err := s.DeleteDocument(id); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/4; i++ {
				for id, text := range want {
					tree, err := s.Reconstruct(id)
					if err != nil {
						errs <- fmt.Errorf("reconstruct %d: %w", id, err)
						return
					}
					if got := sgml.Serialize(tree); got != text {
						errs <- fmt.Errorf("document %d reads back differently under churn", id)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := corpus.New(int64(100 + w))
			for r := 0; r < rounds; r++ {
				d := g.DeepReport(1000*w+r, 2, 3, 3)
				d.Name = fmt.Sprintf("churn-%d-%d.xml", w, r)
				id, err := s.StoreRaw(d.Name, d.Data)
				if err != nil {
					errs <- err
					return
				}
				if err := s.DeleteDocument(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < searchers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{"cryogenic", "turbine", "review", "nominal sensor"}
			for i := 0; i < rounds*4; i++ {
				secs, err := s.ContentSearchN(queries[(r+i)%len(queries)], 0)
				if err != nil {
					errs <- fmt.Errorf("search: %w", err)
					return
				}
				for _, sec := range secs {
					if sec.DocID == 0 {
						errs <- fmt.Errorf("section with zero doc id: %+v", sec)
						return
					}
				}
				if _, err := s.ContextSearchN("Budget", 0); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
