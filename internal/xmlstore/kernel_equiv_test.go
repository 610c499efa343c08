package xmlstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
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

// TestKernelEquivalence proves the accelerated cold path — node cache,
// derived governing-context index, batched fetches — returns
// byte-for-byte the results of the paper's pointer-chasing kernel,
// across every query family and limit shape.
// Both configurations run against the same store (heap page placement
// uses map-ordered free-space hints, so two separately loaded stores can
// legitimately differ in physical RowIDs).
func TestKernelEquivalence(t *testing.T) {
	s := memStore(t)
	loadDeepCorpus(t, s)
	asBaseline := func() {
		s.EnableNodeCache(0)
		s.SetContextIndexEnabled(false)
	}
	asOptimized := func() {
		s.EnableNodeCache(16 << 20)
		s.SetContextIndexEnabled(true)
	}

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
		{"combined-drive-content", func(s *Store) (any, error) { return drive(s, "Budget", "request", 0, true) }},
		{"combined-drive-context", func(s *Store) (any, error) { return drive(s, "Budget", "request", 0, false) }},
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
					t.Fatalf("%s pass diverges from pointer-chasing kernel:\n got: %+v\nwant: %+v", pass, got, want)
				}
			}
			if st, ok := s.NodeCacheStats(); !ok || st.Hits == 0 {
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
		before, _ := s.NodeCacheStats()
		secs, err := s.ContentSearchN("review", 10)
		if err != nil || len(secs) != 10 {
			t.Fatalf("content=review&limit=10: %d sections, %v", len(secs), err)
		}
		after, _ := s.NodeCacheStats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	want := run() // the first execution also warms the cache
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("execution %d made %d node lookups, the first made %d", i, got, want)
		}
	}
}

// TestContextIndexMatchesWalk checks the derived node→governing-CONTEXT
// index against the pointer-chasing walk for every text node in the
// store, including after deletes force index patching.
func TestContextIndexMatchesWalk(t *testing.T) {
	s := memStore(t)
	loadDeepCorpus(t, s)

	check := func(stage string) {
		t.Helper()
		var nodes []*Node
		if err := s.ScanNodes(func(n *Node) bool {
			nodes = append(nodes, n)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			viaIdx, err := s.ContextFor(n)
			if err != nil {
				t.Fatalf("%s: ContextFor: %v", stage, err)
			}
			viaWalk, err := s.contextForWalk(n)
			if err != nil {
				t.Fatalf("%s: walk: %v", stage, err)
			}
			switch {
			case viaIdx == nil && viaWalk == nil:
			case viaIdx == nil || viaWalk == nil:
				t.Fatalf("%s: node %v: index=%v walk=%v", stage, n.RowID, viaIdx, viaWalk)
			case viaIdx.RowID != viaWalk.RowID:
				t.Fatalf("%s: node %v: index→%v walk→%v", stage, n.RowID, viaIdx.RowID, viaWalk.RowID)
			}
		}
	}
	check("after ingest")

	docs, err := s.Documents()
	if err != nil || len(docs) < 3 {
		t.Fatalf("docs: %v (%d)", err, len(docs))
	}
	if err := s.DeleteDocument(docs[1].DocID); err != nil {
		t.Fatal(err)
	}
	check("after delete")
}

// TestContextIndexRebuildOnReopen proves the governing-context index
// rebuilt by rebuildDerived on a persistent reopen (a separate
// implementation of the recurrence, driven by RowID links instead of
// flat-tree indexes) agrees with the pointer-chasing walk for every
// node — guarding the two resolver implementations against drift.
func TestContextIndexRebuildOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	loadDeepCorpus(t, s)
	want, err := s.ContentSearchN("cryogenic", 0)
	if err != nil || len(want) == 0 {
		t.Fatalf("pre-close search: %v (%d sections)", err, len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err = Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScanNodes(func(n *Node) bool {
		viaIdx, ierr := s.ContextFor(n)
		if ierr != nil {
			t.Fatalf("ContextFor: %v", ierr)
		}
		viaWalk, werr := s.contextForWalk(n)
		if werr != nil {
			t.Fatalf("walk: %v", werr)
		}
		switch {
		case viaIdx == nil && viaWalk == nil:
		case viaIdx == nil || viaWalk == nil || viaIdx.RowID != viaWalk.RowID:
			t.Fatalf("node %v: rebuilt index and walk disagree (%v vs %v)", n.RowID, viaIdx, viaWalk)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ContentSearchN("cryogenic", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reopen results diverge:\n got %d sections\nwant %d sections", len(got), len(want))
	}
}

// TestContentSearchRaceWithNodeCache hammers the accelerated kernel
// against concurrent ingest and delete with the node cache enabled.  Run
// under -race it proves the cache fill tokens and the derived-index
// patching are sound; the results themselves must only ever contain
// complete sections.
func TestContentSearchRaceWithNodeCache(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(8 << 20)
	gen := corpus.New(7)
	for _, d := range gen.DeepReports(4, 3, 4, 3) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}

	const writers, searchers, rounds = 2, 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+searchers)
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
