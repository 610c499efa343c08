package xdb

import (
	"fmt"
	"sync"
	"testing"
)

func cachedEngine(t testing.TB, capacity int64) *Engine {
	t.Helper()
	e := engine(t)
	e.EnableCache(capacity)
	return e
}

func mustExecute(t testing.TB, e *Engine, raw string) *Result {
	t.Helper()
	r, err := e.ExecuteString(raw)
	if err != nil {
		t.Fatalf("execute %q: %v", raw, err)
	}
	return r
}

func TestCacheHitMissCounters(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)

	r1 := mustExecute(t, e, "context=Introduction")
	r2 := mustExecute(t, e, "context=Introduction")
	if len(r1.Sections) != 1 || len(r2.Sections) != 1 {
		t.Fatalf("sections = %d / %d, want 1", len(r1.Sections), len(r2.Sections))
	}
	if r1 != r2 {
		t.Fatal("repeated query did not return the cached result")
	}
	st, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache reported disabled")
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 sized entry", st)
	}
}

func TestCacheInvalidatedByIngest(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)

	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 1 {
		t.Fatalf("pre-ingest sections = %d", len(got.Sections))
	}
	load(t, e, "two.html", doc2) // bumps the store generation

	got := mustExecute(t, e, "context=Introduction")
	if len(got.Sections) != 2 {
		t.Fatalf("post-ingest sections = %d, want 2 (stale cache served?)", len(got.Sections))
	}
	st, _ := e.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (ingest must invalidate)", st.Misses)
	}
}

func TestCacheInvalidatedByDelete(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)

	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 2 {
		t.Fatalf("pre-delete sections = %d", len(got.Sections))
	}
	info, err := e.Store().DocumentByName("two.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	got := mustExecute(t, e, "context=Introduction")
	if len(got.Sections) != 1 {
		t.Fatalf("post-delete sections = %d, want 1 (stale cache served?)", len(got.Sections))
	}
}

func TestCacheInvalidatedByStylesheetReregistration(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	sheet := func(tag string) string {
		return `<xsl:stylesheet><xsl:template match="/"><` + tag +
			`><xsl:value-of select="count(//result)"/></` + tag + `></xsl:template></xsl:stylesheet>`
	}
	if err := e.RegisterStylesheet("s", sheet("first")); err != nil {
		t.Fatal(err)
	}
	r := mustExecute(t, e, "context=Introduction&xslt=s")
	if r.Transformed == nil || r.Transformed.Find("first") == nil {
		t.Fatalf("first transform missing: %+v", r.Transformed)
	}
	plain := mustExecute(t, e, "context=Introduction")
	if err := e.RegisterStylesheet("s", sheet("second")); err != nil {
		t.Fatal(err)
	}
	r = mustExecute(t, e, "context=Introduction&xslt=s")
	if r.Transformed == nil || r.Transformed.Find("second") == nil {
		t.Fatal("re-registered stylesheet served a stale cached transform")
	}
	// An unstyled result does not depend on any sheet: it stays cached.
	if mustExecute(t, e, "context=Introduction") != plain {
		t.Fatal("registering a stylesheet evicted an unstyled result")
	}
}

func TestCacheEvictionRespectsByteCap(t *testing.T) {
	e := cachedEngine(t, 600) // fits only a couple of results
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)

	queries := []string{
		"context=Introduction",
		"content=shuttle",
		"content=engine",
		"context=Findings",
		"context=Technology+Gap",
	}
	for _, q := range queries {
		mustExecute(t, e, q)
	}
	st, _ := e.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 600-byte cap: %+v", st)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("cache holds %d bytes over its %d cap", st.Bytes, st.Capacity)
	}
	// Evicted entries must re-execute, not vanish.
	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 2 {
		t.Fatalf("post-eviction sections = %d", len(got.Sections))
	}
}

func TestCacheOversizedResultNotCached(t *testing.T) {
	e := cachedEngine(t, 16) // smaller than any result
	load(t, e, "one.html", doc1)
	mustExecute(t, e, "context=Introduction")
	mustExecute(t, e, "context=Introduction")
	st, _ := e.CacheStats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized result was cached: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

func TestCacheSingleflightCollapsesDuplicates(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.ExecuteString("context=Introduction")
			if err == nil && len(r.Sections) != 2 {
				err = fmt.Errorf("sections = %d", len(r.Sections))
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, _ := e.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (duplicates must collapse)", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, goroutines-1)
	}
}

// TestConcurrentStylesheetRegistrationDuringQueries exercises the
// Engine.sheets race under -race: registrations land while styled and
// plain queries execute.
func TestConcurrentStylesheetRegistrationDuringQueries(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	const sheet = `<xsl:stylesheet><xsl:template match="/">
<summary><xsl:for-each select="//result"><s><xsl:value-of select="content"/></s></xsl:for-each></summary>
</xsl:template></xsl:stylesheet>`
	if err := e.RegisterStylesheet("hot", sheet); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				name := fmt.Sprintf("sheet-%d-%d", i, j)
				if err := e.RegisterStylesheet(name, sheet); err != nil {
					errs <- err
					return
				}
				// Overwrite the shared hot sheet too.
				if err := e.RegisterStylesheet("hot", sheet); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				if _, err := e.ExecuteString("context=Introduction&xslt=hot"); err != nil {
					errs <- err
					return
				}
				if _, err := e.ExecuteString("content=shuttle"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachePerDocumentInvalidation: a write to one document must not
// invalidate cached queries that only touched other documents.  The
// cache keys fold the generations of each query's words, heading words
// included, so only queries whose words overlap the written document go
// cold.
func TestCachePerDocumentInvalidation(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)

	// Prime the cache with queries that only touch doc1.
	if got := mustExecute(t, e, "context=Technology+Gap"); len(got.Sections) != 1 {
		t.Fatalf("prime sections = %d", len(got.Sections))
	}
	if got := mustExecute(t, e, "content=shuttle"); len(got.Sections) != 1 {
		t.Fatalf("prime content sections = %d", len(got.Sections))
	}

	// Write a document sharing no headings or terms with the cached
	// queries: both must still be served from cache.
	load(t, e, "other.html", `<html><head><title>Other</title></head><body>
<h1>Logistics</h1><p>Unrelated warehouse inventory memo.</p></body></html>`)
	mustExecute(t, e, "context=Technology+Gap")
	mustExecute(t, e, "content=shuttle")
	st, _ := e.CacheStats()
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (disjoint write must not invalidate)", st.Hits)
	}

	// Delete the unrelated document: still no invalidation.
	info, err := e.Store().DocumentByName("other.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "context=Technology+Gap")
	st, _ = e.CacheStats()
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3 (disjoint delete must not invalidate)", st.Hits)
	}

	// A write that overlaps the predicate must invalidate: doc2 carries
	// the terms "technology gap".
	load(t, e, "two.html", doc2)
	if got := mustExecute(t, e, "content=technology+gap"); len(got.Sections) != 2 {
		t.Fatalf("overlap sections = %d, want 2", len(got.Sections))
	}
	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 2 {
		t.Fatalf("introduction sections = %d, want 2", len(got.Sections))
	}

	// Deleting doc1 must invalidate the queries whose results contained
	// it, even though they were cached before the delete.
	info, err = e.Store().DocumentByName("one.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	if got := mustExecute(t, e, "context=Technology+Gap"); len(got.Sections) != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", len(got.Sections))
	}
	if got := mustExecute(t, e, "content=shuttle"); len(got.Sections) != 0 {
		t.Fatalf("post-delete content sections = %d, want 0", len(got.Sections))
	}
}

// TestGenerationBumpsAfterIndexing: by the time an ingest returns, the
// store generation must be past any value a query could have snapshotted
// while the derived indexes were still missing the document — otherwise
// the cache pins an index-incomplete result under the final key.
func TestGenerationBumpsAfterIndexing(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	gen0 := e.Store().Generation()
	load(t, e, "one.html", doc1)
	if gen := e.Store().Generation(); gen <= gen0 {
		t.Fatalf("generation %d not bumped by ingest (was %d)", gen, gen0)
	}
	// A query right after ingest must see the document and be cached
	// under the post-indexing generation.
	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 1 {
		t.Fatalf("sections = %d", len(got.Sections))
	}
	if got := mustExecute(t, e, "context=Introduction"); len(got.Sections) != 1 {
		t.Fatalf("cached sections = %d", len(got.Sections))
	}
	st, _ := e.CacheStats()
	if st.Hits != 1 {
		t.Fatalf("post-ingest repeat was not a cache hit: %+v", st)
	}
}

// TestResultComputedAcrossWriteNotCached: a reader fingerprints the store
// while a heading is absent, and a write brings the heading before it
// executes.  The result must not be cached under the pre-write key, and
// that key must not come back once the heading's last bearer is deleted:
// an absent word folds the text index's counter, which only grows.
func TestResultComputedAcrossWriteNotCached(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	q, err := Parse("context=Findings")
	if err != nil {
		t.Fatal(err)
	}
	// The reader fingerprints the store, then a write lands before it
	// executes: doc2 brings the heading.
	key := e.cacheKey(q)
	load(t, e, "two.html", doc2)
	res, entry, err := e.cache.fetch(key, func() (*Result, bool, error) { return e.compute(q, key) })
	if err != nil || len(res.Sections) != 1 {
		t.Fatalf("racing reader: %v, %d sections, want 1", err, len(res.Sections))
	}
	if entry != nil {
		t.Fatal("a result computed across a write was cached under the pre-write key")
	}
	info, err := e.Store().DocumentByName("two.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	if e.cacheKey(q) == key {
		t.Fatal("the pre-write key returned once the heading vanished")
	}
	if got := mustExecute(t, e, "context=Findings"); len(got.Sections) != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", len(got.Sections))
	}
}

// TestAppearAndVanishNotCached: the heading appears and vanishes again
// while the reader executes, so the fingerprint it takes afterwards folds
// an absent heading both times.  Those two must differ, or the answer
// that saw the heading is kept and served after the delete.
func TestAppearAndVanishNotCached(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	q, err := Parse("context=Findings")
	if err != nil {
		t.Fatal(err)
	}
	key := e.cacheKey(q)
	// compute with the writes inside it: ingest, execute, delete, then
	// compute's test of whether the result may be kept.
	res, entry, err := e.cache.fetch(key, func() (*Result, bool, error) {
		load(t, e, "two.html", doc2)
		res, err := e.executeUncached(q)
		info, derr := e.Store().DocumentByName("two.html")
		if derr != nil {
			t.Fatal(derr)
		}
		if derr := e.Store().DeleteDocument(info.DocID); derr != nil {
			t.Fatal(derr)
		}
		return res, err == nil && e.cacheKey(q) == key, err
	})
	if err != nil || len(res.Sections) != 1 {
		t.Fatalf("racing reader: %v, %d sections, want 1", err, len(res.Sections))
	}
	if entry != nil {
		t.Fatal("a result that saw a vanished heading was cached")
	}
	if got := mustExecute(t, e, "context=Findings"); len(got.Sections) != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", len(got.Sections))
	}
}
