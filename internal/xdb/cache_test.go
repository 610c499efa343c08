package xdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func cachedEngine(t testing.TB, capacity int64) *Engine {
	t.Helper()
	e := engine(t)
	e.EnableCache(capacity)
	return e
}

// mustExecute runs raw through ExecuteInto, the path the result cache
// serves, and returns the response body.
func mustExecute(t testing.TB, e *Engine, raw string) string {
	t.Helper()
	body, err := renderQuery(e, raw)
	if err != nil {
		t.Fatalf("execute %q: %v", raw, err)
	}
	return string(body)
}

// sectionCount decodes a response body and counts its sections.
func sectionCount(body string) (int, error) {
	r, err := ParseResultXML(body)
	if err != nil {
		return 0, err
	}
	return len(r.Sections), nil
}

func mustSections(t testing.TB, body string) int {
	t.Helper()
	n, err := sectionCount(body)
	if err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return n
}

// mustCount runs raw through ExecuteInto and counts the sections served.
func mustCount(t testing.TB, e *Engine, raw string) int {
	t.Helper()
	return mustSections(t, mustExecute(t, e, raw))
}

func TestCacheHitMissCounters(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)

	b1 := mustExecute(t, e, "context=Introduction")
	b2 := mustExecute(t, e, "context=Introduction")
	if n1, n2 := mustSections(t, b1), mustSections(t, b2); n1 != 1 || n2 != 1 {
		t.Fatalf("sections = %d / %d, want 1", n1, n2)
	}
	if b1 != b2 {
		t.Fatalf("the hit served\n%s\nthe miss served\n%s", b2, b1)
	}
	st, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache reported disabled")
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit (repeat not served from the cache)", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 sized entry", st)
	}
}

func TestCacheInvalidatedByIngest(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)

	if got := mustCount(t, e, "context=Introduction"); got != 1 {
		t.Fatalf("pre-ingest sections = %d", got)
	}
	load(t, e, "two.html", doc2) // bumps the store generation

	if got := mustCount(t, e, "context=Introduction"); got != 2 {
		t.Fatalf("post-ingest sections = %d, want 2 (stale cache served?)", got)
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

	if got := mustCount(t, e, "context=Introduction"); got != 2 {
		t.Fatalf("pre-delete sections = %d", got)
	}
	info, err := e.Store().DocumentByName("two.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, e, "context=Introduction"); got != 1 {
		t.Fatalf("post-delete sections = %d, want 1 (stale cache served?)", got)
	}
}

func TestCacheInvalidatedByStylesheetReregistration(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	sheet := func(tag string) string {
		return `<xsl:stylesheet><xsl:template match="/"><` + tag +
			`><xsl:value-of select="//result/context"/></` + tag + `></xsl:template></xsl:stylesheet>`
	}
	if err := e.RegisterStylesheet("s", sheet("first")); err != nil {
		t.Fatal(err)
	}
	if body := mustExecute(t, e, "context=Introduction&xslt=s"); !strings.Contains(body, "<first>Introduction</first>") {
		t.Fatalf("first transform missing: %s", body)
	}
	mustExecute(t, e, "context=Introduction")
	if err := e.RegisterStylesheet("s", sheet("second")); err != nil {
		t.Fatal(err)
	}
	if body := mustExecute(t, e, "context=Introduction&xslt=s"); !strings.Contains(body, "<second>Introduction</second>") {
		t.Fatalf("re-registered stylesheet served a stale cached transform: %s", body)
	}
	// An unstyled result does not depend on any sheet: it stays cached.
	before, _ := e.CacheStats()
	mustExecute(t, e, "context=Introduction")
	if after, _ := e.CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("registering a stylesheet evicted an unstyled result: hits %d -> %d", before.Hits, after.Hits)
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
	if got := mustCount(t, e, "context=Introduction"); got != 2 {
		t.Fatalf("post-eviction sections = %d", got)
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
			body, err := renderQuery(e, "context=Introduction")
			if err == nil {
				var n int
				if n, err = sectionCount(string(body)); err == nil && n != 2 {
					err = fmt.Errorf("sections = %d", n)
				}
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
				if _, err := renderQuery(e, "context=Introduction&xslt=hot"); err != nil {
					errs <- err
					return
				}
				if _, err := renderQuery(e, "content=shuttle"); err != nil {
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
	if got := mustCount(t, e, "context=Technology+Gap"); got != 1 {
		t.Fatalf("prime sections = %d", got)
	}
	if got := mustCount(t, e, "content=shuttle"); got != 1 {
		t.Fatalf("prime content sections = %d", got)
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
	if got := mustCount(t, e, "content=technology+gap"); got != 2 {
		t.Fatalf("overlap sections = %d, want 2", got)
	}
	if got := mustCount(t, e, "context=Introduction"); got != 2 {
		t.Fatalf("introduction sections = %d, want 2", got)
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
	if got := mustCount(t, e, "context=Technology+Gap"); got != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", got)
	}
	if got := mustCount(t, e, "content=shuttle"); got != 0 {
		t.Fatalf("post-delete content sections = %d, want 0", got)
	}
}

// TestExactHeadingKeyIgnoresBodyText: an exact heading keys on its own
// posting list, so a document that only mentions the heading's word in
// its body text leaves the cached answer reachable, while one that brings
// or takes away a bearer of the heading moves the key.
func TestExactHeadingKeyIgnoresBodyText(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", `<html><body><h1>Budget</h1><p>Spares.</p></body></html>`)
	counts := func(want int, hits, misses uint64) {
		t.Helper()
		if got := mustCount(t, e, "context=Budget"); got != want {
			t.Fatalf("context=Budget: %d sections, want %d", got, want)
		}
		if st, _ := e.CacheStats(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("stats = %+v, want %d hits and %d misses", st, hits, misses)
		}
	}
	counts(1, 0, 1)
	load(t, e, "mention.html", `<html><body><h1>Notes</h1><p>The budget is tight.</p></body></html>`)
	counts(1, 1, 1)
	load(t, e, "two.html", `<html><body><h1>Budget</h1><p>Fuel.</p></body></html>`)
	counts(2, 1, 2)
	info, err := e.Store().DocumentByName("two.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	counts(1, 1, 3)
}

// TestWordlessHeadingCached: a heading with no word for the text index
// is found like any other, and a second bearer of it moves its key.
func TestWordlessHeadingCached(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", `<html><body><h1>---</h1><p>Clause one.</p></body></html>`)
	if got := mustCount(t, e, "context=---"); got != 1 {
		t.Fatalf("context=---: %d sections, want 1", got)
	}
	if got := mustCount(t, e, "context=---"); got != 1 {
		t.Fatalf("cached context=---: %d sections, want 1", got)
	}
	if st, _ := e.CacheStats(); st.Hits != 1 {
		t.Fatalf("the repeat was not a hit: %+v", st)
	}
	load(t, e, "two.html", `<html><body><h1>---</h1><p>Clause two.</p></body></html>`)
	if got := mustCount(t, e, "context=---"); got != 2 {
		t.Fatalf("context=--- after a second bearer: %d sections, want 2 (stale cache served?)", got)
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
	if got := mustCount(t, e, "context=Introduction"); got != 1 {
		t.Fatalf("sections = %d", got)
	}
	if got := mustCount(t, e, "context=Introduction"); got != 1 {
		t.Fatalf("cached sections = %d", got)
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
	key := e.cacheKey(q, e.sheets.Load())
	load(t, e, "two.html", doc2)
	body, keep, err := e.compute(q, e.sheets.Load(), key)
	if err != nil {
		t.Fatalf("racing reader: %v", err)
	}
	if n := mustSections(t, string(body)); n != 1 {
		t.Fatalf("racing reader: %d sections, want 1", n)
	}
	if keep {
		t.Fatal("a result computed across a write may be cached under the pre-write key")
	}
	info, err := e.Store().DocumentByName("two.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().DeleteDocument(info.DocID); err != nil {
		t.Fatal(err)
	}
	if e.cacheKey(q, e.sheets.Load()) == key {
		t.Fatal("the pre-write key returned once the heading vanished")
	}
	if got := mustCount(t, e, "context=Findings"); got != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", got)
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
	key := e.cacheKey(q, e.sheets.Load())
	// A miss with the writes inside it: ingest, execute and render, delete,
	// then compute's test of whether the body may be kept.
	body, err := e.cache.fetch(key, func() ([]byte, bool, error) {
		load(t, e, "two.html", doc2)
		body, _, err := e.compute(q, e.sheets.Load(), key)
		info, derr := e.Store().DocumentByName("two.html")
		if derr != nil {
			t.Fatal(derr)
		}
		if derr := e.Store().DeleteDocument(info.DocID); derr != nil {
			t.Fatal(derr)
		}
		return body, err == nil && e.cacheKey(q, e.sheets.Load()) == key, err
	})
	if err != nil {
		t.Fatalf("racing reader: %v", err)
	}
	if n := mustSections(t, string(body)); n != 1 {
		t.Fatalf("racing reader: %d sections, want 1", n)
	}
	if st, _ := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("a result that saw a vanished heading was cached: %+v", st)
	}
	if got := mustCount(t, e, "context=Findings"); got != 0 {
		t.Fatalf("post-delete sections = %d, want 0 (stale cache served?)", got)
	}
}

// TestCacheChargesBodies: the cache charges each entry exactly its key
// and body's array, and keeps no spare capacity behind a body, so after
// inserts and evictions its byte count is the sum of len(key)+len(body)
// over the resident entries, and never over the cap.
func TestCacheChargesBodies(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	queries := []string{
		"context=Introduction",
		"content=shuttle",
		"content=engine",
		"context=Findings",
		"context=Technology+Gap",
		"content=technology&scope=document",
		"context=Intro*",
		"content=%22technology+gap%22",
	}
	// Each query's key and body, from the engine before its cache is on.
	keys := make([]string, len(queries))
	bodies := make([]string, len(queries))
	largest := 0
	for i, raw := range queries {
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], bodies[i] = e.cacheKey(q, e.sheets.Load()), mustExecute(t, e, raw)
		largest = max(largest, len(keys[i])+len(bodies[i]))
	}
	capacity := int64(2 * largest) // every body fits; all of them do not
	e.EnableCache(capacity)
	// Each query runs twice in a row, a miss then a hit, and the cap
	// evicts as the rounds cycle through them.
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*len(queries); i++ {
			raw, want := queries[i/2], bodies[i/2]
			if body := mustExecute(t, e, raw); body != want {
				t.Fatalf("%q served\n%s\nwant\n%s", raw, body, want)
			}
			st, _ := e.CacheStats()
			var charged int64
			resident := 0
			e.cache.mu.Lock()
			for j, key := range keys {
				if _, ok := e.cache.entries[key]; ok {
					charged += int64(len(key) + len(bodies[j]))
					resident++
				}
			}
			e.cache.mu.Unlock()
			if st.Bytes != charged || st.Entries != resident {
				t.Fatalf("after %q: cache charges %d bytes for %d entries, want %d for %d", raw, st.Bytes, st.Entries, charged, resident)
			}
			if st.Bytes > st.Capacity {
				t.Fatalf("after %q: cache holds %d bytes over its %d cap", raw, st.Bytes, st.Capacity)
			}
		}
	}
	if st, _ := e.CacheStats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("the sequence never evicted or hit: %+v", st)
	}
}

// TestStyledResultKeyedOnItsSheets: a query keys on and is styled by one
// published set of stylesheets.  A reader that took the sheets before a
// registration styles with what it took and does not keep the body; and
// with registrations racing queries, every styled body the cache holds
// is the one the generation in its key names.  Registration g installs
// sheet g, so generation g's key must hold sheet g's output.
func TestStyledResultKeyedOnItsSheets(t *testing.T) {
	e := cachedEngine(t, 1<<20)
	load(t, e, "one.html", doc1)
	sheet := func(g int) string {
		return fmt.Sprintf(`<xsl:stylesheet><xsl:template match="/"><v%dx/></xsl:template></xsl:stylesheet>`, g)
	}
	q, err := Parse("context=Introduction&xslt=s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStylesheet("s", sheet(1)); err != nil {
		t.Fatal(err)
	}
	sheets := e.sheets.Load()
	key := e.cacheKey(q, sheets)
	if err := e.RegisterStylesheet("s", sheet(2)); err != nil {
		t.Fatal(err)
	}
	body, keep, err := e.compute(q, sheets, key)
	if err != nil || keep || !strings.Contains(string(body), "v1x") {
		t.Fatalf("a reader holding registration 1's sheets: keep %v, %v, body %s", keep, err, body)
	}
	if body := mustExecute(t, e, q.Encode()); !strings.Contains(body, "v2x") {
		t.Fatalf("after registration 2: %s", body)
	}

	const registrations = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := renderQuery(e, q.Encode()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 3; g <= registrations; g++ {
		if err := e.RegisterStylesheet("s", sheet(g)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	cached := 0
	for g := 1; g <= registrations; g++ {
		el, ok := e.cache.entries[e.cacheKey(q, &sheetSet{gen: uint64(g)})]
		if !ok {
			continue
		}
		cached++
		if body := string(el.Value.(*cacheEntry).body); !strings.Contains(body, fmt.Sprintf("v%dx", g)) {
			t.Fatalf("generation %d's key holds %s", g, body)
		}
	}
	if cached == 0 {
		t.Fatal("no styled body was cached: the race proves nothing")
	}
}
