package xdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"sync"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/xmlstore"
)

// The differential oracle for the result cache: whatever a cached engine
// answers must be, byte for byte, what an engine without a cache answers
// over the same store.  The cache key is the only thing that decides
// whether an entry is fresh, so this is the test that fails if a write
// can change an answer without changing the key.

// diffQueries covers every query shape the key fingerprints differently.
var diffQueries = []string{
	"context=Budget",                          // exact heading, shared by many documents
	"context=Ephemeral+1",                     // exact heading that comes and goes with its last bearer
	"context=Ephemeral*",                      // prefix: keys on the store's generation
	"context=Zone*&limit=8",                   // prefix over many headings, capped
	"context=%C2%A7",                          // exact heading with no word: a posting list like any other
	"content=cryogenic",                       // one term
	"content=cryogenic+shuttle",               // several terms
	`content="was tested during the"`,         // phrase
	"context=Budget&content=relay",            // heading + terms, the term's list drives
	"context=Ephemeral+2&content=the",         // heading + terms, the heading's list drives
	"content=shuttle&scope=document",          // document scope
	"xpath=//context&limit=40",                // bare XPath: scans the documents
	"content=relay&xpath=//p&limit=6",         // XPath behind a content prefilter
	"context=Budget&xslt=brief&limit=12",      // styled
	"content=nosuchterm",                      // a term no document ever has
	"context=Ephemeral+3&content=nosuchterm",  // absent term beside a churning heading
	"context=No+Such+Heading&content=shuttle", // absent heading
}

const diffSheet = `<xsl:stylesheet><xsl:template match="/">
<brief><xsl:for-each select="//result"><item><xsl:value-of select="content"/></item></xsl:for-each></brief>
</xsl:template></xsl:stylesheet>`

// diffPool is the document set the sequences ingest from and delete
// back into: corpus documents (shared headings and terms on purpose),
// churn documents whose "Ephemeral k" headings have few bearers, so
// deletes take away the last one, and whose "§" heading has no word for
// the text index to post, and an atlas of 70 "Zone" headings, so the
// capped Zone* prefix always has more candidates than it returns.
func diffPool() []corpus.Document {
	pool := corpus.New(19).Mixed(36)
	for i := 0; i < 12; i++ {
		pool = append(pool, corpus.Document{
			Name: fmt.Sprintf("churn-%02d.html", i),
			Data: []byte(fmt.Sprintf(`<html><head><title>Churn %d</title></head><body>
<h1>Ephemeral %d</h1><p>The cryogenic shuttle relay %d was tested during the drill.</p>
<h2>Zone %03d</h2><p>Sector budget note %d.</p>
<h2>Budget</h2><p>Relay spares, lot %d.</p>
<h2>§</h2><p>Clause %d.</p></body></html>`, i, i%4, i, 100+i, i, i, i)),
		})
	}
	var atlas strings.Builder
	atlas.WriteString("<html><head><title>Atlas</title></head><body>\n")
	for z := 0; z < 70; z++ {
		fmt.Fprintf(&atlas, "<h2>Zone %03d</h2><p>Survey of sector %d.</p>\n", z, z)
	}
	atlas.WriteString("</body></html>")
	return append(pool, corpus.Document{Name: "atlas.html", Data: []byte(atlas.String())})
}

// poolQueries is diffQueries and an exact-heading query for every
// heading of the pool, whose keys each move with one heading's list.
func poolQueries(t *testing.T) []string {
	t.Helper()
	e := engine(t)
	for _, d := range diffPool() {
		load(t, e, d.Name, string(d.Data))
	}
	out := append([]string(nil), diffQueries...)
	for _, h := range e.Store().ContextHeadings() {
		out = append(out, "context="+url.QueryEscape(h))
	}
	return out
}

// diffHarness drives one store through two engines, one cached.
type diffHarness struct {
	t      *testing.T
	dir    string // "" = in-memory
	db     *ordbms.DB
	store  *xmlstore.Store
	cached *Engine
	plain  *Engine
	pool   []corpus.Document
	live   map[string]uint64 // stored documents, name → id
}

func newDiffHarness(t *testing.T, dir string) *diffHarness {
	h := &diffHarness{t: t, dir: dir, pool: diffPool(), live: make(map[string]uint64)}
	h.open()
	return h
}

// open (re)opens the store and builds fresh engines over it, as a new
// process would.
func (h *diffHarness) open() {
	h.t.Helper()
	db, err := ordbms.Open(ordbms.Options{Dir: h.dir})
	if err != nil {
		h.t.Fatal(err)
	}
	store, err := xmlstore.Open(db)
	if err != nil {
		h.t.Fatal(err)
	}
	h.db, h.store = db, store
	h.cached, h.plain = NewEngine(store), NewEngine(store)
	h.cached.EnableCache(8 << 20)
	for _, e := range []*Engine{h.cached, h.plain} {
		if err := e.RegisterStylesheet("brief", diffSheet); err != nil {
			h.t.Fatal(err)
		}
	}
}

// mutate ingests a random absent document or deletes a random stored
// one; with about half the pool stored it does either equally often.
func (h *diffHarness) mutate(rng *rand.Rand) string {
	h.t.Helper()
	d := h.pool[rng.Intn(len(h.pool))]
	_, stored := h.live[d.Name]
	return h.ensure(d.Name, !stored)
}

// ensure ingests or deletes the named pool document unless it is already
// in the wanted state.
func (h *diffHarness) ensure(name string, stored bool) string {
	h.t.Helper()
	id, ok := h.live[name]
	switch {
	case ok == stored:
		return "keep " + name
	case ok:
		if err := h.store.DeleteDocument(id); err != nil {
			h.t.Fatalf("delete %s: %v", name, err)
		}
		delete(h.live, name)
		return "delete " + name
	}
	for _, d := range h.pool {
		if d.Name == name {
			id, err := h.store.StoreRaw(d.Name, d.Data)
			if err != nil {
				h.t.Fatalf("ingest %s: %v", name, err)
			}
			h.live[name] = id
			return "ingest " + name
		}
	}
	h.t.Fatalf("no pool document %s", name)
	return ""
}

func renderQuery(e *Engine, raw string) ([]byte, error) {
	q, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = e.ExecuteInto(q, &buf)
	return buf.Bytes(), err
}

// check compares each query's cached answer with the uncached one.
func (h *diffHarness) check(when string, queries []string) {
	h.t.Helper()
	for _, raw := range queries {
		got, err := renderQuery(h.cached, raw)
		if err != nil {
			h.t.Fatalf("%s: cached %q: %v", when, raw, err)
		}
		want, err := renderQuery(h.plain, raw)
		if err != nil {
			h.t.Fatalf("%s: uncached %q: %v", when, raw, err)
		}
		if !bytes.Equal(got, want) {
			h.t.Fatalf("%s: %q: the cache answers\n%s\nthe store answers\n%s", when, raw, got, want)
		}
	}
}

func TestCacheAgreesWithUncached(t *testing.T) {
	t.Run("sequence", func(t *testing.T) {
		h := newDiffHarness(t, t.TempDir())
		rng := rand.New(rand.NewSource(7))
		const steps = 320
		for i := 0; i < steps; i++ {
			op := h.mutate(rng)
			h.check(fmt.Sprintf("step %d (%s)", i, op), diffQueries)
			if i == steps/2 {
				// A restart through the snapshot.  The generations the keys
				// fold are not in it, so every loaded term must come back
				// with one that the next write moves: the first write after
				// the load gives "Ephemeral 1", loaded with one bearer, a
				// second.
				h.ensure("churn-05.html", true)
				h.ensure("churn-01.html", false)
				if err := h.db.Close(); err != nil {
					t.Fatal(err)
				}
				h.open()
				if st := h.store.SnapshotStats(); !st.Loaded {
					t.Fatalf("reopen did not load the snapshot: %+v", st)
				}
				h.check("after reopen", diffQueries)
				h.ensure("churn-01.html", true)
				h.check("first write after reopen", diffQueries)
			}
		}
		st, _ := h.cached.CacheStats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("the sequence never exercised both a hit and a miss: %+v", st)
		}
		if err := h.db.Close(); err != nil {
			t.Fatal(err)
		}
	})

	// Readers fill the cache while a writer moves the store under them; a
	// result computed across a write must never be served once the store
	// is quiet again: with the writer stopped, every pool query's cached
	// body must be the uncached rendering.
	t.Run("concurrent", func(t *testing.T) {
		queries := poolQueries(t)
		h := newDiffHarness(t, "")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 30; i++ {
			h.mutate(rng)
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					raw := queries[i%len(queries)]
					if _, err := renderQuery(h.cached, raw); err != nil {
						t.Errorf("reader: %q: %v", raw, err)
						return
					}
				}
			}(r)
		}
		for i := 0; i < 200; i++ {
			h.mutate(rng)
		}
		// End with the churn documents gone, so the keys of absent
		// headings — the ones a vanished heading returns to — are the
		// reachable ones.
		for name := range h.live {
			if strings.HasPrefix(name, "churn-") {
				h.ensure(name, false)
			}
		}
		close(stop)
		readers.Wait()
		h.check("after the writer stopped", queries)
	})
}
