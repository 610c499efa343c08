package webdav

import (
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// wireSheet is the stylesheet the styled query of TestWireBytesPinned
// names.
const wireSheet = `<xsl:stylesheet>
<xsl:template match="/">
  <summary><xsl:for-each select="//result"><s><xsl:value-of select="content"/></s></xsl:for-each></summary>
</xsl:template>
</xsl:stylesheet>`

// wireQueries are the /xdb query shapes TestWireBytesPinned pins: content,
// context, both, prefix, phrase, document scope and a styled query.
var wireQueries = []string{
	"content=turbine",
	"context=Budget",
	"context=Budget&content=request",
	"context=Tech*",
	"content=" + url.QueryEscape(`"cryogenic turbine"`),
	"content=budget&scope=document",
	"context=Budget&xslt=summary",
}

// The bytes the server puts on the wire are pinned: every GET /doc body
// of a fixed corpus, and the /xdb bodies of every query shape with the
// result cache off, on and missing, and on and hit.  Nothing else pins
// the indented responses: the store's format tests hash the compact
// serialization, and the load generator's body checks render with the
// server's own code.
func TestWireBytesPinned(t *testing.T) {
	const (
		wantDocs    = "0e9abeeb851b5b5ae67818babc727150608c219e06cf17893f3f70b504330762"
		wantAnswers = "6c372519c1f6e12970eb80c8598aa960b8f6e81b0e187297a7a96c93f1be55bb"
	)
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.New(1)
	for _, d := range append(g.Mixed(200), g.DeepReports(5, 6, 24, 16)...) {
		if _, err := store.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(cache bool) string {
		e := xdb.NewEngine(store)
		if cache {
			e.EnableCache(64 << 20)
		}
		if err := e.RegisterStylesheet("summary", wireSheet); err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(e, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	plain, cached := serve(false), serve(true)

	docs, err := store.Documents()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	h := sha256.New()
	for _, d := range docs {
		code, body := get(t, fmt.Sprintf("%s/doc/%d", plain, d.DocID))
		if code != 200 {
			t.Fatalf("GET /doc/%d = %d %s", d.DocID, code, body)
		}
		fmt.Fprintf(h, "%d %x\n", d.DocID, sha256.Sum256([]byte(body)))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDocs {
		t.Errorf("GET /doc bodies of %d documents hash to %s, want %s", len(docs), got, wantDocs)
	}

	h.Reset()
	for _, q := range wireQueries {
		var bodies [3]string
		for i, base := range []string{plain, cached, cached} { // off, miss, hit
			code, body := get(t, base+"/xdb?"+q)
			if code != 200 {
				t.Fatalf("GET /xdb?%s = %d %s", q, code, body)
			}
			bodies[i] = body
		}
		if bodies[1] != bodies[0] || bodies[2] != bodies[0] {
			t.Errorf("%s: the cache off, missing and hit answer differently", q)
		}
		if strings.Count(bodies[0], "\n") < 3 {
			t.Errorf("%s: answers almost nothing: %s", q, bodies[0])
		}
		fmt.Fprintf(h, "%s %x\n", q, sha256.Sum256([]byte(bodies[0])))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantAnswers {
		t.Errorf("/xdb bodies of %d queries hash to %s, want %s", len(wireQueries), got, wantAnswers)
	}
}
