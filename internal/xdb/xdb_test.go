package xdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/xmlstore"
)

func engine(t testing.TB) *Engine {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s)
}

func load(t testing.TB, e *Engine, name, data string) {
	t.Helper()
	if _, err := e.Store().StoreRaw(name, []byte(data)); err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
}

const doc1 = `<html><head><title>Report One</title></head><body>
<h1>Introduction</h1><p>The shuttle program overview.</p>
<h2>Technology Gap</h2><p>The technology gap is shrinking fast.</p>
</body></html>`

const doc2 = `<html><head><title>Report Two</title></head><body>
<h1>Introduction</h1><p>An unrelated engine analysis.</p>
<h2>Findings</h2><p>The technology gap persists in avionics.</p>
</body></html>`

func TestParseQueryForms(t *testing.T) {
	cases := []struct {
		raw  string
		want Query
	}{
		{"context=Introduction", Query{Context: "Introduction"}},
		{"?context=Introduction", Query{Context: "Introduction"}},
		{"Content=Shuttle", Query{Content: "Shuttle"}},
		{"CONTEXT=Technology+Gap&CONTENT=Shrinking", Query{Context: "Technology Gap", Content: "Shrinking"}},
		{"context=Tech*", Query{Context: "Tech", ContextPrefix: true}},
		{"content=%22technology+gap%22", Query{Content: "technology gap", Phrase: true}},
		{"content=x&scope=document", Query{Content: "x", DocsOnly: true}},
		{"context=Budget&xslt=ibpd&limit=5", Query{Context: "Budget", XSLT: "ibpd", Limit: 5}},
	}
	for _, c := range cases {
		got, err := Parse(c.raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.raw, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"", "?", "xslt=only", "context=A&limit=-1", "context=A&limit=x",
		"context=A&scope=galaxy", "context=A&unknownparam=1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// A parameter given under two spellings of its key is refused, every
// time: Parse once ranged over the parsed map, so which spelling won
// depended on map order, and so did the result-cache key built from it.
func TestParseRefusesParameterGivenTwice(t *testing.T) {
	for _, raw := range []string{"Context=alpha&context=beta", "content=a&CONTENT=b", "xslt=a&stylesheet=b", "limit=1&Limit=1"} {
		for i := 0; i < 50; i++ {
			if q, err := Parse(raw); err == nil {
				t.Fatalf("Parse(%q) = %+v, want an error", raw, q)
			}
		}
	}
	// One spelling given twice is no ambiguity: the last value wins.
	if q, err := Parse("context=alpha&context=beta"); err != nil || q != (Query{Context: "beta"}) {
		t.Fatalf("Parse = %+v, %v", q, err)
	}
}

// context=* and content="" name no heading and no phrase: they parse to
// no predicate at all, so the parsed query encodes and parses back to
// itself.
func TestParseFoldsEmptyPredicates(t *testing.T) {
	for raw, want := range map[string]Query{
		"context=*&content=x":        {Content: "x"},
		"context=+**+&content=x":     {Content: "x"},
		"context=a&content=%22%22":   {Context: "a"},
		"context=a*&content=%22b%22": {Context: "a", ContextPrefix: true, Content: "b", Phrase: true},
	} {
		q, err := Parse(raw)
		if err != nil || q != want {
			t.Fatalf("Parse(%q) = %#v, %v, want %#v", raw, q, err, want)
		}
		if back, err := Parse(q.Encode()); err != nil || back != q {
			t.Fatalf("%q parses to %#v, which encodes as %q and parses back to %#v, %v", raw, q, q.Encode(), back, err)
		}
	}
	if q, err := Parse("context=*"); err == nil {
		t.Fatalf("Parse(context=*) = %+v: a query with no predicate", q)
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	qs := []Query{
		{Context: "Budget"},
		{Content: "shuttle engine"},
		{Context: "Tech", ContextPrefix: true, Content: "gap"},
		{Content: "exact phrase", Phrase: true, Limit: 3},
		{Content: "x", DocsOnly: true, XSLT: "sheet"},
	}
	for _, q := range qs {
		got, err := Parse(q.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip %+v -> %q -> %+v", q, q.Encode(), got)
		}
	}
}

func TestExecuteContextQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("context=Introduction")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("results = %d", r.Len())
	}
}

func TestExecuteCombinedQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	// The paper's example: Context=Technology Gap & Content=Shrinking.
	r, err := e.ExecuteString("context=Technology+Gap&content=Shrinking")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("results = %d", r.Len())
	}
	if r.Sections[0].DocName != "one.html" {
		t.Fatalf("wrong doc: %s", r.Sections[0].DocName)
	}
}

func TestExecuteDocScope(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("content=technology&scope=document")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Docs) != 2 {
		t.Fatalf("docs = %d", len(r.Docs))
	}
	if _, err := e.ExecuteString("context=A&scope=document"); err == nil {
		t.Fatal("doc scope without content accepted")
	}
}

func TestExecutePrefixQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("context=Tech*")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].Context != "Technology Gap" {
		t.Fatalf("prefix results = %v", r.Sections)
	}
	// Prefix + content residual.
	r, err = e.ExecuteString("context=Tech*&content=shrinking")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("prefix+content = %d", r.Len())
	}
	r, err = e.ExecuteString("context=Tech*&content=absentterm")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("prefix+absent = %d", r.Len())
	}
}

func TestExecutePhraseQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	// Phrase "technology gap" occurs in both docs' text, but "gap is
	// shrinking" only in one.
	r, err := e.ExecuteString(`content="gap is shrinking"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].DocName != "one.html" {
		t.Fatalf("phrase results = %v", r.Sections)
	}
	// Same words, not adjacent: no hit.
	r, err = e.ExecuteString(`content="shrinking is gap"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("non-adjacent phrase matched: %v", r.Sections)
	}
}

// TestExecuteLimit runs every query shape at limits 0, 1 and 3: a capped
// result is the prefix of the uncapped one, and the shapes that filter
// context-driven candidates stop traversing at the limit instead of
// materialising every candidate first.
func TestExecuteLimit(t *testing.T) {
	e := engine(t)
	e.Store().EnableNodeCache(8 << 20)
	for i := 0; i < 10; i++ {
		parity := "even"
		if i%2 == 1 {
			parity = "odd"
		}
		load(t, e, fmt.Sprintf("d%d.html", i), `<html><body>
<h1>Common</h1><p>text `+parity+` filler</p>
<h2>Common Ground</h2><p>the technology gap persists</p></body></html>`)
	}
	if err := e.RegisterStylesheet("plain", `<xsl:stylesheet><xsl:template match="/">
<out><xsl:for-each select="//result"><line><xsl:value-of select="context"/></line></xsl:for-each></out>
</xsl:template></xsl:stylesheet>`); err != nil {
		t.Fatal(err)
	}
	// context=Common&content=… must run with either list driving the
	// intersection: as frequent as "text" the heading's list drives, rarer
	// "odd" drives itself.
	if c, df := e.Store().ContextCount("Common"), e.Store().ContentIndex().DF("text"); c > df {
		t.Fatalf("the heading's list does not drive: %d headings, DF %d", c, df)
	}
	if c, df := e.Store().ContextCount("Common"), e.Store().ContentIndex().DF("odd"); c <= df {
		t.Fatalf("the term's list does not drive: %d headings, DF %d", c, df)
	}
	lookups := func() uint64 {
		st, _ := e.Store().NodeCacheStats()
		return st.Hits + st.Misses
	}
	for _, shape := range []struct {
		name, query string
		lazy        bool // filters context-driven candidates: must stop at the limit
	}{
		{"content", "content=text", false},
		{"context", "context=Common", false},
		{"prefix", "context=Com*", false},
		{"prefix+content", "context=Com*&content=gap", true},
		{"phrase", `content="technology gap"`, false},
		{"phrase+context", `context=Common+Ground&content="technology gap"`, true},
		{"context+content/context-plan", "context=Common&content=text", false},
		{"context+content/content-plan", "context=Common&content=odd", false},
		{"document", "content=text&scope=document", false},
		{"xslt", "context=Common&xslt=plain", false},
	} {
		var full *Result
		var fullWork uint64
		for _, limit := range []int{0, 1, 3} {
			before := lookups()
			r, err := e.ExecuteString(fmt.Sprintf("%s&limit=%d", shape.query, limit))
			if err != nil {
				t.Fatalf("%s limit %d: %v", shape.name, limit, err)
			}
			work := lookups() - before
			if limit == 0 {
				if full, fullWork = r, work; r.Len() < 4 {
					t.Fatalf("%s: %d results, too few to cap", shape.name, r.Len())
				}
				continue
			}
			if r.Len() != limit ||
				!reflect.DeepEqual(r.Sections, full.Sections[:len(r.Sections)]) ||
				!reflect.DeepEqual(r.Docs, full.Docs[:len(r.Docs)]) {
				t.Fatalf("%s limit %d: %d results, not the prefix of the uncapped %d",
					shape.name, limit, r.Len(), full.Len())
			}
			if shape.lazy && limit == 1 && work >= fullWork {
				t.Fatalf("%s: limit=1 made %d node lookups, limit=0 made %d: every candidate materialised",
					shape.name, work, fullWork)
			}
		}
	}
}

func TestExecuteWithStylesheet(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	err := e.RegisterStylesheet("report", `<xsl:stylesheet>
<xsl:template match="/">
  <report><xsl:for-each select="//result">
    <line><xsl:value-of select="context"/>: <xsl:value-of select="content"/></line>
  </xsl:for-each></report>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.ExecuteString("context=Technology+Gap&xslt=report")
	if err != nil {
		t.Fatal(err)
	}
	if r.Transformed == nil {
		t.Fatal("no transformed output")
	}
	txt := r.Transformed.Text()
	if !strings.Contains(txt, "Technology Gap") || !strings.Contains(txt, "shrinking") {
		t.Fatalf("transformed = %q", txt)
	}
	// Unregistered stylesheet errors.
	if _, err := e.ExecuteString("context=A&xslt=nope"); err == nil {
		t.Fatal("unknown stylesheet accepted")
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	r, err := e.ExecuteString("context=Introduction")
	if err != nil {
		t.Fatal(err)
	}
	wire := r.XML()
	parsed, err := ParseResultXML(serialize(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Sections) != len(r.Sections) {
		t.Fatalf("sections: %d != %d", len(parsed.Sections), len(r.Sections))
	}
	if parsed.Sections[0].Context != r.Sections[0].Context ||
		parsed.Sections[0].Content != r.Sections[0].Content ||
		parsed.Sections[0].DocName != r.Sections[0].DocName {
		t.Fatalf("round trip mismatch: %+v vs %+v", parsed.Sections[0], r.Sections[0])
	}
}

func TestResultXMLDocsRoundTrip(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	r, err := e.ExecuteString("content=shuttle&scope=document")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseResultXML(serialize(r.XML()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Docs) != 1 || parsed.Docs[0].FileName != "one.html" {
		t.Fatalf("docs round trip: %+v", parsed.Docs)
	}
}

func serialize(n *sgml.Node) string { return sgml.Serialize(n) }

func TestResultXMLEscaping(t *testing.T) {
	// Content with markup-significant characters must survive the wire
	// format round trip.
	e := engine(t)
	load(t, e, "tricky.html",
		`<html><body><h1>Formula</h1><p>a &lt; b &amp;&amp; c &gt; d "quoted"</p></body></html>`)
	r, err := e.ExecuteString("context=Formula")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sections) != 1 {
		t.Fatalf("sections = %v", r.Sections)
	}
	parsed, err := ParseResultXML(serialize(r.XML()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Sections[0].Content != r.Sections[0].Content {
		t.Fatalf("escaping broke round trip: %q vs %q",
			parsed.Sections[0].Content, r.Sections[0].Content)
	}
	if !strings.Contains(parsed.Sections[0].Content, `a < b && c > d`) {
		t.Fatalf("content = %q", parsed.Sections[0].Content)
	}
}

func TestSectionPredicates(t *testing.T) {
	sec := xmlstore.Section{Context: "Technology Gap", Content: "the gap is shrinking rapidly"}
	if !SectionMatchesContent(sec, Query{Content: "shrinking"}) {
		t.Fatal("single term")
	}
	if !SectionMatchesContent(sec, Query{Content: "gap shrinking"}) {
		t.Fatal("multi term AND")
	}
	if SectionMatchesContent(sec, Query{Content: "absent"}) {
		t.Fatal("absent term matched")
	}
	if SectionMatchesContent(sec, Query{Content: "shrink"}) {
		t.Fatal("substring must not match at word boundary")
	}
	if !SectionMatchesContent(sec, Query{Content: "is shrinking", Phrase: true}) {
		t.Fatal("phrase")
	}
	if SectionMatchesContent(sec, Query{Content: "shrinking is", Phrase: true}) {
		t.Fatal("reversed phrase matched")
	}
	// The store's tokenizer decides, not byte offsets: punctuation between
	// two words does not break a phrase, and a word is whole.
	for _, c := range []struct {
		content string
		q       Query
		want    bool
	}{
		{"technology gap, shrinking fast", Query{Content: "gap shrinking", Phrase: true}, true},
		{"liquid tanker", Query{Content: "liquid tank", Phrase: true}, false},
		{"café", Query{Content: "caf"}, false},
	} {
		if got := SectionMatchesContent(xmlstore.Section{Content: c.content}, c.q); got != c.want {
			t.Fatalf("%q in %q: matched = %v, want %v", c.q.Content, c.content, got, c.want)
		}
	}
	if !SectionMatchesContext(sec, Query{Context: "technology gap"}) {
		t.Fatal("case-insensitive context")
	}
	if !SectionMatchesContext(sec, Query{Context: "Tech", ContextPrefix: true}) {
		t.Fatal("prefix context")
	}
	if SectionMatchesContext(sec, Query{Context: "Budget"}) {
		t.Fatal("wrong context matched")
	}
}
