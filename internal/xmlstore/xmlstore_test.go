package xmlstore

import (
	"fmt"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

func memStore(t testing.TB) *Store {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ingest(t testing.TB, s *Store, name, data string) uint64 {
	t.Helper()
	id, err := s.StoreRaw(name, []byte(data))
	if err != nil {
		t.Fatalf("ingest %s: %v", name, err)
	}
	return id
}

const sampleHTML = `<html><head><title>Sample Report</title></head><body>
<h1>Introduction</h1>
<p>This report describes the shuttle program status.</p>
<h2>Technology Gap</h2>
<p>The gap is shrinking across propulsion systems.</p>
<h2>Budget</h2>
<p>Funding request of $2M for cryogenic testing.</p>
</body></html>`

func TestStoreDocumentBasics(t *testing.T) {
	s := memStore(t)
	id := ingest(t, s, "sample.html", sampleHTML)
	if id == 0 {
		t.Fatal("docID must be nonzero")
	}
	info, err := s.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.FileName != "sample.html" || info.Format != "html" {
		t.Fatalf("info = %+v", info)
	}
	if info.Title != "Sample Report" {
		t.Fatalf("title = %q", info.Title)
	}
	if info.NNodes < 10 {
		t.Fatalf("nnodes = %d", info.NNodes)
	}
	if s.NumDocuments() != 1 {
		t.Fatalf("docs = %d", s.NumDocuments())
	}
}

// TestUniversalSchemaAllFormats: the Fig 5 property — every document
// type lands in the same two tables, no per-type DDL.
func TestUniversalSchemaAllFormats(t *testing.T) {
	s := memStore(t)
	inputs := map[string]string{
		"a.html":   sampleHTML,
		"b.txt":    "SUMMARY\n\nplain text report about engines\n",
		"c.rtf":    `{\rtf1 {\b Findings}\par The manifold was tested.\par}`,
		"d.csv":    "name,amount\nalpha,100\nbeta,200\n",
		"e.slides": "=== Overview\n- first point\n",
		"f.xml":    `<records><entry id="1"><field>value</field></entry></records>`,
	}
	tablesBefore := len(s.DB().TableNames())
	for name, data := range inputs {
		ingest(t, s, name, data)
	}
	if got := len(s.DB().TableNames()); got != tablesBefore {
		t.Fatalf("ingestion created tables: %d -> %d", tablesBefore, got)
	}
	if s.NumDocuments() != int64(len(inputs)) {
		t.Fatalf("docs = %d", s.NumDocuments())
	}
}

func TestNodeLinksFormAConsistentTree(t *testing.T) {
	s := memStore(t)
	id := ingest(t, s, "sample.html", sampleHTML)
	info, err := s.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.FetchNode(info.RootRowID)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "document" {
		t.Fatalf("root = %q", root.Name)
	}
	if !root.ParentRowID.IsZero() {
		t.Fatal("root must have no parent")
	}
	// Every child's parent link must point back; sibling links must be
	// mutually consistent.
	var check func(n *Node) int
	check = func(n *Node) int {
		count := 1
		child, err := s.FirstChild(n)
		if err != nil {
			t.Fatal(err)
		}
		var prev *Node
		for child != nil {
			if child.ParentRowID != n.RowID {
				t.Fatalf("child %v parent link broken", child.RowID)
			}
			if prev != nil {
				if child.PrevRowID != prev.RowID {
					t.Fatalf("prev link broken at node %v", child.RowID)
				}
				if prev.NextRowID != child.RowID {
					t.Fatalf("next link broken at node %v", prev.RowID)
				}
			} else if !child.PrevRowID.IsZero() {
				t.Fatalf("first child %v has prev link", child.RowID)
			}
			count += check(child)
			prev = child
			child, err = s.NextSibling(child)
			if err != nil {
				t.Fatal(err)
			}
		}
		return count
	}
	total := check(root)
	if int64(total) != info.NNodes {
		t.Fatalf("link-walk found %d nodes, DOC says %d", total, info.NNodes)
	}
}

func TestContextSearch(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	secs, err := s.ContextSearchN("Budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("sections = %v", secs)
	}
	if secs[0].Context != "Budget" {
		t.Fatalf("context = %q", secs[0].Context)
	}
	if !strings.Contains(secs[0].Content, "$2M") {
		t.Fatalf("content = %q", secs[0].Content)
	}
}

func TestContextSearchCaseInsensitive(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	for _, q := range []string{"budget", "BUDGET", "  Budget  "} {
		secs, err := s.ContextSearchN(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(secs) != 1 {
			t.Fatalf("ContextSearch(%q) = %d sections", q, len(secs))
		}
	}
}

func TestContextSearchAcrossDocuments(t *testing.T) {
	s := memStore(t)
	// Fig 6: a context search pulls the section from all documents.
	for i := 0; i < 5; i++ {
		ingest(t, s, fmt.Sprintf("doc%d.html", i), fmt.Sprintf(
			`<html><body><h1>Status</h1><p>status of unit %d</p><h1>Other</h1><p>x</p></body></html>`, i))
	}
	secs, err := s.ContextSearchN("Status", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 5 {
		t.Fatalf("sections = %d", len(secs))
	}
	seen := map[uint64]bool{}
	for _, sec := range secs {
		seen[sec.DocID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("documents covered = %d", len(seen))
	}
}

func TestContentSearch(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	secs, err := s.ContentSearchN("shrinking", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("sections = %v", secs)
	}
	if secs[0].Context != "Technology Gap" {
		t.Fatalf("kernel walked to wrong context: %q", secs[0].Context)
	}
}

func TestContentSearchMultiTermAND(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", `<html><body><h1>S1</h1><p>alpha beta</p><h1>S2</h1><p>alpha</p></body></html>`)
	secs, err := s.ContentSearchN("alpha beta", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].Context != "S1" {
		t.Fatalf("sections = %v", secs)
	}
}

func TestContentSearchDocs(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "one.html", `<html><body><h1>A</h1><p>shuttle engine</p></body></html>`)
	ingest(t, s, "two.html", `<html><body><h1>B</h1><p>engine only</p></body></html>`)
	ingest(t, s, "three.html", `<html><body><h1>C</h1><p>nothing relevant</p></body></html>`)
	docs, err := s.ContentSearchDocsN("engine", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	docs, err = s.ContentSearchDocsN("shuttle", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].FileName != "one.html" {
		t.Fatalf("docs = %v", docs)
	}
}

// TestCombinedSearchBothPlansAgree is the §2.1.3 example: the paper's
// Context=Technology Gap & Content=Shrinking query, verified to return
// what the heading plan (headingPlan) returns.
func TestCombinedSearchBothPlansAgree(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", sampleHTML)
	ingest(t, s, "b.html", `<html><body>
	<h2>Technology Gap</h2><p>No relevant verb here.</p>
	<h2>Schedule</h2><p>The shrinking schedule.</p></body></html>`)

	fromCtx := headingPlan(t, s, SectionQuery{Context: "Technology Gap", Content: "shrinking"})
	fromContent, err := s.collect(SectionQuery{Context: "Technology Gap", Content: "shrinking"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCtx) != 1 || len(fromContent) != 1 {
		t.Fatalf("plan results: ctx=%d content=%d", len(fromCtx), len(fromContent))
	}
	if fromCtx[0].ContextRID != fromContent[0].ContextRID {
		t.Fatal("plans returned different sections")
	}
	// And via the public entry point.
	secs, err := s.SearchN("Technology Gap", "shrinking", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || !strings.Contains(secs[0].Content, "shrinking") {
		t.Fatalf("Search = %v", secs)
	}
}

func TestSearchEmptyPredicates(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", sampleHTML)
	secs, err := s.SearchN("", "", 0)
	if err != nil || secs != nil {
		t.Fatalf("empty search: %v %v", secs, err)
	}
	secs, err = s.SearchN("Budget", "", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("context-only via Search: %v %v", secs, err)
	}
	secs, err = s.SearchN("", "shrinking", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("content-only via Search: %v %v", secs, err)
	}
}

func TestSearchNoResults(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", sampleHTML)
	secs, err := s.SearchN("Budget", "nonexistentterm", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 0 {
		t.Fatalf("expected empty, got %v", secs)
	}
	secs, err = s.ContextSearchN("No Such Heading", 0)
	if err != nil || len(secs) != 0 {
		t.Fatalf("missing context: %v %v", secs, err)
	}
}

func TestContextPrefixSearch(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", `<html><body>
	<h2>Technical Approach</h2><p>x</p>
	<h2>Technology Gap</h2><p>y</p>
	<h2>Budget</h2><p>z</p></body></html>`)
	secs, err := s.ContextPrefixSearchN("Tech", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 {
		t.Fatalf("prefix sections = %v", secs)
	}
}

func TestCSVContextSearchFindsColumns(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "budget.csv", "Project,Division,Amount\nX,Science,100\nY,Engineering,200\n")
	secs, err := s.ContextSearchN("Division", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 {
		t.Fatalf("Division sections = %d", len(secs))
	}
	values := []string{secs[0].Content, secs[1].Content}
	if values[0] != "Science" || values[1] != "Engineering" {
		t.Fatalf("values = %v", values)
	}
}

func TestRawXMLNameElementActsAsContext(t *testing.T) {
	// XMLConfig classifies <name> as CONTEXT, so a hit inside it returns
	// the record it labels — the schema-less analogue of a field lookup.
	s := memStore(t)
	ingest(t, s, "parts.xml", `<inventory><part><name>Cryo Valve</name><qty>3</qty></part></inventory>`)
	secs, err := s.ContentSearchN("valve", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("sections = %v", secs)
	}
	if secs[0].Context != "Cryo Valve" || secs[0].Content != "3" {
		t.Fatalf("section = %+v", secs[0])
	}
}

func TestRawXMLContentSearchFallback(t *testing.T) {
	// No element in the chain is classified CONTEXT: the kernel falls
	// back to reporting the parent element's subtree.
	s := memStore(t)
	ingest(t, s, "parts.xml", `<inventory><widget><label>Cryo Valve</label><qty>3</qty></widget></inventory>`)
	secs, err := s.ContentSearchN("valve", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("sections = %v", secs)
	}
	if !strings.Contains(secs[0].Content, "Cryo Valve") {
		t.Fatalf("fallback content = %q", secs[0].Content)
	}
	if secs[0].Context != "" {
		t.Fatalf("fallback should have empty context, got %q", secs[0].Context)
	}
}

// A word that occurs in two text runs of one scope no heading governs
// finds that scope once: the scope is the key row both runs post under.
func TestRawXMLContentSearchOncePerScope(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "r.xml", `<r><p>alpha <b>beta</b> alpha gamma</p></r>`)
	secs, err := s.ContentSearchN("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].Context != "" || secs[0].Content != "alpha beta alpha gamma" {
		t.Fatalf("sections = %+v", secs)
	}
}

func TestDeleteDocumentRemovesEverything(t *testing.T) {
	s := memStore(t)
	keep := ingest(t, s, "keep.html", `<html><body><h1>Keep</h1><p>shuttle keepterm</p></body></html>`)
	gone := ingest(t, s, "gone.html", `<html><body><h1>Gone</h1><p>shuttle goneterm</p></body></html>`)
	if err := s.DeleteDocument(gone); err != nil {
		t.Fatal(err)
	}
	if s.NumDocuments() != 1 {
		t.Fatalf("docs = %d", s.NumDocuments())
	}
	if _, err := s.Document(gone); err == nil {
		t.Fatal("deleted document still resolvable")
	}
	secs, err := s.ContentSearchN("goneterm", 0)
	if err != nil || len(secs) != 0 {
		t.Fatalf("deleted content still searchable: %v %v", secs, err)
	}
	secs, err = s.ContextSearchN("Gone", 0)
	if err != nil || len(secs) != 0 {
		t.Fatalf("deleted context still searchable: %v %v", secs, err)
	}
	// Survivor intact.
	secs, err = s.ContentSearchN("keepterm", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("survivor lost: %v %v", secs, err)
	}
	if _, err := s.Document(keep); err != nil {
		t.Fatal(err)
	}

	// The delete finds a document's rows by walking its links; the full
	// scan, which needs none, must agree it found them all — whatever the
	// document's shape.
	gen := corpus.New(5)
	docs := append(gen.Mixed(30), gen.DeepReports(2, 4, 8, 5)...)
	docs = append(docs, corpus.Document{Name: "flat.xml", Data: []byte(
		`<inventory site="KSC"><item id="1" kind="valve">main <b>lox</b> valve</item><item id="2"/><spare/></inventory>`)})
	for _, d := range docs {
		ingest(t, s, d.Name, string(d.Data))
	}
	for i, d := range docs {
		if i%3 != 0 && i < 30 {
			continue // a third of the mixed documents, and all of the rest
		}
		info, err := s.DocumentByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		before := s.NumNodes()
		if err := s.DeleteDocument(info.DocID); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		checkDeleted(t, s, info.DocID)
		if got := before - s.NumNodes(); got != info.NNodes {
			t.Fatalf("%s: delete removed %d rows, DOC row said %d", d.Name, got, info.NNodes)
		}
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	s := memStore(t)
	src := `<document title="R"><section><context>Alpha</context><content><para>one two</para><para attr="v">three</para></content></section></document>`
	tree, meta, err := docform.Convert("r.xml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.StoreDocument(meta, tree, sgml.XMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "document" {
		t.Fatalf("root = %s", got.Name)
	}
	if got.Find("context").Text() != "Alpha" {
		t.Fatal("context lost in round trip")
	}
	paras := got.FindAll("para")
	if len(paras) != 2 || paras[0].Text() != "one two" || paras[1].Text() != "three" {
		t.Fatalf("paras = %v", paras)
	}
	if v, _ := paras[1].Attr("attr"); v != "v" {
		t.Fatalf("attribute lost: %q", v)
	}
	if tt, _ := got.Attr("title"); tt != "R" {
		t.Fatalf("root attr lost: %q", tt)
	}
}

func TestPersistentStoreReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	id := ingest(t, s, "sample.html", sampleHTML)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	// Documents, search indexes and traversal all survive reopen.
	info, err := s2.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Title != "Sample Report" {
		t.Fatalf("title = %q", info.Title)
	}
	secs, err := s2.ContextSearchN("Budget", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("context search after reopen: %v %v", secs, err)
	}
	secs, err = s2.ContentSearchN("shrinking", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("content search after reopen: %v %v", secs, err)
	}
	tree, err := s2.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Find("context") == nil {
		t.Fatal("reconstruction broken after reopen")
	}
}

func TestAttrsEncodeDecode(t *testing.T) {
	cases := [][]sgml.Attr{
		nil,
		{{Name: "a", Value: "1"}},
		{{Name: "a", Value: `with "quotes"`}, {Name: "b", Value: "x=y"}},
		{{Name: "href", Value: "http://x/y?a=b&c=d"}},
		{{Name: "empty", Value: ""}},
	}
	for _, attrs := range cases {
		enc := encodeAttrs(attrs)
		dec := decodeAttrs(enc)
		if len(dec) != len(attrs) {
			t.Fatalf("attrs %v -> %q -> %v", attrs, enc, dec)
		}
		for i := range attrs {
			if dec[i] != attrs[i] {
				t.Fatalf("attrs %v -> %q -> %v", attrs, enc, dec)
			}
		}
	}
}

func TestStoreCorpusAndSearchSelectivity(t *testing.T) {
	s := memStore(t)
	gen := corpus.New(7)
	for _, d := range gen.Proposals(30) {
		ingest(t, s, d.Name, string(d.Data))
	}
	// Every proposal has a Budget section.
	secs, err := s.ContextSearchN("Budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 30 {
		t.Fatalf("Budget sections = %d, want 30", len(secs))
	}
	for _, sec := range secs {
		if !strings.Contains(sec.Content, "$") {
			t.Fatalf("budget section without amount: %q", sec.Content)
		}
	}
	// Combined query: Budget sections mentioning a division.
	combined, err := s.SearchN("Budget", "Science", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) == 0 || len(combined) >= 30 {
		t.Fatalf("combined selectivity off: %d of 30", len(combined))
	}
}

func TestContextHeadingsEnumeration(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", sampleHTML)
	heads := s.ContextHeadings()
	want := map[string]bool{"introduction": true, "technology gap": true, "budget": true}
	found := 0
	for _, h := range heads {
		if want[h] {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("headings = %v", heads)
	}
}

// TestNormalizeContextMatchesFormula holds normalizeContext, which builds
// a heading key in one buffer, to the formula it replaces, on corpus
// headings, Unicode spaces, case mappings that change a rune's width and
// invalid UTF-8.
func TestNormalizeContextMatchesFormula(t *testing.T) {
	inputs := []string{
		"", " ", "\t\n", "Budget", "  Technology   Gap ", "RISK\tAssessment\n",
		"a\u00a0b", "\u0085lead", "trail\u2003", "ideo\u3000graphic", "\v\fx\r",
		"ÉCOLE Normale", "İstanbul", "Ⱥ wide", "ΣΊΣΥΦΟΣ", "\ufffd literal",
		"\xff", "a\xc3", "\xed\xa0\x80 surrogate", "bad\xff\xfeTAIL", " \x80 ",
	}
	s := loadProposals(t, 4)
	if err := s.ScanNodes(func(n *Node) bool {
		if n.Class == sgml.ClassContext {
			inputs = append(inputs, n.Data, strings.ToUpper(n.Data))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, h := range inputs {
		if got, want := normalizeContext(h), strings.ToLower(strings.Join(strings.Fields(h), " ")); got != want {
			t.Fatalf("normalizeContext(%q) = %q, want %q", h, got, want)
		}
	}
}

func TestDocumentByName(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "named.html", sampleHTML)
	info, err := s.DocumentByName("named.html")
	if err != nil {
		t.Fatal(err)
	}
	if info.FileName != "named.html" {
		t.Fatalf("info = %+v", info)
	}
	if _, err := s.DocumentByName("absent.html"); err == nil {
		t.Fatal("absent name resolved")
	}
}

func TestStatsCounters(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "a.html", sampleHTML)
	docs, nodes := s.Stats()
	if docs != 1 || nodes < 10 {
		t.Fatalf("stats = %d docs %d nodes", docs, nodes)
	}
}
