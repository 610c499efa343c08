package xmlstore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"netmark/internal/corpus"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// goldenTags is the dictionary the golden records are read with: code 0
// is the <para> element, code 1 the text class, code 2 the <h2> heading.
var goldenTags = []tagPair{{sgml.ClassElement, "para"}, {sgml.ClassText, ""}, {sgml.ClassContext, "h2"}}

// goldenNode is a text leaf: it has a parent and a previous sibling, no
// next sibling, no child and no attributes, and — neither a root nor a
// heading — no docid.  Stored on page 5, beside both, it is goldenRecord.
var goldenNode = Node{
	Class: sgml.ClassText, Data: "hi",
	RowID:       ordbms.RowID{Page: 5, Slot: 4},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 3},
	PrevRowID:   ordbms.RowID{Page: 5, Slot: 2},
}

// goldenRecord is goldenNode's XML-table record as stored, byte for
// byte: 7 bytes.
const goldenRecord = "" +
	"e1" + // null bitmap, 8 columns: docid, nextrowid, childrowid and attrs (0, 5, 6, 7) are NULL
	"02" + // tag 1, the text class
	"046869" + // nodedata "hi", uvarint length<<1 first: 2, not coded
	"01" + // parentrowid, near: 5.3 is Δ = −1 from 5.4, zigzag 1
	"03" // prevrowid, near: 5.2, Δ = −2, zigzag 3; nothing follows for the three NULLs

// goldenElement is a <para> with a parent and a first child and nothing
// else: its name is the one byte of tag 0.
var goldenElement = Node{
	Class: sgml.ClassElement, Name: "para",
	RowID:       ordbms.RowID{Page: 5, Slot: 3},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 1},
	ChildRowID:  ordbms.RowID{Page: 5, Slot: 4},
}

// goldenContext is an <h2>Go</h2> heading: a heading row keeps its docid,
// as a root does, and its text, which is its text child's too, so it has
// no child row.
var goldenContext = Node{
	DocID: 7, Class: sgml.ClassContext, Name: "h2", Data: "Go",
	RowID:       ordbms.RowID{Page: 5, Slot: 1},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 0},
	NextRowID:   ordbms.RowID{Page: 5, Slot: 2},
}

// goldenFolded is a <para>hi</para> that absorbed its text child: the
// text is its own nodedata, and it has no child link.
var goldenFolded = Node{
	Class: sgml.ClassElement, Name: "para", Data: "hi",
	RowID:       ordbms.RowID{Page: 5, Slot: 3},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 1},
}

// goldenTitled is a root whose only attribute is title="…" valued as its
// DOC row's title: it stores the zero-length attrs that stands for it.
var goldenTitled = Node{
	DocID: 7, Class: sgml.ClassElement, Name: "para", Titled: true,
	RowID:      ordbms.RowID{Page: 5, Slot: 0},
	ChildRowID: ordbms.RowID{Page: 5, Slot: 1},
}

// goldenStore is a bare store holding only goldenTags.
func goldenStore() *Store {
	s := &Store{}
	s.tags.install(append([]tagPair(nil), goldenTags...))
	return s
}

// goldenRow is n's XML-table row under goldenTags, and the mask of its
// links that are stored near.
func goldenRow(t testing.TB, s *Store, n Node) (row ordbms.Row, near uint64) {
	code, ok := s.tags.known(tagPair{n.Class, n.Name})
	if !ok {
		t.Fatalf("no golden tag for %v <%s>", n.Class, n.Name)
	}
	docID := ordbms.Null()
	if n.DocID != 0 {
		docID = ordbms.I(int64(n.DocID))
	}
	row = ordbms.Row{docID, ordbms.I(code), optString(n.Data)}
	for col, link := range []ordbms.RowID{n.ParentRowID, n.PrevRowID, n.NextRowID, n.ChildRowID} {
		if link.IsZero() {
			row = append(row, ordbms.Null())
			continue
		}
		row = append(row, ordbms.R(link))
		if ordbms.Near(n.RowID, link) {
			near |= 1 << (xmlColParentRowID + col)
		}
	}
	attrs := optString(encodeAttrs(n.Attrs))
	if n.Titled {
		attrs = ordbms.S("")
	}
	return append(row, attrs), near
}

// The record format is pinned: a change to what the bytes of a stored
// node mean must show up here (and in ordbms's storeFormat) rather than
// silently misread existing stores.  A link to a row near the node on
// its own page is its slot distance, one byte; a link elsewhere is its
// slot and page; a node's class and name are its tag code; only a root
// or a heading stores its docid; an element or heading that absorbed its
// text child links to no child; a titled root stores a zero-length attrs.
func TestXMLRecordGoldenBytes(t *testing.T) {
	if sgml.ClassText != 2 || sgml.ClassElement != 1 {
		t.Fatalf("ClassText = %d, ClassElement = %d; goldenTags assumes 2 and 1", sgml.ClassText, sgml.ClassElement)
	}
	s := goldenStore()
	farParent := goldenNode
	farParent.ParentRowID = ordbms.RowID{Page: 0x0102, Slot: 3}
	for _, c := range []struct {
		name string
		n    Node
		rec  string
	}{
		{"text leaf", goldenNode, goldenRecord},
		{"far parent", farParent, "e1" + "02" + "046869" +
			"8003" + "02010000" + // parentrowid, far: slot 3 | 0x8000 big-endian, then page u32 0x0102
			"03"},
		{"element", goldenElement, "" +
			"b5" + // docid, nodedata, prevrowid, nextrowid and attrs (0, 2, 4, 5, 7) are NULL
			"00" + // tag 0, <para>
			"03" + // parentrowid, near 5.1: Δ = −2
			"02"}, // childrowid, near 5.4: Δ = +1
		{"heading", goldenContext, "" +
			"d0" + // prevrowid, childrowid and attrs (4, 6, 7) are NULL
			"0e" + // docid 7, zigzag varint
			"04" + // tag 2, <h2>
			"04476f" + // nodedata "Go"
			"01" + // parentrowid, near 5.0: Δ = −1
			"02"}, // nextrowid, near 5.2: Δ = +1
		{"folded element", goldenFolded, "" +
			"f1" + // docid, prevrowid, nextrowid, childrowid and attrs (0, 4, 5, 6, 7) are NULL
			"00" + // tag 0, <para>
			"046869" + // nodedata "hi", its text child's
			"03"}, // parentrowid, near 5.1: Δ = −2
		{"titled root", goldenTitled, "" +
			"3c" + // nodedata, parentrowid, prevrowid and nextrowid (2, 3, 4, 5) are NULL
			"0e" + // docid 7
			"00" + // tag 0, <para>
			"02" + // childrowid, near 5.1: Δ = +1
			"00"}, // attrs, zero-length: title="…" is DOC.title
	} {
		n := c.n
		row, near := goldenRow(t, s, n)
		if err := xmlSchema.Validate(row); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := xmlSchema.EncodeOffsets(nil, nil, row, n.RowID, near); hex.EncodeToString(got) != c.rec {
			t.Fatalf("%s: record of the golden node:\n got %x\nwant %s", c.name, got, c.rec)
		}
		rec, _ := hex.DecodeString(c.rec)
		back, err := ordbms.DecodeRow(xmlSchema, n.RowID, rec)
		if err != nil {
			t.Fatal(err)
		}
		// The NULLs read back as the values they stood for: no link, no text.
		got, err := s.nodeFromCols(n.RowID, back)
		if err != nil || !reflect.DeepEqual(*got, n) {
			t.Fatalf("%s: golden record decodes to %+v, %v, want %+v", c.name, got, err, n)
		}
	}
	if rec, _ := hex.DecodeString(goldenRecord); len(rec) != 7 {
		t.Fatalf("golden text leaf is %d bytes, want 7", len(rec))
	}
}

// goldenSymbols is the symbol table the coded golden record is read
// with, as the log and catalog hold it: two symbols, code 0 "h" and
// code 1 "hi".
var goldenSymbols = []byte{2, 1, 'h', 2, 'h', 'i'}

// A string is coded once its table has a symbol table, wherever that is
// shorter.  The folded <para>hi</para> stored before the XML table had
// one keeps its text raw; stored after, the text is one code.  Under the
// table both read back as the node; without it the coded record is no
// record at all.
func TestXMLRecordCodedGoldenBytes(t *testing.T) {
	st, err := ordbms.ParseSymbols(goldenSymbols)
	if err != nil {
		t.Fatal(err)
	}
	coded := xmlSchema.WithSymbols(st)
	s := goldenStore()
	row, near := goldenRow(t, s, goldenFolded)
	for _, c := range []struct {
		name   string
		schema ordbms.Schema
		rec    string
	}{
		{"raw, before the table", xmlSchema, "" +
			"f1" + // docid, prevrowid, nextrowid, childrowid and attrs (0, 4, 5, 6, 7) are NULL
			"00" + // tag 0, <para>
			"046869" + // nodedata "hi": uvarint 2<<1, not coded, then the bytes
			"03"}, // parentrowid, near 5.1: Δ = −2
		{"coded", coded, "" +
			"f1" +
			"00" +
			"0301" + // nodedata "hi": uvarint 1<<1 | 1, one byte coded, then code 1
			"03"},
	} {
		if got, _, _ := c.schema.EncodeOffsets(nil, nil, row, goldenFolded.RowID, near); hex.EncodeToString(got) != c.rec {
			t.Fatalf("%s: record of the folded <para>:\n got %x\nwant %s", c.name, got, c.rec)
		}
		rec, _ := hex.DecodeString(c.rec)
		back, err := ordbms.DecodeRow(coded, goldenFolded.RowID, rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, err := s.nodeFromCols(goldenFolded.RowID, back); err != nil || !reflect.DeepEqual(*got, goldenFolded) {
			t.Fatalf("%s: decodes to %+v, %v, want %+v", c.name, got, err, goldenFolded)
		}
		if _, err := ordbms.DecodeRow(xmlSchema, goldenFolded.RowID, rec); (err == nil) != (c.schema.Symbols() == nil) {
			t.Fatalf("%s: read with no symbol table: %v", c.name, err)
		}
	}
}

// What the ingest path stores for a leaf is what the golden test pins:
// its docid, missing links and empty strings are NULL bits, not bytes.  A
// leaf is a text node, or an element holding its text itself.
func TestIngestStoresAbsentLinksAsNull(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	ingest(t, s, "mixed.xml", `<report><para>one <b>bold</b> tail</para></report>`)
	leaves, texts := 0, 0
	err := s.ScanNodes(func(n *Node) bool {
		if _, own := n.OwnText(); !own || n.Class == sgml.ClassContext || !n.NextRowID.IsZero() || n.ParentRowID.IsZero() || n.Attrs != nil {
			return true
		}
		if n.Class == sgml.ClassText {
			texts++
		}
		leaves++
		ferr := s.xml.FetchView(n.RowID, func(rec []byte) error {
			if rec[0]&0xe1 != 0xe1 { // columns 0, 5, 6, 7
				t.Errorf("node %v: null bitmap %08b does not mark docid, next, child and attrs NULL", n.RowID, rec[0])
			}
			return nil
		})
		if ferr != nil {
			t.Error(ferr)
		}
		return true
	})
	if err != nil || texts == 0 || leaves == texts {
		t.Fatalf("scanned %d last-sibling leaves, %d of them text nodes, err %v", leaves, texts, err)
	}
}

// A heading whose only child is one text node holding exactly its text is
// stored as one row: no child link, no text row, its text its own, posted
// under its RowID like every word of its section.  Every other heading
// keeps its children, and a nested heading's text is not its parent's.
// Each document reconstructs to what was stored.
func TestFoldedHeadingHasNoChildRow(t *testing.T) {
	// The parser drops a blank text node; a converter may still build one.
	blank := sgml.NewElement("heading")
	blank.AppendChild(sgml.NewText(" "))
	for _, c := range []struct {
		heading *sgml.Node
		data    string // the CONTEXT's nodedata
		rows    int    // the heading's stored rows, its own included
		folded  bool
	}{
		{parseRoot(t, `<heading>Intro</heading>`), "Intro", 1, true},
		{parseRoot(t, `<heading id="7" class="a">Attributes</heading>`), "Attributes", 1, true},
		{parseRoot(t, `<heading>kept<!-- c --></heading>`), "kept", 1, true},
		{parseRoot(t, `<heading> Padded  text </heading>`), "Padded text", 2, false},
		{blank, "", 2, false},
		{parseRoot(t, `<heading></heading>`), "", 1, false},
		{parseRoot(t, `<heading>Mixed <b>bold</b> tail</heading>`), "Mixed bold tail", 4, false}, // <b> holds "bold"
		{parseRoot(t, `<heading>Outer <heading>Inner</heading></heading>`), "Outer", 3, false},
	} {
		tree := sgml.NewElement("report")
		tree.AppendChild(c.heading)
		tree.AppendChild(sgml.NewElement("para")).AppendChild(sgml.NewText("body words"))
		name := sgml.Serialize(c.heading)
		s := memStore(t)
		id, err := s.StoreDocument(docform.Meta{FileName: "h.xml"}, tree, sgml.XMLConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := s.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		root, err := s.FetchNode(info.RootRowID)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.FirstChild(root)
		if err != nil {
			t.Fatal(err)
		}
		text, own := h.OwnText()
		if h.Class != sgml.ClassContext || h.Data != c.data || own != c.folded || h.ChildRowID.IsZero() != (c.rows == 1) {
			t.Errorf("%s: heading row %+v, own text %q %v", name, h, text, own)
		}
		// The root, the heading's rows and the para, which holds its text.
		if want := int64(1 + c.rows + 1); info.NNodes != want || s.NumNodes() != want {
			t.Errorf("%s: %d rows, DOC says %d, want %d", name, s.NumNodes(), info.NNodes, want)
		}
		// Folded or not, a heading's words are its section's.
		for _, term := range textindex.Tokenize(c.data) {
			if id, ok := s.ContentIndex().LookupIter(term).SeekGE(h.RowID.Uint64()); !ok || id != h.RowID.Uint64() {
				t.Errorf("%s: %q is not posted under the heading %v", name, term, h.RowID)
			}
		}
		if got, want := reconstructBytes(t, s, "h.xml"), sgml.Serialize(keptTree(tree)); got != want {
			t.Errorf("%s: reconstructs as %s, want %s", name, got, want)
		}
	}
	// A folded heading inside another heading's section is that section's
	// text too.
	s := memStore(t)
	ingest(t, s, "nested.xml", `<report><heading>Outer</heading><section><heading>Inner</heading><para>body</para></section></report>`)
	if secs, err := s.ContextSearchN("Outer", 0); err != nil || len(secs) != 1 || secs[0].Content != "Inner body" {
		t.Errorf("outer section %+v, %v", secs, err)
	}
}

// An element whose only child is one non-empty text node holds the text
// itself and stores no text row, whatever its attributes and wherever it
// sits; mixed content keeps its text rows.  A root whose only attribute is
// title="…" valued as the DOC row's title stores a zero-length attrs in
// its place, and no other root does.  Each document reconstructs to what
// was stored.
func TestElementAbsorbsLoneText(t *testing.T) {
	blank := sgml.NewElement("para")
	blank.AppendChild(sgml.NewText(" \n "))
	for _, c := range []struct {
		name  string
		root  *sgml.Node
		title string // Meta.Title
		rows  int64
		text  string // the root's own text
		mark  bool   // the root stores the title marker
	}{
		{"root with a text child", parseRoot(t, `<para>only</para>`), "", 1, "only", false},
		{"attributes kept", parseRoot(t, `<report><para id="1" class="a &amp; b">x</para></report>`), "", 2, "", false},
		{"whitespace only", blank, "", 1, " \n ", false},
		{"mixed content", parseRoot(t, `<para>one <b>bold</b> tail</para>`), "", 4, "", false},
		{"title", parseRoot(t, `<document title="Report"><para>x</para></document>`), "Report", 2, "", true},
		{"title and text", parseRoot(t, `<document title="Report">x</document>`), "Report", 1, "x", true},
		{"title beside another attribute", parseRoot(t, `<document title="Report" lang="en"><para>x</para></document>`), "Report", 2, "", false},
		{"title not DOC's", parseRoot(t, `<document title="Report"><para>x</para></document>`), "Other", 2, "", false},
		{"no title attribute", parseRoot(t, `<document><para>x</para></document>`), "", 2, "", false},
	} {
		s := memStore(t)
		id, err := s.StoreDocument(docform.Meta{FileName: "e.xml", Title: c.title}, c.root, sgml.XMLConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := s.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.NNodes != c.rows || s.NumNodes() != c.rows {
			t.Errorf("%s: %d rows, DOC says %d, want %d", c.name, s.NumNodes(), info.NNodes, c.rows)
		}
		row, err := s.xml.Fetch(info.RootRowID)
		if err != nil {
			t.Fatal(err)
		}
		root, err := s.nodeFromCols(info.RootRowID, row)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := root.OwnText()
		marked := !row[xmlColAttrs].IsNull() && row[xmlColAttrs].Str == ""
		if text != c.text || marked != c.mark || root.Titled != c.mark {
			t.Errorf("%s: root holds %q, attrs column %v, Titled %v", c.name, text, row[xmlColAttrs], root.Titled)
		}
		if got, want := reconstructBytes(t, s, "e.xml"), sgml.Serialize(keptTree(c.root)); got != want {
			t.Errorf("%s: reconstructs as %s, want %s", c.name, got, want)
		}
	}
}

// parseRoot parses XML and returns its root element.
func parseRoot(t *testing.T, src string) *sgml.Node {
	t.Helper()
	doc, err := sgml.ParseString(src, sgml.ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc.FirstChild
}

// A document's docid is stored on its root and its CONTEXT rows, and on
// no other: every other row's bitmap marks it NULL.  docOf still finds
// the document of every row holding body text — the one whose DOC row
// leads to its root — by the parent links alone.
func TestDocIDStoredOncePerSection(t *testing.T) {
	s := memStore(t)
	docs := append(pinnedCorpus(),
		corpus.Document{Name: "budget.csv", Data: []byte("item,amount\ncryogenic pump,100\nturbine,200\n")},
		corpus.Document{Name: "parts.xml", Data: []byte(`<inventory><widget><label>Cryo Valve</label><qty>3</qty></widget></inventory>`)})
	for _, d := range docs {
		ingest(t, s, d.Name, string(d.Data))
	}
	infos, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	roots := make(map[ordbms.RowID]bool, len(infos))
	for _, info := range infos {
		roots[info.RootRowID] = true
	}
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, n := range nodes {
		want := roots[n.RowID] || n.Class == sgml.ClassContext
		err := s.xml.FetchView(n.RowID, func(rec []byte) error {
			if has := rec[0]&1 == 0; has != want {
				t.Errorf("%v <%s> of class %d: docid stored = %v, want %v", n.RowID, n.Name, n.Class, has, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want {
			stored++
		}
	}
	if stored*4 > len(nodes) {
		t.Fatalf("%d of %d rows store a docid: the corpus is nearly all headings", stored, len(nodes))
	}

	// bodyText is a row holding text of its own that is not a heading's.
	bodyText := func(n *Node) bool {
		_, own := n.OwnText()
		return own && n.Class != sgml.ClassContext
	}
	texts, headless := 0, 0
	for _, info := range infos {
		for _, rid := range docRowIDs(t, s, info.DocID) {
			n, err := s.FetchNode(rid)
			if err != nil {
				t.Fatal(err)
			}
			if !bodyText(n) {
				continue
			}
			texts++
			if ctx, err := s.ContextFor(n); err != nil || ctx == nil {
				headless++
			}
			if id, err := s.docOf(n); err != nil || id != info.DocID {
				t.Fatalf("text row %v of %s is in document %d (%v), want %d", rid, info.FileName, id, err, info.DocID)
			}
		}
	}
	all := 0
	for _, n := range nodes {
		if bodyText(n) {
			all++
		}
	}
	if texts != all || headless == 0 {
		t.Fatalf("the documents' walks reach %d of %d text rows, %d under no heading", texts, all, headless)
	}
}

// pinnedCorpus is the corpus whose trees and query answers are pinned
// across format changes: 630 documents of every generated type.
func pinnedCorpus() []corpus.Document {
	gen := corpus.New(1)
	return append(gen.Mixed(600), gen.DeepReports(30, 3, 8, 4)...)
}

// headingOnlyWords occur in pinnedCorpus only inside headings.
var headingOnlyWords = []string{"abstract", "facilities", "objective", "recommendation"}

// pinnedQueries is every section query shape, uncapped: single terms,
// pairs, heading-only words, phrases inside a heading and in body text,
// exact and prefix headings, and heading plus terms.
var pinnedQueries = []SectionQuery{
	{Content: "cryogenic"}, {Content: "review"}, {Content: "avionics"}, {Content: "budget"},
	{Content: "cryogenic turbine"}, {Content: "nominal sensor"}, {Content: "assessment risk"},
	{Content: headingOnlyWords[0]}, {Content: headingOnlyWords[1]}, {Content: headingOnlyWords[2]}, {Content: headingOnlyWords[3]},
	{Content: "risk assessment", Phrase: true}, {Content: "corrective action", Phrase: true}, {Content: "was tested during", Phrase: true},
	{Context: "Budget"}, {Context: "Facilities"},
	{Context: "Tech", ContextPrefix: true}, {Context: "Crit", ContextPrefix: true},
	{Context: "Budget", Content: "request"}, {Context: "Risk Assessment", Content: "assessment"}, {Context: "Abstract", Content: "cryogenic"},
}

// answerDigest hashes the answers to pinnedQueries, each as the sorted
// multiset of its sections' (DocName, Context, Content), and the
// document-scope answers to a body term and a heading-only word.
func answerDigest(t *testing.T, s *Store) string {
	t.Helper()
	h := sha256.New()
	for _, q := range pinnedQueries {
		secs, err := s.collect(q)
		if err != nil || len(secs) == 0 {
			t.Fatalf("%+v: %d sections, %v", q, len(secs), err)
		}
		rows := make([]string, len(secs))
		for i, sec := range secs {
			rows[i] = sec.DocName + "\x00" + sec.Context + "\x00" + sec.Content
		}
		sort.Strings(rows)
		fmt.Fprintf(h, "%q %q %v %v %d\n", q.Context, q.Content, q.ContextPrefix, q.Phrase, len(rows))
		for _, r := range rows {
			fmt.Fprintf(h, "%s\n", r)
		}
	}
	for _, term := range []string{"turbine", headingOnlyWords[2]} {
		docs, err := s.ContentSearchDocsN(term, 0)
		if err != nil || len(docs) == 0 {
			t.Fatalf("documents with %q: %d, %v", term, len(docs), err)
		}
		fmt.Fprintf(h, "docs %q %d\n", term, len(docs))
		for _, d := range docs {
			fmt.Fprintf(h, "%s\n", d.FileName)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// treeDigests reconstructs every document in DocID order and hashes the
// concatenated serialisations, and a sha256sum-style listing of them.
func treeDigests(t *testing.T, s *Store) (trees, listing string) {
	t.Helper()
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	all, list := sha256.New(), sha256.New()
	for _, d := range docs {
		tree, err := s.Reconstruct(d.DocID)
		if err != nil {
			t.Fatal(err)
		}
		ser := sgml.Serialize(tree)
		all.Write([]byte(ser))
		fmt.Fprintf(list, "%x  %s\n", sha256.Sum256([]byte(ser)), d.FileName)
	}
	return hex.EncodeToString(all.Sum(nil)), hex.EncodeToString(list.Sum(nil))
}

// A change of on-disk format changes no answer: every document of
// pinnedCorpus reconstructs to the same bytes, and every query shape
// returns the same sections, as built and after a snapshot reopen and a
// scan reopen — with the XML and DOC tables trained early on, so most
// of what is read is coded.  The tree digests were taken on format 8, which stored
// 22 510 nodes, before headings were folded; the answers digest when the
// text index began posting words under their section, which let the two
// two-term content queries match terms in different text runs of one
// section (46 more sections each, none lost).
func TestTreesAndAnswersPinned(t *testing.T) {
	const (
		wantTrees   = "2c149adaa53cac3a172c7f26affeca7660299b60494155ff804998ea63813088"
		wantListing = "ba9275d6e7f3d67f6cd184abb22b3e0757095eaec2299c03f5215217230a1843"
		wantAnswers = "95d1929277206e40c1d79e26682c718b830093f0cb000566eb323713f67b460c"
		// 22 510 rows less 2 890 headings folded with their text in format
		// 9, less 3 720 elements that absorbed their text child in format 10.
		wantNodes = 15900
	)
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	for i, d := range pinnedCorpus() {
		ingest(t, s, d.Name, string(d.Data))
		if i%50 == 49 { // the tables train at the first commit past their sample
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, stored, coded := db.StringStats()
	t.Logf("%d documents, %d stored nodes; strings %d B raw, %d B stored, %d tables coded", s.NumDocuments(), s.NumNodes(), raw, stored, coded)
	if coded != 2 || 2*stored > raw { // XML and DOC; TAG never holds a sample's worth
		t.Errorf("strings %d B raw, %d B stored, %d tables coded: want most of XML and DOC coded", raw, stored, coded)
	}
	if s.NumNodes() != wantNodes {
		t.Errorf("%d stored nodes, want %d", s.NumNodes(), wantNodes)
	}
	for _, w := range headingOnlyWords {
		secs, err := s.ContentSearchN(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			if !slices.Contains(textindex.Tokenize(sec.Context), w) {
				t.Fatalf("%q is not a heading-only word: it matches section %+v", w, sec)
			}
		}
	}
	check := func(stage string, s *Store) {
		t.Helper()
		if trees, listing := treeDigests(t, s); trees != wantTrees || listing != wantListing {
			t.Errorf("%s: trees %s, listing %s", stage, trees, listing)
		}
		if got := answerDigest(t, s); got != wantAnswers {
			t.Errorf("%s: answers %s", stage, got)
		}
	}
	check("as built", s)
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

// A crash after DOC and XML trained their symbol tables and stored rows
// coded with them, and before any checkpoint saved the tables, loses
// nothing: recovery puts the coded rows back, and the log gives each
// table its symbol table before DOC's indexes are rebuilt from them.
// The crash comes once with the tables only in the log, and once with a
// catalog checkpointed before they trained.
func TestReopenAfterTrainingCrash(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		db, s := openDir(t, dir, OpenOptions{})
		docs := corpus.New(1).Mixed(600)
		n, coded := 0, 0 // documents stored, and how many since DOC trained
		for ; coded < 20; n++ {
			if n == len(docs) {
				t.Fatalf("DOC untrained after %d documents", n)
			}
			if db.Table("DOC").Schema().Symbols() != nil {
				coded++
			}
			ingest(t, s, docs[n].Name, string(docs[n].Data))
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			if checkpoint && n == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if db.Table("XML").Schema().Symbols() == nil {
			t.Fatal("DOC trained before XML")
		}
		want := make([]string, n)
		for i := range want {
			want[i] = reconstructBytes(t, s, docs[i].Name)
		}
		db.CloseDiscard()
		db, s = openDir(t, dir, OpenOptions{})
		if db.Table("DOC").Schema().Symbols() == nil {
			t.Fatalf("checkpoint %v: DOC lost its symbol table", checkpoint)
		}
		for i, w := range want {
			if got := reconstructBytes(t, s, docs[i].Name); got != w {
				t.Fatalf("checkpoint %v: %s reads back as %q, want %q", checkpoint, docs[i].Name, got, w)
			}
		}
		db.CloseDiscard()
	}
}

// Each piece of the store's DDL is its own log record, so a crash can
// fall between a CreateTable and any of its CreateIndex records.  Cut a
// fresh store's log after every one of them: the store must open, take
// a document and find it by name (which needs DOC.filename's index).
func TestOpenAfterEveryDDLCut(t *testing.T) {
	src := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard()
	_, img := readLog(t, filepath.Join(src, "wal.nmlog"))
	if len(img.Types) != 2+2+1 { // two tables, DOC's two indexes, TAG
		t.Fatalf("a fresh store logs %d DDL records, want 5", len(img.Types))
	}
	for cut, log := range recordCuts(img) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.nmlog"), log.log, 0o644); err != nil {
			t.Fatal(err)
		}
		db, s := openDir(t, dir, OpenOptions{})
		name, data := chaosDoc(cut)
		if _, err := s.StoreRaw(name, data); err != nil {
			t.Fatalf("cut %d: ingest: %v", cut, err)
		}
		if _, err := s.DocumentByName(name); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if hits, err := s.ContextSearchN(fmt.Sprintf("Doc %d", cut), 0); err != nil || len(hits) != 1 {
			t.Fatalf("cut %d: context search = %v, %v", cut, hits, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// And the repaired schema persists: a clean reopen has it all.
		db, s = openDir(t, dir, OpenOptions{})
		if got := reconstructBytes(t, s, name); got == "" {
			t.Fatalf("cut %d: document empty after reopen", cut)
		}
		for _, col := range []string{"docid", "filename"} {
			if db.Table("DOC").Index(col) == nil {
				t.Fatalf("cut %d: no index on DOC.%s after reopen", cut, col)
			}
		}
		if db.Table("TAG") == nil || len(*s.tags.view.Load()) == 0 {
			t.Fatalf("cut %d: no TAG table, or an empty dictionary, after reopen", cut)
		}
		// XML rows are reached by ROWID link only.
		for _, col := range xmlSchema.Columns {
			if db.Table("XML").Index(col.Name) != nil {
				t.Fatalf("cut %d: XML.%s is indexed", cut, col.Name)
			}
		}
		db.Close()
	}
}

// Ingest writes the same bytes however it builds them: every XML and TAG
// record of a directory store fed through StoreBatch, in RowID order,
// hashes to the digest taken before ingest stopped building a Go row per
// node, and the string counters — whose raw count decides when a table
// trains its symbol table, and with it every coded record after — read
// as they did then.  The 64-document batches commit, and so train,
// between batches, so most records are coded.  The pipeline, fed the
// same documents in one run that commits every 64 of them, writes the
// same records on any number of workers: its tables train where a
// batch-at-a-time loop's commits would, whenever its fsyncs land.  DOC
// rows carry the ingest time and stay out of the digest.
func TestIngestRecordsPinned(t *testing.T) {
	const (
		wantRecords = "ad8488bc09d327d814b76818dd531e74d9881c7c39f14e12cd0ecbfd526dcd70"
		wantRaw     = 274125
		wantStored  = 133128
		wantCoded   = 2 // XML and DOC; TAG never holds a sample's worth
	)
	g := corpus.New(1)
	var docs []BatchDoc
	for _, d := range append(g.Mixed(300), g.DeepReports(2, 6, 24, 16)...) {
		docs = append(docs, BatchDoc{Name: d.Name, Data: d.Data})
	}
	check := func(t *testing.T, db *ordbms.DB) {
		h := sha256.New()
		for _, name := range []string{"XML", "TAG"} {
			tbl := db.Table(name)
			var rids []ordbms.RowID
			if err := tbl.Scan(func(rid ordbms.RowID, _ ordbms.Row) bool {
				rids = append(rids, rid)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(rids, func(a, b ordbms.RowID) int { return cmp.Compare(a.Uint64(), b.Uint64()) })
			fmt.Fprintf(h, "%s %d\n", name, len(rids))
			for _, rid := range rids {
				if err := tbl.FetchView(rid, func(rec []byte) error {
					fmt.Fprintf(h, "%v %d ", rid, len(rec))
					h.Write(rec)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		raw, stored, coded := db.StringStats()
		if got := hex.EncodeToString(h.Sum(nil)); got != wantRecords {
			t.Errorf("records hash to %s, want %s", got, wantRecords)
		}
		if raw != wantRaw || stored != wantStored || coded != wantCoded {
			t.Errorf("strings %d B raw, %d B stored, %d tables coded; want %d, %d, %d", raw, stored, coded, wantRaw, wantStored, wantCoded)
		}
	}
	t.Run("batches", func(t *testing.T) {
		db, s := openDir(t, t.TempDir(), OpenOptions{})
		defer db.CloseDiscard()
		storeBatches(t, s, docs, 64)
		check(t, db)
	})
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("pipeline/workers=%d", workers), func(t *testing.T) {
			db, s := openDir(t, t.TempDir(), OpenOptions{})
			defer db.CloseDiscard()
			storeChunks(t, s, docs, workers, 64)
			check(t, db)
		})
	}
}

// storeBatches stores docs a chunk at a time, each chunk one StoreBatch
// on two workers and so one commit, and fails t on any document's error.
func storeBatches(t *testing.T, s *Store, docs []BatchDoc, chunk int) {
	t.Helper()
	for start := 0; start < len(docs); start += chunk {
		for _, r := range s.StoreBatch(docs[start:min(start+chunk, len(docs))], 2) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
		}
	}
}

// storeChunks runs docs through the pipeline in one run, committing
// every chunk of them, and fails t on any document's error or on results
// reported out of order.
func storeChunks(t *testing.T, s *Store, docs []BatchDoc, workers, chunk int) {
	t.Helper()
	next := 0
	s.StoreChunks(len(docs), workers, chunk,
		func(i int) (BatchDoc, error) { return docs[i], nil },
		func(first int, rs []BatchResult) {
			if first != next || len(rs) != min(chunk, len(docs)-first) {
				t.Errorf("results for %d documents from %d, want %d from %d", len(rs), first, min(chunk, len(docs)-next), next)
			}
			next = first + len(rs)
			for _, r := range rs {
				if r.Err != nil {
					t.Errorf("%s: %v", r.Name, r.Err)
				}
			}
		})
	if next != len(docs) {
		t.Fatalf("results reported for %d of %d documents", next, len(docs))
	}
}

// The pipeline writes a store byte-identical to a loop that stores and
// commits one chunk at a time: the same data file, catalog, log and
// derived snapshot after a clean close, whatever the chunk size — one
// document, 64, or all of them.  It holds because the tables train on
// the writer at each chunk's end, where the loop's commits train, and
// the writer encodes again a document prepared before its table trained.
func TestPipelineMatchesChunkLoop(t *testing.T) {
	var docs []BatchDoc
	for _, d := range corpus.New(1).Mixed(300) {
		docs = append(docs, BatchDoc{Name: d.Name, Data: d.Data})
	}
	// DOC rows are stamped with the ingest time: both stores get the same.
	stamp := time.Unix(1_700_000_000, 0)
	ingest := func(t *testing.T, run func(s *Store)) map[string][]byte {
		dir := t.TempDir()
		db, s := openDir(t, dir, OpenOptions{})
		s.now = func() time.Time { return stamp }
		run(s)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	for _, chunk := range []int{1, 64, 300} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			want := ingest(t, func(s *Store) { storeBatches(t, s, docs, chunk) })
			got := ingest(t, func(s *Store) { storeChunks(t, s, docs, 2, chunk) })
			if len(want) != 4 || len(got) != len(want) {
				t.Fatalf("the stores hold %d and %d files, want 4 each", len(want), len(got))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("%s: the pipeline's %d bytes differ from the chunk loop's %d", name, len(got[name]), len(b))
				}
			}
		})
	}
}
