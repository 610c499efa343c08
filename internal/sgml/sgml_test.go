package sgml

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string, mode Mode) *Node {
	t.Helper()
	doc, err := ParseString(src, mode)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return doc
}

func TestParseSimpleXML(t *testing.T) {
	doc := mustParse(t, `<doc><title>Hello</title><body>World</body></doc>`, ModeXML)
	root := doc.FirstChild
	if root == nil || root.Name != "doc" {
		t.Fatalf("root = %v", root)
	}
	title := root.Find("title")
	if title == nil || title.Text() != "Hello" {
		t.Fatalf("title = %v", title)
	}
	if got := doc.Find("body").Text(); got != "World" {
		t.Fatalf("body text = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<a href="http://x" id='i1' flag data-n="5&amp;6">t</a>`, ModeXML)
	a := doc.FirstChild
	if v, ok := a.Attr("href"); !ok || v != "http://x" {
		t.Fatalf("href = %q %v", v, ok)
	}
	if v, _ := a.Attr("id"); v != "i1" {
		t.Fatalf("id = %q", v)
	}
	if _, ok := a.Attr("flag"); !ok {
		t.Fatal("bare attribute lost")
	}
	if v, _ := a.Attr("data-n"); v != "5&6" {
		t.Fatalf("entity in attribute: %q", v)
	}
}

func TestParseSelfClosingAndNesting(t *testing.T) {
	doc := mustParse(t, `<r><leaf/><mid><inner>x</inner></mid></r>`, ModeXML)
	r := doc.FirstChild
	kids := r.ChildElements()
	if len(kids) != 2 || kids[0].Name != "leaf" || kids[1].Name != "mid" {
		t.Fatalf("children = %v", kids)
	}
	if kids[0].FirstChild != nil {
		t.Fatal("self-closing element has children")
	}
}

func TestParseEntitiesInText(t *testing.T) {
	doc := mustParse(t, `<t>a &lt; b &amp;&amp; c &gt; d &#65; &#x42; &nbsp;e &unknown; f</t>`, ModeXML)
	got := doc.FirstChild.Text()
	want := "a < b && c > d A B e &unknown; f"
	if got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

func TestParseCommentDoctypePI(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><!DOCTYPE doc><!-- note --><doc/>`, ModeXML)
	kinds := []NodeKind{}
	for c := doc.FirstChild; c != nil; c = c.NextSibling {
		kinds = append(kinds, c.Kind)
	}
	want := []NodeKind{ProcInstNode, DoctypeNode, CommentNode, ElementNode}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

// A processing instruction ends at the first "?>" after its "<?": "<?>"
// is an unterminated one, not a slice of its own opener.
func TestParseShortProcInst(t *testing.T) {
	for src, want := range map[string][2]string{
		`<?>`:           {"", ">"},
		`<??><d/>`:      {"", ""},
		`<?pi x?><d/>`:  {"pi", "x"},
		`<?>?><d/>`:     {">", ""},
		`<?pi?> <doc/>`: {"pi", ""},
	} {
		doc := mustParse(t, src, ModeXML)
		pi := doc.FirstChild
		if pi == nil || pi.Kind != ProcInstNode || pi.Name != want[0] || pi.Data != want[1] {
			t.Errorf("%q: first node %+v, want PI %q %q", src, pi, want[0], want[1])
		}
	}
}

func TestParseCDATA(t *testing.T) {
	doc := mustParse(t, `<t><![CDATA[<not> & markup]]></t>`, ModeXML)
	if got := doc.FirstChild.Text(); got != "<not> & markup" {
		t.Fatalf("cdata text = %q", got)
	}
}

func TestParseHTMLVoidElements(t *testing.T) {
	doc := mustParse(t, `<p>one<br>two<img src="x">three</p>`, ModeHTML)
	p := doc.FirstChild
	if p.Name != "p" {
		t.Fatalf("root = %v", p.Name)
	}
	if got := p.Text(); got != "one two three" {
		t.Fatalf("text = %q", got)
	}
	br := p.Find("br")
	if br == nil || br.FirstChild != nil {
		t.Fatal("void element swallowed content")
	}
}

func TestParseHTMLImpliedEndTags(t *testing.T) {
	doc := mustParse(t, `<ul><li>one<li>two<li>three</ul><p>a<p>b`, ModeHTML)
	ul := doc.FirstChild
	lis := ul.FindAll("li")
	if len(lis) != 3 {
		t.Fatalf("lis = %d", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if lis[i].Text() != want {
			t.Fatalf("li[%d] = %q", i, lis[i].Text())
		}
		if lis[i].Parent != ul {
			t.Fatalf("li[%d] nested inside %v", i, lis[i].Parent.Name)
		}
	}
	ps := doc.FindAll("p")
	if len(ps) != 2 || ps[0].Text() != "a" || ps[1].Text() != "b" {
		t.Fatalf("paragraphs = %v", ps)
	}
}

func TestParseHTMLCaseFolding(t *testing.T) {
	doc := mustParse(t, `<DIV CLASS="Big"><H1>T</H1></DIV>`, ModeHTML)
	div := doc.FirstChild
	if div.Name != "div" {
		t.Fatalf("name = %q", div.Name)
	}
	if v, _ := div.Attr("class"); v != "Big" {
		t.Fatalf("attribute value must keep case: %q", v)
	}
	if doc.Find("h1") == nil {
		t.Fatal("H1 not folded")
	}
}

func TestParseHTMLHeadingClosesParagraph(t *testing.T) {
	doc := mustParse(t, `<p>intro<h2>Heading</h2><p>body`, ModeHTML)
	h2 := doc.Find("h2")
	if h2 == nil {
		t.Fatal("h2 missing")
	}
	if h2.Parent.Kind != DocumentNode {
		t.Fatalf("h2 nested in %v, should be top-level", h2.Parent.Name)
	}
}

func TestParseRecoversFromUnclosedElements(t *testing.T) {
	doc := mustParse(t, `<a><b><c>deep`, ModeXML)
	if doc.Find("c") == nil || doc.Find("c").Text() != "deep" {
		t.Fatal("unclosed elements lost content")
	}
}

func TestParseIgnoresUnmatchedEndTags(t *testing.T) {
	doc := mustParse(t, `<a>x</b></zz>y</a>`, ModeXML)
	a := doc.FirstChild
	if a.Text() != "x y" && a.Text() != "xy" {
		t.Fatalf("text = %q", a.Text())
	}
}

func TestParseStrayLessThan(t *testing.T) {
	doc := mustParse(t, `<t>3 < 5 and 2 <= 4</t>`, ModeXML)
	got := doc.FirstChild.Text()
	if !strings.Contains(got, "3 < 5") {
		t.Fatalf("stray < mangled: %q", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	srcs := []string{
		`<doc><title>Hello &amp; welcome</title><s a="1"/></doc>`,
		`<r><x>1</x><y attr="v&quot;q">2</y><z/></r>`,
		`<outer><inner>text with &lt;angle&gt;</inner></outer>`,
	}
	for _, src := range srcs {
		doc1 := mustParse(t, src, ModeXML)
		out := Serialize(doc1)
		doc2 := mustParse(t, out, ModeXML)
		if !treeEqual(doc1, doc2) {
			t.Fatalf("round trip changed tree:\n src=%s\n out=%s", src, out)
		}
	}
}

func treeEqual(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	ca, cb := a.Children(), b.Children()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if !treeEqual(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

// Property: serialising any generated tree and re-parsing it yields an
// equivalent tree (print/parse round trip on the XML dialect).
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	names := []string{"a", "b", "sec", "title", "item"}
	texts := []string{"hello", "x < y", "a & b", "tail>", `"quoted"`, "plain text"}
	type genSpec struct {
		Shape []uint8
	}
	f := func(spec genSpec) bool {
		// Build a deterministic tree from the shape bytes.
		doc := &Node{Kind: DocumentNode, Name: "#document"}
		root := NewElement("root")
		doc.AppendChild(root)
		cur := root
		for _, b := range spec.Shape {
			switch b % 4 {
			case 0:
				el := NewElement(names[int(b/4)%len(names)])
				cur.AppendChild(el)
				cur = el
			case 1:
				cur.AppendChild(NewText(texts[int(b/4)%len(texts)]))
			case 2:
				if cur.Parent != nil && cur != root {
					cur = cur.Parent
				}
			case 3:
				el := NewElement(names[int(b/4)%len(names)])
				el.SetAttr("k", texts[int(b/4)%len(texts)])
				cur.AppendChild(el)
			}
		}
		out := Serialize(doc)
		re, err := ParseString(out, ModeXML)
		if err != nil {
			return false
		}
		// Text merging may join adjacent text nodes; compare text and
		// element structure instead of exact tree equality.
		return canonical(doc) == canonical(re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// canonical produces a structure string that is invariant under adjacent
// text-node merging.
func canonical(n *Node) string {
	var sb strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		switch x.Kind {
		case DocumentNode:
			for c := x.FirstChild; c != nil; c = c.NextSibling {
				walk(c)
			}
		case ElementNode:
			sb.WriteString("<" + x.Name)
			for _, a := range x.Attrs {
				sb.WriteString(" " + a.Name + "=" + a.Value)
			}
			sb.WriteString(">")
			// Merge adjacent text children.
			var txt strings.Builder
			flush := func() {
				if txt.Len() > 0 {
					sb.WriteString("[" + txt.String() + "]")
					txt.Reset()
				}
			}
			for c := x.FirstChild; c != nil; c = c.NextSibling {
				if c.Kind == TextNode {
					txt.WriteString(c.Data)
					continue
				}
				flush()
				walk(c)
			}
			flush()
			sb.WriteString("</" + x.Name + ">")
		case TextNode:
			sb.WriteString("[" + x.Data + "]")
		}
	}
	walk(n)
	return sb.String()
}

func TestNodeTreeSurgery(t *testing.T) {
	root := NewElement("root")
	a := root.AppendChild(NewElement("a"))
	b := root.AppendChild(NewElement("b"))
	c := root.AppendChild(NewElement("c"))
	if a.NextSibling != b || b.NextSibling != c || c.PrevSibling != b {
		t.Fatal("sibling links broken")
	}
	root.RemoveChild(b)
	if a.NextSibling != c || c.PrevSibling != a {
		t.Fatal("remove did not relink")
	}
	if b.Parent != nil {
		t.Fatal("removed node keeps parent")
	}
	root.RemoveChild(a)
	root.RemoveChild(c)
	if root.FirstChild != nil || root.LastChild != nil {
		t.Fatal("empty root keeps children")
	}
}

func TestNodeClone(t *testing.T) {
	doc := mustParse(t, `<d><s a="1">x<i>y</i></s></d>`, ModeXML)
	cp := doc.Clone()
	if !treeEqual(doc, cp) {
		t.Fatal("clone differs")
	}
	// Mutating the clone must not affect the original.
	cp.Find("s").SetAttr("a", "2")
	if v, _ := doc.Find("s").Attr("a"); v != "1" {
		t.Fatal("clone shares attrs with original")
	}
}

func TestClassify(t *testing.T) {
	cfg := HTMLConfig()
	cases := []struct {
		node *Node
		want NodeClass
	}{
		{NewElement("h1"), ClassContext},
		{NewElement("h6"), ClassContext},
		{NewElement("title"), ClassContext},
		{NewElement("b"), ClassIntense},
		{NewElement("em"), ClassIntense},
		{NewElement("table"), ClassSimulation},
		{NewElement("li"), ClassSimulation},
		{NewElement("div"), ClassElement},
		{NewElement("span"), ClassElement},
		{NewText("hello"), ClassText},
	}
	for _, c := range cases {
		if got := cfg.Classify(c.node); got != c.want {
			t.Fatalf("Classify(%d %q) = %v, want %v", c.node.Kind, c.node.Name, got, c.want)
		}
	}
}

func TestClassifyCaseInsensitiveHTML(t *testing.T) {
	cfg := HTMLConfig()
	n := NewElement("H2") // manually built; parser would lowercase
	if got := cfg.Classify(n); got != ClassContext {
		t.Fatalf("H2 = %v", got)
	}
}

func TestClassifyXMLConfig(t *testing.T) {
	cfg := XMLConfig()
	if cfg.Classify(NewElement("context")) != ClassContext {
		t.Fatal("context element")
	}
	if cfg.Classify(NewElement("emphasis")) != ClassIntense {
		t.Fatal("emphasis element")
	}
	if cfg.Classify(NewElement("row")) != ClassSimulation {
		t.Fatal("row element")
	}
	if cfg.Classify(NewElement("payload")) != ClassElement {
		t.Fatal("payload element")
	}
}

func TestSniffMode(t *testing.T) {
	if SniffMode(`<!DOCTYPE html><html>`) != ModeHTML {
		t.Fatal("doctype html")
	}
	if SniffMode(`<?xml version="1.0"?><doc/>`) != ModeXML {
		t.Fatal("xml declaration")
	}
	if SniffMode(`<p>loose paragraph`) != ModeHTML {
		t.Fatal("p tag implies html")
	}
	if SniffMode(`<records><r/></records>`) != ModeXML {
		t.Fatal("generic xml")
	}
}

func TestCountNodes(t *testing.T) {
	doc := mustParse(t, `<a><b>t</b><c/></a>`, ModeXML)
	// document + a + b + text + c = 5
	if got := doc.CountNodes(); got != 5 {
		t.Fatalf("CountNodes = %d", got)
	}
}

func TestTextNormalisesWhitespace(t *testing.T) {
	doc := mustParse(t, "<t>  a\n\tb   c  </t>", ModeXML)
	if got := doc.FirstChild.Text(); got != "a b c" {
		t.Fatalf("text = %q", got)
	}
}

func TestDeepNesting(t *testing.T) {
	var sb strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("core")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	doc := mustParse(t, sb.String(), ModeXML)
	n := doc.FirstChild
	levels := 0
	for n != nil && n.Kind == ElementNode {
		levels++
		n = n.FirstChild
	}
	if levels != depth {
		t.Fatalf("depth = %d", levels)
	}
}

// Property: the parser never fails or panics on arbitrary byte soup in
// either mode — the NETMARK ingest path must accept anything users drop
// into the folder.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(raw []byte, html bool) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", raw, r)
				ok = false
			}
		}()
		mode := ModeXML
		if html {
			mode = ModeHTML
		}
		doc, err := ParseString(string(raw), mode)
		if err != nil {
			// Errors are allowed; crashes and nil trees are not.
			return true
		}
		// The result must be serialisable and re-parseable.
		out := Serialize(doc)
		_, err2 := ParseString(out, ModeXML)
		return err2 == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: markup-like fragments with unbalanced tags always produce a
// tree whose text content retains the input's non-markup words.
func TestQuickParserKeepsText(t *testing.T) {
	f := func(word1, word2 uint8) bool {
		w1 := "alpha" + string(rune('a'+word1%26))
		w2 := "beta" + string(rune('a'+word2%26))
		src := "<a><b>" + w1 + "<c>" + w2 // all unclosed
		doc, err := ParseString(src, ModeXML)
		if err != nil {
			return false
		}
		text := doc.Text()
		return strings.Contains(text, w1) && strings.Contains(text, w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseHTML(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i := 0; i < 50; i++ {
		sb.WriteString("<h2>Section</h2><p>Some paragraph text with <b>bold</b> runs and detail.</p>")
	}
	sb.WriteString("</body></html>")
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(src, ModeHTML); err != nil {
			b.Fatal(err)
		}
	}
}
