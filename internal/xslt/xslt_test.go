package xslt

import (
	"strings"
	"testing"

	"netmark/internal/sgml"
)

func parse(t *testing.T, src string) *sgml.Node {
	t.Helper()
	doc, err := sgml.ParseString(src, sgml.ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

const sampleDoc = `<report>
  <section kind="intro"><context>Introduction</context><content>Opening text</content></section>
  <section kind="body"><context>Budget</context><content>Costs 4M</content></section>
  <section kind="body"><context>Schedule</context><content>Two years</content></section>
</report>`

func sel(t *testing.T, doc *sgml.Node, expr string) []*sgml.Node {
	t.Helper()
	got, err := Select(doc, expr)
	if err != nil {
		t.Fatalf("Select(%q): %v", expr, err)
	}
	return got
}

func TestSelectChildPath(t *testing.T) {
	doc := parse(t, sampleDoc)
	got := sel(t, doc, "report/section")
	if len(got) != 3 {
		t.Fatalf("sections = %d", len(got))
	}
	got = sel(t, doc, "report/section/context")
	if len(got) != 3 || got[0].Text() != "Introduction" {
		t.Fatalf("contexts = %v", got)
	}
}

func TestSelectDescendant(t *testing.T) {
	doc := parse(t, sampleDoc)
	got := sel(t, doc, "//context")
	if len(got) != 3 {
		t.Fatalf("//context = %d", len(got))
	}
	got = sel(t, doc, "//section/content")
	if len(got) != 3 {
		t.Fatalf("//section/content = %d", len(got))
	}
}

func TestSelectWildcard(t *testing.T) {
	doc := parse(t, sampleDoc)
	got := sel(t, doc, "report/*")
	if len(got) != 3 {
		t.Fatalf("report/* = %d", len(got))
	}
	got = sel(t, doc, "report/section/*")
	if len(got) != 6 {
		t.Fatalf("report/section/* = %d", len(got))
	}
}

func TestSelectIndexPredicate(t *testing.T) {
	doc := parse(t, sampleDoc)
	got := sel(t, doc, "report/section[2]")
	if len(got) != 1 {
		t.Fatalf("section[2] = %d", len(got))
	}
	if got[0].Find("context").Text() != "Budget" {
		t.Fatalf("section[2] context = %q", got[0].Find("context").Text())
	}
	if got := sel(t, doc, "report/section[9]"); len(got) != 0 {
		t.Fatalf("out-of-range index = %v", got)
	}
}

func TestSelectEqualityPredicate(t *testing.T) {
	doc := parse(t, sampleDoc)
	got := sel(t, doc, "report/section[context='Budget']")
	if len(got) != 1 {
		t.Fatalf("equality pred = %d", len(got))
	}
	got = sel(t, doc, "report/section[@kind='body']")
	if len(got) != 2 {
		t.Fatalf("attr pred = %d", len(got))
	}
}

func TestSelectExistencePredicate(t *testing.T) {
	doc := parse(t, `<r><a><x/></a><a/><a><x/></a></r>`)
	got := sel(t, doc, "r/a[x]")
	if len(got) != 2 {
		t.Fatalf("existence pred = %d", len(got))
	}
	got = sel(t, doc, "r/a[@missing]")
	if len(got) != 0 {
		t.Fatalf("attr existence = %d", len(got))
	}
}

func TestSelectTextNodes(t *testing.T) {
	doc := parse(t, `<r><p>one</p><p>two</p></r>`)
	got := sel(t, doc, "r/p/text()")
	if len(got) != 2 || got[0].Data != "one" {
		t.Fatalf("text() = %v", got)
	}
}

func TestEvalString(t *testing.T) {
	doc := parse(t, sampleDoc)
	report := doc.FirstChild
	cases := map[string]string{
		"section/context":                     "Introduction",
		"section[2]/content":                  "Costs 4M",
		"section[1]/@kind":                    "intro",
		"section[context='Schedule']/content": "Two years",
	}
	for expr, want := range cases {
		got, err := EvalString(report, expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		if got != want {
			t.Fatalf("EvalString(%q) = %q, want %q", expr, got, want)
		}
	}
}

func TestEvalStringDotAndAttr(t *testing.T) {
	doc := parse(t, `<x k="v">body text</x>`)
	x := doc.FirstChild
	if got := EvalStringOn(x, "."); got != "body text" {
		t.Fatalf(". = %q", got)
	}
	if got := EvalStringOn(x, "@k"); got != "v" {
		t.Fatalf("@k = %q", got)
	}
	if got := EvalStringOn(x, "@absent"); got != "" {
		t.Fatalf("@absent = %q", got)
	}
}

func TestCompilePathErrors(t *testing.T) {
	for _, bad := range []string{"", "a//", "a/", "a[", "a[1", "a[x='y]", "a[0]"} {
		if _, err := CompilePath(bad); err == nil {
			t.Fatalf("CompilePath(%q) accepted", bad)
		}
	}
}

// TestUnsupportedExpressionsRejected: a step that is not an XML name,
// *, @name, text(), . or .. — a function call, an operator, a number or
// a string — is one XPath-lite cannot evaluate, so the expression is
// refused at compile time, in a predicate too, and a value-of selecting
// it fails the transform instead of rendering nothing.
func TestUnsupportedExpressionsRejected(t *testing.T) {
	for _, bad := range []string{
		"count(//result)", "count(x)", "name()", "position()", "last()",
		"a|b", "a + b", "1", "'lit'", "#text", "@", "@1x", "a/-b", "a/1",
		"//x[count(y)]", "//x[name()='y']", "a[b or c]", "a/b()",
	} {
		if _, err := CompilePath(bad); err == nil {
			t.Errorf("CompilePath(%q) accepted", bad)
		}
	}
	for _, good := range []string{
		".", "..", "*", "text()", "@id", "a/@xml:lang", "//ns:x/y.z", "_a-1",
		"//section[context='Budget']/content", "a[@k='v'][2]", "a[b]", "a[text()='x']",
	} {
		if _, err := CompilePath(good); err != nil {
			t.Errorf("CompilePath(%q): %v", good, err)
		}
	}
	sheet, err := ParseStylesheet(`<xsl:stylesheet><xsl:template match="/"><n><xsl:value-of select="count(//section)"/></n></xsl:template></xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sheet.TransformToString(parse(t, sampleDoc)); err == nil {
		t.Fatalf("value-of count() rendered %q", out)
	}
}

const composeSheet = `<xsl:stylesheet>
<xsl:template match="/">
  <composed>
    <xsl:apply-templates select="//section"/>
  </composed>
</xsl:template>
<xsl:template match="section">
  <entry title="{context}">
    <xsl:value-of select="content"/>
  </entry>
</xsl:template>
</xsl:stylesheet>`

func TestTransformCompose(t *testing.T) {
	// The Fig 6 scenario: extract sections and compose a new document.
	sheet, err := ParseStylesheet(composeSheet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	composed := out.Find("composed")
	if composed == nil {
		t.Fatalf("output: %s", sgml.Serialize(out))
	}
	entries := composed.FindAll("entry")
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if v, _ := entries[1].Attr("title"); v != "Budget" {
		t.Fatalf("attr template = %q", v)
	}
	if entries[1].Text() != "Costs 4M" {
		t.Fatalf("entry body = %q", entries[1].Text())
	}
}

func TestTransformForEachWithSort(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/">
  <toc>
    <xsl:for-each select="//section">
      <xsl:sort select="context"/>
      <item><xsl:value-of select="context"/></item>
    </xsl:for-each>
  </toc>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, it := range out.FindAll("item") {
		titles = append(titles, it.Text())
	}
	want := []string{"Budget", "Introduction", "Schedule"}
	if strings.Join(titles, ",") != strings.Join(want, ",") {
		t.Fatalf("sorted items = %v", titles)
	}
}

func TestTransformIf(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/">
  <out>
  <xsl:for-each select="//section">
    <xsl:if test="@kind='body'">
      <body-section><xsl:value-of select="context"/></body-section>
    </xsl:if>
    <xsl:if test="@kind!='body'">
      <other><xsl:value-of select="context"/></other>
    </xsl:if>
  </xsl:for-each>
  </out>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.FindAll("body-section")); n != 2 {
		t.Fatalf("body sections = %d", n)
	}
	if n := len(out.FindAll("other")); n != 1 {
		t.Fatalf("other = %d", n)
	}
}

func TestTransformCopyOf(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/">
  <archive><xsl:copy-of select="//section[context='Budget']"/></archive>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	sec := out.Find("section")
	if sec == nil || sec.Find("content").Text() != "Costs 4M" {
		t.Fatalf("copy-of output: %s", sgml.Serialize(out))
	}
	if v, _ := sec.Attr("kind"); v != "body" {
		t.Fatal("copy-of lost attributes")
	}
}

func TestTransformBuiltinRules(t *testing.T) {
	// With only a text() template, built-ins recurse through elements.
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="context"><heading><xsl:value-of select="."/></heading></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.FindAll("heading")); n != 3 {
		t.Fatalf("headings = %d: %s", n, sgml.Serialize(out))
	}
	// Untemplated text still flows through (built-in text rule).
	if !strings.Contains(out.Text(), "Costs 4M") {
		t.Fatalf("text lost: %q", out.Text())
	}
}

func TestTransformPathSuffixMatch(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="section/context"><got/></xsl:template>
<xsl:template match="context"><wrong/></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	// Path-suffix template has same priority class as name template but
	// matches more specifically; both match, and ours was declared first
	// with equal priority — accept either <got/> consistently.
	if len(out.FindAll("got")) == 0 && len(out.FindAll("wrong")) == 0 {
		t.Fatal("no template fired")
	}
}

func TestTransformElementInstruction(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/">
  <xsl:element name="dynamic"><xsl:text>content</xsl:text></xsl:element>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if d := out.Find("dynamic"); d == nil || d.Text() != "content" {
		t.Fatalf("element instruction: %s", sgml.Serialize(out))
	}
}

func TestTransformAttributeInstruction(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/">
  <out>
    <xsl:attribute name="total"><xsl:value-of select="//section[1]/context"/></xsl:attribute>
  </out>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	o := out.Find("out")
	if o == nil {
		t.Fatalf("output: %s", sgml.Serialize(out))
	}
	if v, _ := o.Attr("total"); v != "Introduction" {
		t.Fatalf("attribute = %q", v)
	}
}

func TestTransformCommentInstruction(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/"><out><xsl:comment>generated</xsl:comment></out></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	s := sgml.Serialize(out)
	if !strings.Contains(s, "<!--generated-->") {
		t.Fatalf("comment lost: %s", s)
	}
}

func TestTransformMultiMatchTemplate(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="context|content"><leaf/></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.FindAll("leaf")); n != 6 {
		t.Fatalf("leaves = %d", n)
	}
}

func TestUnsupportedInstructionErrors(t *testing.T) {
	sheet, err := ParseStylesheet(`<xsl:stylesheet>
<xsl:template match="/"><xsl:call-template name="x"/></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sheet.Transform(parse(t, sampleDoc)); err == nil {
		t.Fatal("unsupported instruction silently ignored")
	}
}

func TestParseStylesheetErrors(t *testing.T) {
	bad := []string{
		``,
		`<notasheet/>`,
		`<xsl:stylesheet></xsl:stylesheet>`,
		`<xsl:stylesheet><xsl:template>no match</xsl:template></xsl:stylesheet>`,
	}
	for _, src := range bad {
		if _, err := ParseStylesheet(src); err == nil {
			t.Fatalf("ParseStylesheet(%q) accepted", src)
		}
	}
}

func TestTransformToString(t *testing.T) {
	sheet, err := ParseStylesheet(composeSheet)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sheet.TransformToString(parse(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "<composed>") || !strings.Contains(s, "Costs 4M") {
		t.Fatalf("serialised output: %s", s)
	}
}
