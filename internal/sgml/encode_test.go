package sgml

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// The Encoder's byte rules, one event sequence each, indented and compact.
func TestEncoderByteRules(t *testing.T) {
	for _, c := range []struct {
		name           string
		events         func(Sink)
		indent, compct string
	}{
		{"empty element", func(s Sink) { s.Start("a", nil); s.End() },
			"<a/>\n", "<a/>"},
		{"lone text inline", func(s Sink) { s.Start("a", nil); s.Text("x"); s.End() },
			"<a>x</a>\n", "<a>x</a>"},
		{"lone empty text", func(s Sink) { s.Start("a", nil); s.Text(""); s.End() },
			"<a></a>\n", "<a></a>"},
		{"two texts", func(s Sink) { s.Start("a", nil); s.Text("x"); s.Text("y"); s.End() },
			"<a>\n  x\n  y\n</a>\n", "<a>xy</a>"},
		{"text then element", func(s Sink) {
			s.Start("a", nil)
			s.Text("x")
			s.Start("b", nil)
			s.Text("y")
			s.End()
			s.End()
		}, "<a>\n  x\n  <b>y</b>\n</a>\n", "<a>x<b>y</b></a>"},
		{"escapes", func(s Sink) {
			s.Start("a", []Attr{{Name: "k", Value: `"1" & <2>`}})
			s.Start("b", nil)
			s.End()
			s.Text(`<"&">`)
			s.End()
		}, "<a k=\"&quot;1&quot; &amp; &lt;2&gt;\">\n  <b/>\n  &lt;\"&amp;\"&gt;\n</a>\n",
			"<a k=\"&quot;1&quot; &amp; &lt;2&gt;\"><b/>&lt;\"&amp;\"&gt;</a>"},
		{"top-level text", func(s Sink) { s.Text("t") }, "t\n", "t"},
	} {
		for _, indent := range []bool{true, false} {
			var sb strings.Builder
			c.events(NewEncoder(&sb, indent))
			want := c.compct
			if indent {
				want = c.indent
			}
			if sb.String() != want {
				t.Errorf("%s (indent %v): wrote %q, want %q", c.name, indent, sb.String(), want)
			}
			// The tree a Builder makes of the same events writes the same.
			var b Builder
			c.events(&b)
			tree := Serialize(b.Root())
			if indent {
				tree = SerializeIndent(b.Root())
			}
			if tree != want {
				t.Errorf("%s (indent %v): the built tree writes %q, want %q", c.name, indent, tree, want)
			}
		}
	}
}

// A Builder keeps its own copy of the attributes: the caller may reuse
// the slice it passed.
func TestBuilderCopiesAttrs(t *testing.T) {
	var b Builder
	attrs := []Attr{{Name: "k", Value: "v"}}
	b.Start("a", attrs)
	b.End()
	attrs[0].Value = "changed"
	if got, _ := b.Root().Attr("k"); got != "v" {
		t.Errorf("attribute k = %q after the caller reused its slice, want %q", got, "v")
	}
}

// Events written through an Encoder cost no allocation once its stack of
// open elements has grown: text with and without escapes, attributes,
// nesting.
func TestEncoderZeroAlloc(t *testing.T) {
	enc := NewEncoder(bufio.NewWriter(io.Discard), true)
	attrs := []Attr{{Name: "doc", Value: "a & b.html"}}
	write := func() {
		enc.Start("result", attrs)
		enc.Start("context", nil)
		enc.Text("cryogenic turbine")
		enc.End()
		enc.Start("content", nil)
		enc.Text("fuel < pump & telemetry")
		enc.Text("second run")
		enc.End()
		enc.End()
	}
	write()
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("Encoder events = %.2f allocs/op, want 0", n)
	}
}
