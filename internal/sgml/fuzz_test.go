package sgml

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzSerialize writes whatever arbitrary XML or HTML parses to and
// parses the output back.  No input may panic.  The first round may
// normalise (HTML re-read as XML, a doctype's padding trimmed), after
// which parse and write reach a fixed point: compact output exactly, and
// indented output up to whitespace, since the indentation a write adds
// around mixed content is text to the next parse.  The same tree fed
// through the Sink events gives the Encoder's bytes and a Builder tree
// that writes them again.
func FuzzSerialize(f *testing.F) {
	for _, seed := range []string{
		`<a><b>x</b>y<c/></a>`,
		`<a>x<b/> y </a><!-- c --><?pi x?>`,
		`<!DOCTYPE r><r k="a &amp; &quot;b&quot;"><p>1 &lt; 2 &gt; 0</p><p></p></r>`,
		`<r><![CDATA[<raw> & ]]>tail</r>`,
		`<! `,
	} {
		f.Add(seed, false)
	}
	f.Add(`<html><body><h1>T</h1><p>one<p>two<br>three</body></html>`, true)
	f.Fuzz(func(t *testing.T, src string, html bool) {
		mode := ModeXML
		if html {
			mode = ModeHTML
		}
		tree, err := ParseString(src, mode)
		if err != nil {
			return
		}
		round := func(in string, indent bool) string {
			tree, err := ParseString(in, ModeXML)
			if err != nil {
				t.Fatalf("%q does not parse back: %v", in, err)
			}
			var buf bytes.Buffer
			if indent {
				err = WriteIndent(&buf, tree)
			} else {
				err = Write(&buf, tree)
			}
			if err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		c1 := round(Serialize(tree), false)
		if c2 := round(c1, false); c2 != c1 {
			t.Fatalf("compact: %q writes %q, then %q", src, c1, c2)
		}
		i1 := round(SerializeIndent(tree), true)
		if i2 := round(i1, true); !slices.Equal(strings.Fields(i1), strings.Fields(i2)) {
			t.Fatalf("indented: %q writes %q, then %q", src, i1, i2)
		}

		var buf bytes.Buffer
		var b Builder
		emitTree(tree, NewEncoder(&buf, true))
		emitTree(tree, &b)
		if b.Root() == nil {
			if buf.Len() != 0 {
				t.Fatalf("%q: no tree built from events that wrote %q", src, buf.String())
			}
			return
		}
		if got := SerializeIndent(b.Root()); got != buf.String() {
			t.Fatalf("%q: the events write\n%s\nand build a tree that writes\n%s", src, buf.String(), got)
		}
	})
}

// emitTree feeds the first top-level element of a parsed tree to sink
// through the Sink calls, its elements and text and nothing else.
func emitTree(n *Node, sink Sink) {
	switch n.Kind {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind == ElementNode {
				emitTree(c, sink)
				return
			}
		}
	case ElementNode:
		sink.Start(n.Name, n.Attrs)
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			emitTree(c, sink)
		}
		sink.End()
	case TextNode:
		sink.Text(n.Data)
	}
}
