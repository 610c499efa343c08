package sgml

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// escapeText and escapeAttr are the escapes as strings, by the rules
// the Encoder writes them with: a string with nothing to escape comes
// back as it is, uncopied.
func escapeText(s string) string { return escapeString(s, false) }

func escapeAttr(s string) string { return escapeString(s, true) }

func escapeString(s string, attr bool) string {
	if firstEscape(s, attr) == len(s) {
		return s
	}
	var sb strings.Builder
	writeEscaped(&sb, s, attr)
	return sb.String()
}

// The serializer calls escapeText/escapeAttr for every text run and
// attribute it renders; building the strings.Replacer per call (as an
// earlier version did) costs an allocation each time, and escaping a
// string with nothing to escape must return it without copying.
func TestEscapeCleanStringZeroAlloc(t *testing.T) {
	clean := "cryogenic fuel pump telemetry with no markup at all"
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = escapeText(clean) }); n != 0 {
		t.Errorf("escapeText(clean) = %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = escapeAttr(clean) }); n != 0 {
		t.Errorf("escapeAttr(clean) = %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// Escaping still works after the hoist.
func TestEscapeReplaces(t *testing.T) {
	if got, want := escapeText(`a<b>&c`), "a&lt;b&gt;&amp;c"; got != want {
		t.Errorf("escapeText = %q, want %q", got, want)
	}
	if got, want := escapeAttr(`say "hi" & <go>`), "say &quot;hi&quot; &amp; &lt;go&gt;"; got != want {
		t.Errorf("escapeAttr = %q, want %q", got, want)
	}
}

// WriteIndent renders every result and document response the server
// sends.  Streaming a built tree into a buffered writer must cost no
// allocation at all, so a 1 000-node tree costs what a 10-node one does.
func TestWriteIndentZeroAlloc(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	var allocs []float64
	for _, size := range []int{10, 1000} {
		root := serialTree(size)
		if got := root.CountNodes(); got != size {
			t.Fatalf("built %d nodes, want %d", got, size)
		}
		n := testing.AllocsPerRun(100, func() {
			if err := WriteIndent(bw, root); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("WriteIndent of %d nodes = %.2f allocs/op, want 0", size, n)
		}
		allocs = append(allocs, n)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("WriteIndent allocs/op grow with the tree: %v for 10 and 1000 nodes", allocs)
	}
}

// serialTree builds a tree of exactly size nodes: sections holding an
// inline heading and a paragraph of several runs, so every renderer
// branch — attributes, inline text, nested children, padding — runs.
func serialTree(size int) *Node {
	root := NewElement("results")
	count := 1
	for count < size {
		switch left := size - count; {
		case left >= 6:
			sec := root.AppendChild(NewElement("section", Attr{Name: "id", Value: "s1"}))
			sec.AppendChild(NewElement("h1")).AppendChild(NewText("Cryogenic turbine"))
			p := sec.AppendChild(NewElement("p"))
			p.AppendChild(NewText("fuel pump telemetry"))
			p.AppendChild(NewElement("br"))
			count += 6
		case left >= 2:
			root.AppendChild(NewElement("note")).AppendChild(NewText("plain"))
			count += 2
		default:
			root.AppendChild(NewElement("hr"))
			count++
		}
	}
	return root
}
