package sgml

import (
	"bufio"
	"io"
	"strings"
)

// Serialize renders the subtree as XML text.  Text is escaped; the output
// of Serialize re-parses (in ModeXML) to an equivalent tree.
func Serialize(n *Node) string {
	var sb strings.Builder
	serialize(&sb, n, false, 0)
	return sb.String()
}

// SerializeIndent renders the subtree with two-space indentation for
// human-facing output (composed documents, CLI results).
func SerializeIndent(n *Node) string {
	var sb strings.Builder
	serialize(&sb, n, true, 0)
	return sb.String()
}

// Write streams the subtree to w as compact XML without materialising the
// whole document in memory first.
func Write(w io.Writer, n *Node) error { return writeStream(w, n, false) }

// WriteIndent streams the subtree to w with two-space indentation — the
// serving layer's path for result and document responses.
func WriteIndent(w io.Writer, n *Node) error { return writeStream(w, n, true) }

func writeStream(w io.Writer, n *Node, indent bool) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	serialize(bw, n, indent, 0)
	return bw.Flush()
}

// serialWriter is the sink serialize renders into: both strings.Builder
// and bufio.Writer satisfy it, so the string and streaming forms share
// one renderer.  bufio.Writer latches the first underlying error and
// reports it from Flush.
type serialWriter interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// serialize is the shared renderer beneath Serialize and the streaming
// Write/WriteIndent fast paths; per-node work must not allocate beyond
// what the sink itself buffers.
func serialize(sb serialWriter, n *Node, indent bool, depth int) {
	pad := func() {
		if indent {
			for i := 0; i < depth; i++ {
				sb.WriteString("  ")
			}
		}
	}
	nl := func() {
		if indent {
			sb.WriteByte('\n')
		}
	}
	switch n.Kind {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			serialize(sb, c, indent, depth)
		}
	case ElementNode:
		pad()
		sb.WriteByte('<')
		sb.WriteString(n.Name)
		for _, a := range n.Attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeAttr(a.Value))
			sb.WriteByte('"')
		}
		if n.FirstChild == nil {
			sb.WriteString("/>")
			nl()
			return
		}
		sb.WriteByte('>')
		// Single text child renders inline.
		if n.FirstChild == n.LastChild && n.FirstChild.Kind == TextNode {
			sb.WriteString(escapeText(n.FirstChild.Data))
		} else {
			nl()
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				serialize(sb, c, indent, depth+1)
			}
			pad()
		}
		sb.WriteString("</")
		sb.WriteString(n.Name)
		sb.WriteByte('>')
		nl()
	case TextNode:
		pad()
		sb.WriteString(escapeText(n.Data))
		nl()
	case CommentNode:
		pad()
		sb.WriteString("<!--")
		sb.WriteString(n.Data)
		sb.WriteString("-->")
		nl()
	case DoctypeNode:
		pad()
		sb.WriteString("<!")
		sb.WriteString(n.Data)
		sb.WriteByte('>')
		nl()
	case ProcInstNode:
		pad()
		sb.WriteString("<?")
		sb.WriteString(n.Name)
		if n.Data != "" {
			sb.WriteByte(' ')
			sb.WriteString(n.Data)
		}
		sb.WriteString("?>")
		nl()
	}
}
