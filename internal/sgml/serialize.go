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
	e := Encoder{w: &sb}
	e.Node(n)
	return sb.String()
}

// SerializeIndent renders the subtree with two-space indentation for
// human-facing output (composed documents, CLI results).
func SerializeIndent(n *Node) string {
	var sb strings.Builder
	e := Encoder{w: &sb, indent: true}
	e.Node(n)
	return sb.String()
}

// Write streams the subtree to w as compact XML without materialising the
// whole document in memory first.
func Write(w io.Writer, n *Node) error { return writeStream(w, n, false) }

// WriteIndent streams the subtree to w with two-space indentation.
func WriteIndent(w io.Writer, n *Node) error { return writeStream(w, n, true) }

func writeStream(w io.Writer, n *Node, indent bool) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	e := Encoder{w: bw, indent: indent}
	e.Node(n)
	return bw.Flush()
}

// Sink receives a document as events in document order: an element's
// Start, then its children, then its End.  The Encoder writes the events
// as XML text and the Builder makes a tree of them, so a producer that
// emits events serves both.  attrs stays the caller's: a Sink reads it
// during the call, and the caller may reuse it afterwards.
type Sink interface {
	Start(name string, attrs []Attr)
	Text(s string)
	End()
}

// Writer is what an Encoder writes into: *bufio.Writer, *bytes.Buffer
// and *strings.Builder are each one.  A bufio.Writer latches its first
// error and reports it from Flush.
type Writer interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// Encoder is the Sink that writes XML text, and the one place the
// serializer's byte rules live: two-space indentation when indenting, a
// lone text child written inline, "/>" for an element with no children,
// and the text and attribute escapes.  It holds back only what those
// rules need to see: an element's start tag stays open until its first
// child or its end, and a first text child until a second child or the
// end shows whether it is the only one.  The Encoder buffers nothing
// else; Node writes a built tree by the same rules.
type Encoder struct {
	w      Writer
	indent bool
	depth  int      // elements open
	names  []string // the elements Start opened, innermost last
	open   bool     // the innermost element's start tag lacks its '>'
	held   bool     // text is the innermost element's first child, not yet written
	text   string
}

// NewEncoder returns an Encoder writing to w, indented or compact.
func NewEncoder(w Writer, indent bool) *Encoder {
	return &Encoder{w: w, indent: indent}
}

// Start opens an element.
func (e *Encoder) Start(name string, attrs []Attr) {
	e.names = append(e.names, name)
	e.start(name, attrs)
}

// End closes the element the matching Start opened.
func (e *Encoder) End() {
	last := len(e.names) - 1
	name := e.names[last]
	e.names = e.names[:last]
	e.end(name)
}

// Text writes a text node.
func (e *Encoder) Text(s string) {
	if e.open && !e.held {
		e.held, e.text = true, s // inline if no sibling follows
		return
	}
	e.child()
	e.pad()
	writeEscaped(e.w, s, false)
	e.nl()
}

// Node writes the subtree rooted at n; the children of a document node
// are written at its own depth.
func (e *Encoder) Node(n *Node) {
	switch n.Kind {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			e.Node(c)
		}
	case ElementNode:
		e.start(n.Name, n.Attrs)
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			e.Node(c)
		}
		e.end(n.Name)
	case TextNode:
		e.Text(n.Data)
	case CommentNode:
		e.markup("<!--", n.Data, "-->")
	case DoctypeNode:
		e.markup("<!", n.Data, ">")
	case ProcInstNode:
		e.child()
		e.pad()
		e.w.WriteString("<?")
		e.w.WriteString(n.Name)
		if n.Data != "" {
			e.w.WriteByte(' ')
			e.w.WriteString(n.Data)
		}
		e.w.WriteString("?>")
		e.nl()
	}
}

// start writes an element's start tag up to, not including, its '>'.
func (e *Encoder) start(name string, attrs []Attr) {
	e.child()
	e.pad()
	e.w.WriteByte('<')
	e.w.WriteString(name)
	for _, a := range attrs {
		e.w.WriteByte(' ')
		e.w.WriteString(a.Name)
		e.w.WriteString(`="`)
		writeEscaped(e.w, a.Value, true)
		e.w.WriteByte('"')
	}
	e.depth++
	e.open, e.held = true, false
}

// end closes the innermost element, named name.
func (e *Encoder) end(name string) {
	e.depth--
	if e.open {
		e.open = false
		if !e.held {
			e.w.WriteString("/>")
			e.nl()
			return
		}
		e.held = false
		e.w.WriteByte('>')
		writeEscaped(e.w, e.text, false)
		e.text = ""
	} else {
		e.pad()
	}
	e.w.WriteString("</")
	e.w.WriteString(name)
	e.w.WriteByte('>')
	e.nl()
}

// child readies the innermost element for a child that is not a first
// text: it ends the start tag and writes the text held back, which is
// no longer the only child.
func (e *Encoder) child() {
	if !e.open {
		return
	}
	e.open = false
	e.w.WriteByte('>')
	e.nl()
	if e.held {
		e.held = false
		e.pad()
		writeEscaped(e.w, e.text, false)
		e.nl()
		e.text = ""
	}
}

// markup writes a comment or doctype node: open, data, close.
func (e *Encoder) markup(open, data, close string) {
	e.child()
	e.pad()
	e.w.WriteString(open)
	e.w.WriteString(data)
	e.w.WriteString(close)
	e.nl()
}

// spaces is the indentation pad writes from, a slice of it at a time.
const spaces = "                                                                "

func (e *Encoder) pad() {
	if !e.indent {
		return
	}
	for n := 2 * e.depth; n > 0; n -= len(spaces) {
		e.w.WriteString(spaces[:min(n, len(spaces))])
	}
}

func (e *Encoder) nl() {
	if e.indent {
		e.w.WriteByte('\n')
	}
}

// writeEscaped writes s with &, < and > escaped, and " too in an
// attribute value: the clean runs between escapes go out as they are,
// with no escaped copy of s.
func writeEscaped(w Writer, s string, attr bool) {
	last := 0
	for i := firstEscape(s, attr); i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		w.WriteString(s[last:i])
		w.WriteString(esc)
		last = i + 1
	}
	w.WriteString(s[last:])
}

// firstEscape is the index of the first byte of s that writeEscaped
// escapes, len(s) when there is none.  Most text has none: one
// vectorised scan per byte value finds that faster than a byte-at-a-time
// loop.
func firstEscape(s string, attr bool) int {
	special := "&<>"
	if attr {
		special = `&<>"`
	}
	first := len(s)
	for k := 0; k < len(special); k++ {
		if i := strings.IndexByte(s[:first], special[k]); i >= 0 {
			first = i
		}
	}
	return first
}

// Builder is the Sink that builds a tree of the events it receives.  It
// builds one tree: a top-level node after the first is dropped.
type Builder struct {
	root *Node
	cur  *Node // the innermost element started and not yet ended
}

// Start adds an element and opens it; its attributes are copied.
func (b *Builder) Start(name string, attrs []Attr) {
	el := &Node{Kind: ElementNode, Name: name}
	if len(attrs) > 0 {
		el.Attrs = append([]Attr(nil), attrs...)
	}
	b.add(el)
	b.cur = el
}

// Text adds a text node.
func (b *Builder) Text(s string) { b.add(NewText(s)) }

// End closes the innermost open element.
func (b *Builder) End() { b.cur = b.cur.Parent }

func (b *Builder) add(n *Node) {
	if b.cur != nil {
		b.cur.AppendChild(n)
	} else if b.root == nil {
		b.root = n
	}
}

// Root returns the tree built, nil before the first event.
func (b *Builder) Root() *Node { return b.root }
