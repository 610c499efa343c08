package sgml

import (
	"fmt"
	"strings"
)

// tokenKind enumerates lexer outputs.
type tokenKind uint8

const (
	tokText tokenKind = iota
	tokStartTag
	tokEndTag
	tokSelfClose
	tokComment
	tokDoctype
	tokProcInst
	tokCDATA
	tokEOF
)

// token is one lexical unit of an SGML document.
type token struct {
	kind  tokenKind
	name  string
	data  string
	attrs []Attr
	pos   int // byte offset, for error messages
}

// lexer scans SGML/XML/HTML input into tokens.  It is deliberately
// permissive: unterminated constructs at EOF become text, stray '<' that
// does not open a plausible tag is literal text.
type lexer struct {
	src  string
	pos  int
	html bool // lowercase names, tolerate unquoted attribute values
}

func newLexer(src string, html bool) *lexer {
	return &lexer{src: src, html: html}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	line := 1 + strings.Count(l.src[:l.pos], "\n")
	return fmt.Errorf("sgml: line %d: "+format, append([]interface{}{line}, args...)...)
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	if l.src[l.pos] != '<' {
		// Text run until the next '<' or EOF.
		end := strings.IndexByte(l.src[l.pos:], '<')
		if end < 0 {
			l.pos = len(l.src)
		} else {
			l.pos += end
		}
		return token{kind: tokText, data: decodeEntities(l.src[start:l.pos]), pos: start}, nil
	}
	// A '<' that cannot start a markup construct is literal text.
	if l.pos+1 >= len(l.src) {
		l.pos = len(l.src)
		return token{kind: tokText, data: "<", pos: start}, nil
	}
	switch c := l.src[l.pos+1]; {
	case c == '!':
		if strings.HasPrefix(l.src[l.pos:], "<!--") {
			return l.lexComment()
		}
		if strings.HasPrefix(l.src[l.pos:], "<![CDATA[") {
			return l.lexCDATA()
		}
		return l.lexDoctype()
	case c == '?':
		return l.lexProcInst()
	case c == '/':
		return l.lexEndTag()
	case isNameStart(rune(c)):
		return l.lexStartTag()
	default:
		// Literal '<'.
		l.pos++
		return token{kind: tokText, data: "<", pos: start}, nil
	}
}

func (l *lexer) lexComment() (token, error) {
	start := l.pos
	end := strings.Index(l.src[l.pos+4:], "-->")
	if end < 0 {
		l.pos = len(l.src)
		return token{kind: tokComment, data: l.src[start+4:], pos: start}, nil
	}
	data := l.src[l.pos+4 : l.pos+4+end]
	l.pos += 4 + end + 3
	return token{kind: tokComment, data: data, pos: start}, nil
}

func (l *lexer) lexCDATA() (token, error) {
	start := l.pos
	end := strings.Index(l.src[l.pos+9:], "]]>")
	if end < 0 {
		l.pos = len(l.src)
		return token{kind: tokCDATA, data: l.src[start+9:], pos: start}, nil
	}
	data := l.src[l.pos+9 : l.pos+9+end]
	l.pos += 9 + end + 3
	return token{kind: tokCDATA, data: data, pos: start}, nil
}

func (l *lexer) lexDoctype() (token, error) {
	start := l.pos
	end := strings.IndexByte(l.src[l.pos:], '>')
	if end < 0 {
		l.pos = len(l.src)
		return token{kind: tokDoctype, data: l.src[start+2:], pos: start}, nil
	}
	data := l.src[l.pos+2 : l.pos+end]
	l.pos += end + 1
	return token{kind: tokDoctype, data: strings.TrimSpace(data), pos: start}, nil
}

func (l *lexer) lexProcInst() (token, error) {
	start := l.pos
	// The "?>" that ends it starts after "<?": in "<?>" the '?' opens.
	end := strings.Index(l.src[l.pos+2:], "?>")
	if end < 0 {
		l.pos = len(l.src)
		return token{kind: tokProcInst, data: l.src[start+2:], pos: start}, nil
	}
	body := l.src[l.pos+2 : l.pos+2+end]
	l.pos += 2 + end + 2
	name := body
	if i := strings.IndexAny(body, " \t\r\n"); i >= 0 {
		name = body[:i]
		body = strings.TrimSpace(body[i:])
	} else {
		body = ""
	}
	return token{kind: tokProcInst, name: name, data: body, pos: start}, nil
}

func (l *lexer) lexEndTag() (token, error) {
	start := l.pos
	l.pos += 2
	name := l.lexName()
	if name == "" {
		return token{}, l.errf("malformed end tag")
	}
	// Skip to '>'.
	for l.pos < len(l.src) && l.src[l.pos] != '>' {
		l.pos++
	}
	if l.pos < len(l.src) {
		l.pos++
	}
	if l.html {
		name = strings.ToLower(name)
	}
	return token{kind: tokEndTag, name: name, pos: start}, nil
}

func (l *lexer) lexStartTag() (token, error) {
	start := l.pos
	l.pos++ // consume '<'
	name := l.lexName()
	if name == "" {
		return token{}, l.errf("malformed start tag")
	}
	if l.html {
		name = strings.ToLower(name)
	}
	var attrs []Attr
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			// Unterminated tag at EOF: treat as opened.
			return token{kind: tokStartTag, name: name, attrs: attrs, pos: start}, nil
		}
		if strings.HasPrefix(l.src[l.pos:], "/>") {
			l.pos += 2
			return token{kind: tokSelfClose, name: name, attrs: attrs, pos: start}, nil
		}
		if l.src[l.pos] == '>' {
			l.pos++
			return token{kind: tokStartTag, name: name, attrs: attrs, pos: start}, nil
		}
		aname := l.lexName()
		if aname == "" {
			// Skip stray character rather than failing the document.
			l.pos++
			continue
		}
		if l.html {
			aname = strings.ToLower(aname)
		}
		l.skipSpace()
		aval := ""
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			l.skipSpace()
			aval = l.lexAttrValue()
		}
		attrs = append(attrs, Attr{Name: aname, Value: decodeEntities(aval)})
	}
}

func (l *lexer) lexAttrValue() string {
	if l.pos >= len(l.src) {
		return ""
	}
	q := l.src[l.pos]
	if q == '"' || q == '\'' {
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], q)
		if end < 0 {
			v := l.src[l.pos:]
			l.pos = len(l.src)
			return v
		}
		v := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return v
	}
	// Unquoted value (HTML tolerance).
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '>' || (c == '/' && strings.HasPrefix(l.src[l.pos:], "/>")) {
			break
		}
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexName() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if l.pos == start {
			if !isNameStart(c) {
				break
			}
		} else if !isNameChar(c) {
			break
		}
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.pos++
		default:
			return
		}
	}
}

func isNameStart(c rune) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c rune) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}
