// Package xslt implements the XSLT-subset transformation engine NETMARK
// uses for result composition: "we may also specify an XSLT stylesheet
// which specifies how the results are to be formatted and composed into a
// new document" (§2.1.3, Fig 7).  It substitutes for the Xalan processor
// [13] the paper uses.
//
// The supported surface is what result composition needs: template rules
// with match patterns, apply-templates, value-of, for-each, if, copy-of,
// attribute, text, sort — driven by an XPath-lite expression language
// (child paths, //, wildcards, attributes, text(), positional and
// equality predicates).
package xslt

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"netmark/internal/sgml"
)

// Path is a compiled XPath-lite expression.
type Path struct {
	Absolute bool
	Steps    []Step
	raw      string
}

// Step is one location step.
type Step struct {
	// Axis: "child" (default), "descendant" (//), "self" (.), "parent" (..)
	Axis string
	// Name matches an element name; "*" any element; "#text" text();
	// "@x" selects the attribute x (terminal step only).
	Name string
	// Predicates filter the step's result.
	Preds []Pred
}

// Pred is a step predicate.
type Pred struct {
	// Index predicate when > 0 (1-based).
	Index int
	// Equality predicate Left = Right when Left != "".  Left is a
	// relative path or "@attr" or "text()"; Right is a literal.
	Left  string
	Right string
	// Existence predicate when Exists != "" (path that must be non-empty).
	Exists string
}

// CompilePath parses an XPath-lite expression.
func CompilePath(expr string) (*Path, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return nil, fmt.Errorf("xslt: empty path")
	}
	p := &Path{raw: expr}
	s := expr
	nextAxis := "child"
	switch {
	case strings.HasPrefix(s, "//"):
		p.Absolute = true
		nextAxis = "descendant"
		s = s[2:]
		if s == "" {
			return nil, fmt.Errorf("xslt: bare // in %q", expr)
		}
	case strings.HasPrefix(s, "/"):
		p.Absolute = true
		s = s[1:]
		// "/" alone selects the root.
	}
	for s != "" {
		first, rest, err := cutStep(s)
		if err != nil {
			return nil, err
		}
		st, err := parseStep(first)
		if err != nil {
			return nil, fmt.Errorf("xslt: %q: %w", expr, err)
		}
		if st.Axis == "" {
			st.Axis = nextAxis
		}
		p.Steps = append(p.Steps, st)
		nextAxis = "child"
		switch {
		case strings.HasPrefix(rest, "//"):
			nextAxis = "descendant"
			rest = rest[2:]
			if rest == "" {
				return nil, fmt.Errorf("xslt: trailing // in %q", expr)
			}
		case strings.HasPrefix(rest, "/"):
			rest = rest[1:]
			if rest == "" {
				return nil, fmt.Errorf("xslt: trailing / in %q", expr)
			}
		}
		s = rest
	}
	return p, nil
}

// cutStep splits the next step (respecting [..] brackets) from the rest.
func cutStep(s string) (string, string, error) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth < 0 {
				return "", "", fmt.Errorf("xslt: unbalanced ] in %q", s)
			}
		case '/':
			if depth == 0 {
				return s[:i], s[i:], nil
			}
		}
	}
	if depth != 0 {
		return "", "", fmt.Errorf("xslt: unbalanced [ in %q", s)
	}
	return s, "", nil
}

func parseStep(s string) (Step, error) {
	st := Step{}
	// Extract predicates.
	for {
		open := strings.IndexByte(s, '[')
		if open < 0 {
			break
		}
		close := matchBracket(s, open)
		if close < 0 {
			return st, fmt.Errorf("unterminated predicate in %q", s)
		}
		pred, err := parsePred(s[open+1 : close])
		if err != nil {
			return st, err
		}
		st.Preds = append(st.Preds, pred)
		s = s[:open] + s[close+1:]
	}
	s = strings.TrimSpace(s)
	switch {
	case s == ".":
		st.Axis, st.Name = "self", "*"
	case s == "..":
		st.Axis, st.Name = "parent", "*"
	case s == "text()":
		st.Name = "#text"
	case s == "*", isName(strings.TrimPrefix(s, "@")):
		st.Name = s
	case s == "":
		return st, fmt.Errorf("empty step")
	default:
		// A function call, an operator, a literal: nothing a step could
		// match, so the expression is one XPath-lite cannot evaluate.
		return st, fmt.Errorf("unsupported step %q", s)
	}
	return st, nil
}

// isName reports whether s is an XML name: a letter, '_' or ':', then
// letters, digits, combining marks, '.', '-', '_' and ':'.
func isName(s string) bool {
	for i, r := range s {
		switch {
		case unicode.IsLetter(r), r == '_', r == ':':
		case i > 0 && (unicode.IsDigit(r) || unicode.IsMark(r) || r == '.' || r == '-'):
		default:
			return false
		}
	}
	return s != ""
}

func matchBracket(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func parsePred(s string) (Pred, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return Pred{}, fmt.Errorf("predicate index %d must be positive", n)
		}
		return Pred{Index: n}, nil
	}
	if eq := strings.Index(s, "="); eq >= 0 {
		left := strings.TrimSpace(s[:eq])
		right := strings.TrimSpace(s[eq+1:])
		if len(right) >= 2 && (right[0] == '\'' || right[0] == '"') && right[len(right)-1] == right[0] {
			right = right[1 : len(right)-1]
		} else {
			return Pred{}, fmt.Errorf("predicate value must be quoted: %q", s)
		}
		if _, err := CompilePath(left); err != nil {
			return Pred{}, err
		}
		return Pred{Left: left, Right: right}, nil
	}
	if _, err := CompilePath(s); err != nil {
		return Pred{}, err
	}
	return Pred{Exists: s}, nil
}

// Select evaluates the path against a context node and returns the
// selected nodes in document order.
func Select(ctx *sgml.Node, expr string) ([]*sgml.Node, error) {
	p, err := CompilePath(expr)
	if err != nil {
		return nil, err
	}
	return p.Select(ctx), nil
}

// Select evaluates the compiled path from ctx.
func (p *Path) Select(ctx *sgml.Node) []*sgml.Node {
	start := ctx
	if p.Absolute {
		start = ctx.Root()
	}
	cur := []*sgml.Node{start}
	for _, st := range p.Steps {
		var next []*sgml.Node
		for _, n := range cur {
			next = append(next, st.apply(n)...)
		}
		cur = dedupeNodes(next)
	}
	return cur
}

func (st Step) apply(n *sgml.Node) []*sgml.Node {
	var cand []*sgml.Node
	switch st.Axis {
	case "self":
		cand = []*sgml.Node{n}
	case "parent":
		if n.Parent != nil {
			cand = []*sgml.Node{n.Parent}
		}
	case "descendant":
		n.Walk(func(x *sgml.Node) bool {
			if x != n && st.matches(x) {
				cand = append(cand, x)
			}
			return true
		})
		return st.filter(cand)
	default: // child
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if st.matches(c) {
				cand = append(cand, c)
			}
		}
	}
	if st.Axis == "self" || st.Axis == "parent" {
		// Name filter still applies for non-wildcards.
		if st.Name != "*" {
			var out []*sgml.Node
			for _, c := range cand {
				if st.matches(c) {
					out = append(out, c)
				}
			}
			cand = out
		}
	}
	return st.filter(cand)
}

func (st Step) matches(n *sgml.Node) bool {
	switch {
	case st.Name == "#text":
		return n.Kind == sgml.TextNode
	case strings.HasPrefix(st.Name, "@"):
		// Attribute steps are resolved by EvalString; for Select they
		// match the owning element.
		_, ok := n.Attr(st.Name[1:])
		return n.Kind == sgml.ElementNode && ok
	case st.Name == "*":
		return n.Kind == sgml.ElementNode
	default:
		return n.Kind == sgml.ElementNode && n.Name == st.Name
	}
}

func (st Step) filter(cand []*sgml.Node) []*sgml.Node {
	out := cand
	for _, pr := range st.Preds {
		out = pr.filter(out)
	}
	return out
}

func (pr Pred) filter(cand []*sgml.Node) []*sgml.Node {
	if pr.Index > 0 {
		if pr.Index <= len(cand) {
			return cand[pr.Index-1 : pr.Index]
		}
		return nil
	}
	var out []*sgml.Node
	for _, n := range cand {
		if pr.holds(n) {
			out = append(out, n)
		}
	}
	return out
}

func (pr Pred) holds(n *sgml.Node) bool {
	if pr.Exists != "" {
		got, err := Select(n, pr.Exists)
		if err != nil {
			return false
		}
		if len(got) > 0 {
			return true
		}
		// Attribute existence.
		if strings.HasPrefix(pr.Exists, "@") {
			_, ok := n.Attr(pr.Exists[1:])
			return ok
		}
		return false
	}
	val := EvalStringOn(n, pr.Left)
	return val == pr.Right
}

// EvalString evaluates an expression to its string value: attribute
// lookups, text() and node text.  An expression XPath-lite cannot
// evaluate is an error.
func EvalString(ctx *sgml.Node, expr string) (string, error) {
	if _, err := CompilePath(expr); err != nil {
		return "", err
	}
	return EvalStringOn(ctx, expr), nil
}

// EvalStringOn is EvalString without error plumbing (bad paths yield "").
func EvalStringOn(ctx *sgml.Node, expr string) string {
	expr = strings.TrimSpace(expr)
	switch {
	case expr == ".":
		return ctx.Text()
	case expr == "text()":
		var parts []string
		for c := ctx.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind == sgml.TextNode {
				parts = append(parts, c.Data)
			}
		}
		return strings.TrimSpace(strings.Join(parts, " "))
	case strings.HasPrefix(expr, "@"):
		v, _ := ctx.Attr(expr[1:])
		return v
	}
	// Path ending in @attr: select owners, read the attribute.
	if i := strings.LastIndex(expr, "/@"); i >= 0 {
		owners, err := Select(ctx, expr[:i])
		if err != nil || len(owners) == 0 {
			return ""
		}
		v, _ := owners[0].Attr(expr[i+2:])
		return v
	}
	got, err := Select(ctx, expr)
	if err != nil || len(got) == 0 {
		return ""
	}
	if got[0].Kind == sgml.TextNode {
		return strings.TrimSpace(got[0].Data)
	}
	return got[0].Text()
}

func dedupeNodes(ns []*sgml.Node) []*sgml.Node {
	seen := make(map[*sgml.Node]bool, len(ns))
	out := ns[:0]
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
