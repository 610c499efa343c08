// Package xdb implements XDB Query, "the Netmark query language" [7]:
// context and content search specifications appended to a URL, optionally
// naming an XSLT stylesheet that formats the results into a new document
// (§2.1.3, Fig 7).
//
// Examples from the paper, in this syntax:
//
//	?context=Introduction
//	?content=Shuttle
//	?context=Technology+Gap&content=Shrinking
//	?context=Budget&xslt=ibpd&limit=50
//
// A trailing * on context requests prefix matching; a quoted content
// value requests phrase search.
package xdb

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"netmark/internal/sgml"
	"netmark/internal/textindex"
	"netmark/internal/xmlstore"
	"netmark/internal/xslt"
)

// Query is a parsed XDB query.
type Query struct {
	// Context is the heading to match ("" = no context predicate).
	Context string
	// ContextPrefix requests prefix matching on the heading.
	ContextPrefix bool
	// Content holds the search terms ("" = no content predicate).
	Content string
	// Phrase requests adjacency (quoted content value).
	Phrase bool
	// DocsOnly requests document-level results (the paper's
	// "Content=Shuttle returns all documents containing 'Shuttle'").
	DocsOnly bool
	// XPath, when set, selects nodes from matching documents with an
	// XPath-lite expression — the paper's "full-fledged XML querying"
	// over any repository.  Combined with context/content predicates the
	// index prefilters the documents; alone it scans every document.
	XPath string
	// XSLT names a registered stylesheet for result composition.
	XSLT string
	// Limit caps the number of results (0 = unlimited).
	Limit int
}

// IsZero reports whether the query has no predicates.
func (q Query) IsZero() bool { return q.Context == "" && q.Content == "" && q.XPath == "" }

// String renders the query in URL form.
func (q Query) String() string { return q.Encode() }

// Encode renders the query as a URL query string.
func (q Query) Encode() string {
	v := url.Values{}
	if q.Context != "" {
		c := q.Context
		if q.ContextPrefix {
			c += "*"
		}
		v.Set("context", c)
	}
	if q.Content != "" {
		c := q.Content
		if q.Phrase {
			c = `"` + c + `"`
		}
		v.Set("content", c)
	}
	if q.DocsOnly {
		v.Set("scope", "document")
	}
	if q.XPath != "" {
		v.Set("xpath", q.XPath)
	}
	if q.XSLT != "" {
		v.Set("xslt", q.XSLT)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return v.Encode()
}

// Parse parses the query-string form (with or without a leading '?').
// Keys are case-insensitive, matching the paper's Context=/Content=
// examples, so a parameter spelled twice in two cases (or as both xslt=
// and stylesheet=) is refused rather than one spelling picked.  A repeated
// key takes its last value.  The same string always parses to the same
// query or error, and Parse(q.Encode()) gives q back.
func Parse(raw string) (Query, error) {
	raw = strings.TrimPrefix(strings.TrimSpace(raw), "?")
	if raw == "" {
		return Query{}, fmt.Errorf("xdb: empty query")
	}
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return Query{}, fmt.Errorf("xdb: malformed query: %w", err)
	}
	keys := make([]string, 0, len(vals))
	for key := range vals {
		keys = append(keys, key)
	}
	sort.Strings(keys) // map order must not pick the error reported
	var q Query
	given := make(map[string]string, len(keys)) // parameter → the key that gave it
	for _, key := range keys {
		name := strings.ToLower(key)
		if name == "stylesheet" {
			name = "xslt"
		}
		if other, ok := given[name]; ok {
			return Query{}, fmt.Errorf("xdb: parameter %s given twice, as %q and %q", name, other, key)
		}
		given[name] = key
		vs := vals[key]
		v := vs[len(vs)-1]
		switch name {
		case "context":
			v = strings.TrimSpace(v)
			q.Context = strings.TrimRight(v, "*")
			// context=* names no heading: it is no context predicate.
			q.ContextPrefix = q.Context != "" && q.Context != v
		case "content":
			v = strings.TrimSpace(v)
			if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
				q.Phrase = v != ""
			}
			q.Content = v
		case "scope":
			switch strings.ToLower(v) {
			case "document", "doc", "docs":
				q.DocsOnly = true
			case "section", "sections", "":
			default:
				return Query{}, fmt.Errorf("xdb: unknown scope %q", v)
			}
		case "xpath":
			if v != "" {
				if _, err := xslt.CompilePath(v); err != nil {
					return Query{}, fmt.Errorf("xdb: bad xpath: %w", err)
				}
			}
			q.XPath = v
		case "xslt":
			q.XSLT = v
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Query{}, fmt.Errorf("xdb: bad limit %q", v)
			}
			q.Limit = n
		default:
			return Query{}, fmt.Errorf("xdb: unknown parameter %q", key)
		}
	}
	if q.IsZero() {
		return Query{}, fmt.Errorf("xdb: query needs context=, content= or xpath=")
	}
	return q, nil
}

// Result is the outcome of executing a query.
type Result struct {
	Query    Query
	Sections []xmlstore.Section
	Docs     []*xmlstore.DocInfo
	// Transformed holds the styled document when the query named a
	// stylesheet.
	Transformed *sgml.Node
}

// Len returns the number of result items.
func (r *Result) Len() int {
	if r.Query.DocsOnly {
		return len(r.Docs)
	}
	return len(r.Sections)
}

// XML materialises the result set as a document tree, the wire format
// used by HTTP clients and by databank routers merging multiple sources.
func (r *Result) XML() *sgml.Node {
	var b sgml.Builder
	r.emit(&b)
	return b.Root()
}

// emit feeds the result set to sink as the wire format's events: XML
// builds the tree of them, and ExecuteInto writes them.
func (r *Result) emit(sink sgml.Sink) {
	var attrs [4]sgml.Attr // each element's, reused: a Sink does not keep them
	sink.Start("results", append(attrs[:0], sgml.Attr{Name: "count", Value: strconv.Itoa(r.Len())}))
	if r.Query.DocsOnly {
		for _, d := range r.Docs {
			sink.Start("document", append(attrs[:0],
				sgml.Attr{Name: "id", Value: strconv.FormatUint(d.DocID, 10)},
				sgml.Attr{Name: "name", Value: d.FileName},
				sgml.Attr{Name: "title", Value: d.Title},
				sgml.Attr{Name: "format", Value: d.Format}))
			sink.End()
		}
	} else {
		for i := range r.Sections {
			s := &r.Sections[i]
			sink.Start("result", append(attrs[:0],
				sgml.Attr{Name: "doc", Value: s.DocName},
				sgml.Attr{Name: "doc-title", Value: s.DocTitle}))
			sink.Start("context", nil)
			sink.Text(s.Context)
			sink.End()
			sink.Start("content", nil)
			sink.Text(s.Content)
			sink.End()
			sink.End()
		}
	}
	sink.End()
}

// ParseResultXML decodes the wire format back into a Result (used by the
// databank's remote sources).
func ParseResultXML(src string) (*Result, error) {
	tree, err := sgml.ParseString(src, sgml.ModeXML)
	if err != nil {
		return nil, err
	}
	root := tree.Find("results")
	if root == nil {
		return nil, fmt.Errorf("xdb: no <results> element")
	}
	r := &Result{}
	for _, el := range root.ChildElements() {
		switch el.Name {
		case "result":
			sec := xmlstore.Section{}
			sec.DocName, _ = el.Attr("doc")
			sec.DocTitle, _ = el.Attr("doc-title")
			if c := el.Find("context"); c != nil {
				sec.Context = c.Text()
			}
			if c := el.Find("content"); c != nil {
				sec.Content = c.Text()
			}
			r.Sections = append(r.Sections, sec)
		case "document":
			d := &xmlstore.DocInfo{}
			d.FileName, _ = el.Attr("name")
			d.Title, _ = el.Attr("title")
			d.Format, _ = el.Attr("format")
			if ids, ok := el.Attr("id"); ok {
				if id, err := strconv.ParseUint(ids, 10, 64); err == nil {
					d.DocID = id
				}
			}
			r.Docs = append(r.Docs, d)
			r.Query.DocsOnly = true
		}
	}
	return r, nil
}

// Engine executes XDB queries against a local XML store.
type Engine struct {
	store *xmlstore.Store

	// sheets is the registered stylesheets, published whole: PUT
	// /xslt/{name} registers stylesheets while concurrent queries resolve
	// them, and a query loads it once, to key and to style with.
	sheets atomic.Pointer[sheetSet]
	// regMu serialises registrations' copy-and-publish of sheets; queries
	// never take it.
	regMu sync.Mutex

	// cache, when non-nil, memoises ExecuteInto's response bodies under
	// cacheKey.  Set once via EnableCache before the engine serves
	// traffic.
	cache *resultCache
}

// sheetSet is one state of the registered stylesheets: the sheets by
// name and gen, the registrations that made them.  Cached results of
// styled queries (and only those) key on gen, so re-registering a sheet
// invalidates them the same way a store mutation invalidates plain
// results.  A published sheetSet is never modified, so the generation a
// query keys on is always that of the sheets it is styled with.
type sheetSet struct {
	gen    uint64
	byName map[string]*xslt.Stylesheet
}

// NewEngine wraps a store.
func NewEngine(store *xmlstore.Store) *Engine {
	e := &Engine{store: store}
	e.sheets.Store(&sheetSet{byName: map[string]*xslt.Stylesheet{}})
	return e
}

// Store returns the underlying XML store.
func (e *Engine) Store() *xmlstore.Store { return e.store }

// EnableCache attaches an LRU result cache to ExecuteInto, capped at
// capacity bytes of keys and response bodies.  Call it during setup,
// before queries run; capacity <= 0 disables caching.  Execute never
// consults the cache.
func (e *Engine) EnableCache(capacity int64) {
	if capacity <= 0 {
		e.cache = nil
		return
	}
	e.cache = newResultCache(capacity)
}

// CacheStats snapshots the result cache counters; ok is false when no
// cache is enabled.
func (e *Engine) CacheStats() (stats CacheStats, ok bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.stats(), true
}

// RegisterStylesheet compiles and names a stylesheet for use via the
// xslt= query parameter.  Safe for use while queries execute.
func (e *Engine) RegisterStylesheet(name, src string) error {
	sheet, err := xslt.ParseStylesheet(src)
	if err != nil {
		return err
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	old := e.sheets.Load()
	next := &sheetSet{gen: old.gen + 1, byName: maps.Clone(old.byName)}
	next.byName[name] = sheet
	e.sheets.Store(next)
	return nil
}

// Stylesheet returns a registered stylesheet, or nil.
func (e *Engine) Stylesheet(name string) *xslt.Stylesheet {
	return e.sheets.Load().byName[name]
}

// ExecuteString parses and executes a URL-form query.
func (e *Engine) ExecuteString(raw string) (*Result, error) {
	q, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// ExecuteInto runs a parsed query and writes its XML representation (the
// transformed document when the query named a stylesheet, the result set
// otherwise) to w — the serving layer's path, and the only one the result
// cache serves.  With the cache on, a hit writes the cached body and a
// miss renders the body into memory, keeps it when it may, and writes it;
// with the cache off the result streams without a serialized copy.
// Execution errors are reported before anything is written.
func (e *Engine) ExecuteInto(q Query, w io.Writer) error {
	if e.cache == nil {
		res, err := e.Execute(q)
		if err != nil {
			return err
		}
		bw, ok := w.(*bufio.Writer)
		if !ok {
			bw = bufio.NewWriter(w)
		}
		writeBody(bw, res)
		return bw.Flush()
	}
	sheets := e.sheets.Load()
	key := e.cacheKey(q, sheets)
	body, err := e.cache.fetch(key, func() ([]byte, bool, error) { return e.compute(q, sheets, key) })
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// compute executes q, styled by sheets, for a cache miss under key, the
// fingerprint taken before executing, renders its response body, and
// reports whether the body may be kept: only when the fingerprint is
// still the same afterwards.  A write that landed mid-query has moved it, and every
// generation it folds only grows, so the pre-write key never returns: the
// body, which may mix both states, would only sit in the cache
// unreachable.
func (e *Engine) compute(q Query, sheets *sheetSet, key string) (body []byte, keep bool, err error) {
	res, err := e.execute(q, sheets)
	if err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	writeBody(&buf, res)
	if e.cacheKey(q, e.sheets.Load()) != key {
		return buf.Bytes(), false, nil
	}
	// The buffer grew by doubling, so its array can be up to twice the
	// body; a kept body gets an array of its own length, which is what
	// the cache charges.
	body = make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body, true, nil
}

// writeBody writes the body a result serves over the wire: the styled
// document when the query named a stylesheet, the result set otherwise.
func writeBody(w sgml.Writer, r *Result) {
	enc := sgml.NewEncoder(w, true)
	if r.Transformed != nil {
		enc.Node(r.Transformed)
		return
	}
	r.emit(enc)
}

// cacheKey builds the invalidation-aware cache key: the fingerprint of
// exactly the structures the query reads, the sheets among them, then
// the canonical query encoding.  It is the only proof a cached result is
// fresh.
func (e *Engine) cacheKey(q Query, sheets *sheetSet) string {
	var b strings.Builder
	b.Grow(40)
	b.WriteString(strconv.FormatUint(e.fingerprint(q, sheets), 16))
	b.WriteByte('|')
	b.WriteString(q.Encode())
	return b.String()
}

// fingerprint folds the generations of the structures the query reads.
// A section-shaped query's are the store's to name (Store.QueryGen): the
// posting lists of its terms and of an exact heading, so a write to
// document A leaves cached queries that only touched document B
// reachable, and one that could change a query's answer changes its key.
// An XPath reads whole documents, so it keys on the store's generation,
// which every write moves.
func (e *Engine) fingerprint(q Query, sheets *sheetSet) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime64 }
	if q.XSLT != "" {
		// Only a styled result depends on the registered sheets.
		mix(sheets.gen)
	}
	if q.XPath != "" {
		mix(e.store.Generation())
	} else {
		mix(e.store.QueryGen(xmlstore.SectionQuery{Context: q.Context, ContextPrefix: q.ContextPrefix, Content: q.Content}))
	}
	return h
}

// Execute evaluates a parsed query against the store.  Every
// section-shaped query — any mix of context, prefix, content and phrase
// — is one call into the store's pipeline, which applies the limit
// itself.  Execute never consults the result cache, which holds
// ExecuteInto's response bodies only: its callers (core's Query, the
// databank's local and legacy sources) serve no benchmark workload.
func (e *Engine) Execute(q Query) (*Result, error) {
	return e.execute(q, e.sheets.Load())
}

// execute is Execute styled by sheets.
func (e *Engine) execute(q Query, sheets *sheetSet) (*Result, error) {
	r := &Result{Query: q}
	var err error
	switch {
	case q.XPath != "":
		r.Sections, err = e.executeXPath(q)
	case q.DocsOnly:
		if q.Content == "" {
			return nil, fmt.Errorf("xdb: document scope requires content=")
		}
		r.Docs, err = e.store.ContentSearchDocsN(q.Content, q.Limit)
	default:
		err = e.store.Sections(xmlstore.SectionQuery{
			Context: q.Context, ContextPrefix: q.ContextPrefix,
			Content: q.Content, Phrase: q.Phrase, Limit: q.Limit,
		}, func(sec xmlstore.Section) bool {
			r.Sections = append(r.Sections, sec)
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	if q.XSLT != "" {
		sheet := sheets.byName[q.XSLT]
		if sheet == nil {
			return nil, fmt.Errorf("xdb: no stylesheet %q registered", q.XSLT)
		}
		t, err := sheet.Transform(r.XML())
		if err != nil {
			return nil, err
		}
		r.Transformed = t
	}
	return r, nil
}

// executeXPath evaluates an XPath-lite expression against matching
// documents — the paper's "full-fledged XML querying ... over any
// information repository".  Context, content and phrase predicates pick
// the candidate documents: those with a section that satisfies them all,
// as the same query without xpath= would return it.  A bare xpath= scans
// every document.  Each selected node becomes a result section whose content is
// the node's serialised XML (elements) or text.
func (e *Engine) executeXPath(q Query) ([]xmlstore.Section, error) {
	path, err := xslt.CompilePath(q.XPath)
	if err != nil {
		return nil, err
	}
	var docs []*xmlstore.DocInfo
	if q.Content == "" && q.Context == "" {
		docs, err = e.store.Documents()
	} else {
		// The candidates are the documents of the sections every
		// predicate selects, in DocID order.
		err = e.store.Sections(xmlstore.SectionQuery{
			Context: q.Context, ContextPrefix: q.ContextPrefix,
			Content: q.Content, Phrase: q.Phrase,
		}, func(sec xmlstore.Section) bool {
			docs = append(docs, &xmlstore.DocInfo{DocID: sec.DocID, FileName: sec.DocName, Title: sec.DocTitle})
			return true
		})
		slices.SortFunc(docs, func(a, b *xmlstore.DocInfo) int { return cmp.Compare(a.DocID, b.DocID) })
		docs = slices.CompactFunc(docs, func(a, b *xmlstore.DocInfo) bool { return a.DocID == b.DocID })
	}
	if err != nil {
		return nil, err
	}
	var out []xmlstore.Section
	for _, d := range docs {
		tree, err := e.store.Reconstruct(d.DocID)
		if err != nil {
			if xmlstore.IsGone(err) {
				// Reconstruct chases physical links; a concurrent delete
				// makes it fail part-way.  The document is going away.
				continue
			}
			return nil, err
		}
		for _, n := range path.Select(tree) {
			content := n.Text()
			if n.Kind == sgml.ElementNode {
				content = sgml.Serialize(n)
			}
			out = append(out, xmlstore.Section{
				DocID:    d.DocID,
				DocName:  d.FileName,
				DocTitle: d.Title,
				Context:  q.XPath,
				Content:  content,
			})
			if q.Limit > 0 && len(out) >= q.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// SectionMatchesContent applies a query's content predicate to an
// already-materialised section (the databank's residual filter over
// sections a source returned) by the store's rule: every term, as
// textindex.Tokenize cuts them, is a word of the heading or the content,
// and a phrase occurs in one of them (textindex.HasPhrase).
func SectionMatchesContent(s xmlstore.Section, q Query) bool {
	if q.Content == "" {
		return true
	}
	has := func(phrase []string) bool {
		return textindex.HasPhrase(s.Context, phrase) || textindex.HasPhrase(s.Content, phrase)
	}
	terms := textindex.Tokenize(q.Content)
	if q.Phrase {
		return len(terms) > 0 && has(terms)
	}
	for i := range terms {
		if !has(terms[i : i+1]) {
			return false
		}
	}
	return len(terms) > 0
}

// SectionMatchesContext applies a query's context predicate to a section.
func SectionMatchesContext(s xmlstore.Section, q Query) bool {
	if q.Context == "" {
		return true
	}
	have, want := xmlstore.NormalizeContext(s.Context), xmlstore.NormalizeContext(q.Context)
	if q.ContextPrefix {
		return strings.HasPrefix(have, want)
	}
	return have == want
}
