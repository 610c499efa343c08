package xmlstore

import (
	"fmt"
	"sort"
	"strings"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// This file implements the paper's query kernel (§2.1.4):
//
//	"The keyword-based context and content search is performed by first
//	querying the text index for the search key.  Each node returned from
//	the index search is then processed based on its designated unique
//	ROWID.  The processing of the node involves traversing up the tree
//	structure via its parent or sibling node until the first context is
//	found. [...] Once a particular CONTEXT is found, traversing back down
//	the tree structure via the sibling node retrieves the corresponding
//	content text."
//
// Every section-shaped query runs through one serial, demand-driven pull
// pipeline (Store.Sections):
//
//	source   text-index hits (the AND of the query's terms; a phrase
//	         keeps a hit only when the hit's own text holds it), or the
//	         context btree's rowids for an exact or prefix heading
//	resolve  hit -> governing CONTEXT through the derived index, deduped
//	         (a context rowid, and a hit on a heading's own text, is its
//	         own section)
//	filter   the one predicate the source does not already guarantee,
//	         compiled once per query
//	limit    stop after q.Limit sections
//	fn       the caller's sink
//
// Nothing runs ahead of the sink, so the same query does the same work
// every time and a capped query pays for the sections it returns.  Rows
// reach the pipeline sectionChunk at a time through the node cache and
// batched heap fetches; the pointer-chasing walk remains as the fallback
// for nodes the derived index does not cover, and as the ablation
// baseline.

// ContextFor resolves a node to its governing CONTEXT node: the nearest
// preceding heading in document order, at any ancestor level.  Returns
// nil when the node has no governing context (raw XML with no headings).
//
// netmarkvet:hotpath
func (s *Store) ContextFor(n *Node) (*Node, error) {
	rid, ctx, err := s.resolveSection(n)
	if err != nil || ctx != nil || rid.IsZero() {
		return ctx, err
	}
	return s.FetchNode(rid)
}

// resolveSection maps a node to the rowid of its governing CONTEXT
// without materialising anything (zero: no heading governs it).  Text
// nodes resolve through the derived index maintained at ingest — one map
// probe instead of an O(siblings × depth) chain of row fetches.  Nodes
// without an index entry fall back to the pointer-chasing walk, which
// has the CONTEXT node in hand and returns it as ctx; a CONTEXT, which
// has no entry, is its own at once.
//
// netmarkvet:hotpath
func (s *Store) resolveSection(n *Node) (rid ordbms.RowID, ctx *Node, err error) {
	if r, ok := s.indexedSection(n.RowID); ok {
		return r, nil, nil
	}
	if ctx, err = s.contextForWalk(n); err != nil || ctx == nil {
		return ordbms.ZeroRowID, nil, err
	}
	return ctx.RowID, ctx, nil
}

// indexedSection probes the derived index for the CONTEXT governing the
// text node at rid (zero: none does); ok is false when the index holds no
// entry for rid, or is off.
func (s *Store) indexedSection(rid ordbms.RowID) (ctx ordbms.RowID, ok bool) {
	if s.ctxIdxOff {
		return ordbms.ZeroRowID, false
	}
	s.ctxIdxMu.RLock()
	ctx, ok = s.ctxIdx[rid]
	s.ctxIdxMu.RUnlock()
	return ctx, ok
}

// docOf returns the document n belongs to.  Only root and CONTEXT rows
// store their docid; any other row takes it from the heading that governs
// it, found by the derived index, or else from its nearest ancestor that
// stores one — the root at the latest.
func (s *Store) docOf(n *Node) (uint64, error) {
	for n.DocID == 0 {
		up := n.ParentRowID
		if ctx, _ := s.indexedSection(n.RowID); !ctx.IsZero() {
			up = ctx
		}
		if up.IsZero() {
			return 0, fmt.Errorf("xmlstore: corrupt node %v: a root that names no document", n.RowID)
		}
		var err error
		if n, err = s.FetchNode(up); err != nil {
			return 0, err
		}
	}
	return n.DocID, nil
}

// contextForWalk is the paper's traversal: scan left across preceding
// siblings, then climb, until the first CONTEXT node.  It is the
// correctness baseline the derived index is tested against.  A CONTEXT
// governs itself: a hit on a folded heading's text is in that heading.
func (s *Store) contextForWalk(n *Node) (*Node, error) {
	if n.Class == sgml.ClassContext {
		return n, nil
	}
	cur := n
	for cur != nil {
		// Scan left across preceding siblings.
		p := cur
		for {
			prev, err := s.PrevSibling(p)
			if err != nil {
				return nil, err
			}
			if prev == nil {
				break
			}
			if prev.Class == sgml.ClassContext {
				return prev, nil
			}
			p = prev
		}
		parent, err := s.Parent(cur)
		if err != nil {
			return nil, err
		}
		if parent != nil && parent.Class == sgml.ClassContext {
			// The hit is inside the heading itself.
			return parent, nil
		}
		cur = parent
	}
	return nil, nil
}

// SectionOf materialises the Section governed by a CONTEXT node:
// the heading plus the text of everything between it and the next
// CONTEXT at the same level (or the end of the parent).  The content is
// assembled into one reused strings.Builder instead of a tree of
// intermediate joins.
func (s *Store) SectionOf(ctx *Node) (Section, error) {
	sec := Section{
		DocID:      ctx.DocID,
		Context:    strings.TrimSpace(ctx.Data),
		ContextRID: ctx.RowID,
	}
	if info, err := s.Document(ctx.DocID); err == nil {
		sec.DocName = info.FileName
		sec.DocTitle = info.Title
	}
	var b strings.Builder
	cur, err := s.NextSibling(ctx)
	if err != nil {
		return sec, err
	}
	for cur != nil && cur.Class != sgml.ClassContext {
		if err := s.appendSubtreeText(cur, &b); err != nil {
			return sec, err
		}
		cur, err = s.NextSibling(cur)
		if err != nil {
			return sec, err
		}
	}
	sec.Content = b.String()
	return sec, nil
}

// appendSubtreeText appends each non-empty trimmed text run beneath
// root, a folded heading's included, in document order and
// space-separated, to b.
func (s *Store) appendSubtreeText(root *Node, b *strings.Builder) error {
	return walkSubtree(root, s.FetchNode, func(n *Node, _ int) {
		text, ok := n.OwnText()
		if !ok {
			return
		}
		if t := strings.TrimSpace(text); t != "" {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t)
		}
	})
}

// subtreeText collects the text beneath a node (physical hops only).
func (s *Store) subtreeText(n *Node) (string, error) {
	var b strings.Builder
	if err := s.appendSubtreeText(n, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// SectionQuery is a section-shaped query: a heading predicate, a content
// predicate, or both, and a cap.
type SectionQuery struct {
	// Context is the heading to match, case- and whitespace-insensitive
	// ("" = any heading): the paper's Context=Introduction.
	Context string
	// ContextPrefix matches Context as a prefix of the heading (Context=Tech*).
	ContextPrefix bool
	// Content holds the terms a section must contain ("" = none): the
	// paper's Content=Shuttle.
	Content string
	// Phrase requires the terms adjacent and in order.
	Phrase bool
	// Limit stops the traversal after this many sections (<= 0 = all).
	Limit int
}

// Sections runs q through the pipeline described at the top of this file
// and hands fn each distinct matching section as soon as it is
// materialised — physical order when the context btree drives, first-hit
// order when the text index does — until fn returns false or q.Limit
// sections have been delivered.
//
// The paper's Context=Technology Gap & Content=Shrinking "returns the
// 'Technology Gap' contexts (sections) of all documents where the term
// 'Shrinking' occurs within the Technology Gap context".  For such a
// query the planner picks the cheaper source — the heading's rowids when
// the heading is rarer than the rarest term, the posting lists otherwise
// — and the other predicate becomes the filter.  A term predicate means
// the same under both plans: every term occurs, by the index tokenizer,
// in the section's heading or content.  A phrase is found in the text of
// one node, by textindex.HasPhrase, when the text index drives, and by
// case-insensitive substring of content plus heading when it filters; a
// phrase-only query skips hits no heading governs.
func (s *Store) Sections(q SectionQuery, fn func(Section) bool) error {
	return s.sections(q, s.contentDrives(q), fn)
}

// sections is Sections with the source already chosen.  fromContent is
// valid for every q but a prefix heading, which only the btree can drive.
func (s *Store) sections(q SectionQuery, fromContent bool, fn func(Section) bool) error {
	keep := q.residual(fromContent)
	n := 0
	emit := func(sec Section) bool {
		if keep != nil && !keep(sec) {
			return true
		}
		n++
		return fn(sec) && (q.Limit <= 0 || n < q.Limit)
	}
	if fromContent {
		return s.contentSections(q, emit)
	}
	// With nothing to filter, the first q.Limit candidates are the result:
	// push the cap into candidate collection.
	bound := 0
	if keep == nil {
		bound = q.Limit
	}
	return s.contextSections(s.contextRIDs(q, bound), emit)
}

// residual compiles the predicate the driving source leaves unchecked
// (nil: none), once per query.
func (q SectionQuery) residual(fromContent bool) func(Section) bool {
	switch {
	case fromContent && q.Context == "", !fromContent && q.Content == "":
		return nil
	case fromContent:
		want := normalizeContext(q.Context)
		return func(sec Section) bool { return normalizeContext(sec.Context) == want }
	case q.Phrase:
		want := strings.ToLower(q.Content)
		return func(sec Section) bool {
			return strings.Contains(strings.ToLower(sec.Content+" "+sec.Context), want)
		}
	}
	terms := textindex.Tokenize(q.Content)
	return func(sec Section) bool {
		have := make(map[string]bool)
		for _, text := range [...]string{sec.Context, sec.Content} {
			for _, term := range textindex.Tokenize(text) {
				have[term] = true
			}
		}
		for _, term := range terms {
			if !have[term] {
				return false
			}
		}
		return true
	}
}

// contentDrives is the planner: the text index drives a query with no
// heading, and a heading-plus-terms query whose heading is more frequent
// than its rarest term.  Both plans return the same sections; the choice
// only affects cost.
func (s *Store) contentDrives(q SectionQuery) bool {
	switch {
	case q.Context == "":
		return true
	case q.Content == "" || q.ContextPrefix || q.Phrase:
		return false
	}
	return s.ContextCount(q.Context) > s.contentDF(q.Content)
}

// contentDF estimates the driving cost of a content query as the smallest
// document frequency among its terms.
func (s *Store) contentDF(query string) int {
	min := -1
	for _, term := range textindex.Tokenize(query) {
		df := s.content.DF(term)
		if min < 0 || df < min {
			min = df
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// contextRIDs snapshots the rowids of the CONTEXT nodes matching q's
// heading predicate.  A prefix query with bound > 0 keeps only the bound
// physically-smallest candidates, so Context=A*&limit=1 over a million
// headings holds one rowid, not a million; the physical-order result
// prefix is unchanged, and only a candidate deleted between this snapshot
// and materialisation can make a capped result shorter than an uncapped
// one would have been.
func (s *Store) contextRIDs(q SectionQuery, bound int) []ordbms.RowID {
	key := normalizeContext(q.Context)
	var top ridBound
	s.ctxMu.RLock()
	if q.ContextPrefix {
		s.contexts.AscendPrefixFunc(key,
			func(k string) bool { return strings.HasPrefix(k, key) },
			func(_ string, vals []ordbms.RowID) bool {
				for _, rid := range vals {
					top.push(rid, bound)
				}
				return true
			})
	} else {
		top.rids = append(top.rids, s.contexts.Get(key)...)
	}
	s.ctxMu.RUnlock()
	return top.rids
}

// ridBound keeps the k physically-smallest RowIDs pushed into it, as a
// max-heap rooted at rids[0]; k <= 0 keeps them all, unordered.
type ridBound struct {
	rids []ordbms.RowID
}

func (h *ridBound) push(rid ordbms.RowID, k int) {
	if k <= 0 {
		h.rids = append(h.rids, rid)
		return
	}
	if len(h.rids) < k {
		h.rids = append(h.rids, rid)
		i := len(h.rids) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h.rids[p].Less(h.rids[i]) {
				break
			}
			h.rids[p], h.rids[i] = h.rids[i], h.rids[p]
			i = p
		}
		return
	}
	if !rid.Less(h.rids[0]) {
		return
	}
	h.rids[0] = rid
	i, n := 0, len(h.rids)
	for {
		big, l, r := i, 2*i+1, 2*i+2
		if l < n && h.rids[big].Less(h.rids[l]) {
			big = l
		}
		if r < n && h.rids[big].Less(h.rids[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.rids[big], h.rids[i] = h.rids[i], h.rids[big]
		i = big
	}
}

// sectionChunk is how many rowids the pipeline resolves per batched
// fetch, so a capped query over a huge candidate list allocates per
// chunk, not per corpus.
const sectionChunk = 512

// contextSections is the context source: it sorts rids (a private copy)
// into physical order and emits the section each one governs.
func (s *Store) contextSections(rids []ordbms.RowID, emit func(Section) bool) error {
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	for len(rids) > 0 {
		chunk := rids[:min(sectionChunk, len(rids))]
		rids = rids[len(chunk):]
		nodes, err := s.fetchNodesBatch(chunk)
		if err != nil {
			return err
		}
		for _, ctx := range nodes {
			if ctx == nil {
				continue // deleted between snapshot and fetch
			}
			sec, err := s.SectionOf(ctx)
			if err == ordbms.ErrRecordDeleted {
				// A concurrent delete removed part of this section between
				// the index probe and the traversal: skip it, the generation
				// bump has already invalidated cached results.
				continue
			}
			if err != nil || !emit(sec) {
				return err
			}
		}
	}
	return nil
}

// forEachHitNode streams the nodes the text index holds for query — the
// AND of its terms — in physical order until fn returns false.  The hit
// list leaves the index one id at a time and the rows arrive
// sectionChunk at a time through one reused buffer, so a capped scan
// over a stop-word-sized posting list stops after a chunk or two
// instead of decoding the whole list.
func (s *Store) forEachHitNode(query string, fn func(hit *Node) (more bool, err error)) error {
	it := s.content.AndIter(query)
	chunk := make([]ordbms.RowID, 0, sectionChunk)
	for {
		chunk = chunk[:0]
		for len(chunk) < sectionChunk {
			h, ok := it.Next()
			if !ok {
				break
			}
			chunk = append(chunk, ordbms.RowIDFromUint64(h))
		}
		if len(chunk) == 0 {
			return nil
		}
		nodes, err := s.fetchNodesBatch(chunk)
		if err != nil {
			return err
		}
		for _, hit := range nodes {
			if hit == nil {
				continue // deleted between index probe and fetch
			}
			if more, err := fn(hit); err != nil || !more {
				return err
			}
		}
	}
}

// phraseFilter is the test a phrase query puts each AND hit to: the
// index stores no positions, and the hit's text is in hand once its row
// is.  nil means every hit passes: the query is no phrase, or a phrase
// of one term, which the AND already is.
func phraseFilter(query string, phrase bool) func(hit *Node) bool {
	if !phrase {
		return nil
	}
	terms := textindex.Tokenize(query)
	if len(terms) < 2 {
		return nil
	}
	return func(hit *Node) bool { return textindex.HasPhrase(hit.Data, terms) }
}

// contentSections is the content source: each hit resolves to its
// governing CONTEXT and each distinct section is emitted once, so
// duplicate hits on a section cost a map probe, never a second traversal.
// A phrase's text check runs first: it reads only the fetched row, while
// resolving may walk the tree when the context index is off.
func (s *Store) contentSections(q SectionQuery, emit func(Section) bool) error {
	seen := make(map[ordbms.RowID]bool)
	keep := phraseFilter(q.Content, q.Phrase)
	return s.forEachHitNode(q.Content, func(hit *Node) (bool, error) {
		if keep != nil && !keep(hit) {
			return true, nil
		}
		sec, fresh, err := s.hitSection(hit, seen, q.Phrase)
		if err == ordbms.ErrRecordDeleted {
			return true, nil // document mid-delete: skip the hit
		}
		if err != nil {
			return false, err
		}
		return !fresh || emit(sec), nil
	})
}

// hitSection materialises the section a hit belongs to, unless seen
// already has it (fresh = false).  A hit no heading governs (raw XML) is
// its own section, built by fallbackSection — or none at all when
// skipHeadless is set.
func (s *Store) hitSection(hit *Node, seen map[ordbms.RowID]bool, skipHeadless bool) (sec Section, fresh bool, err error) {
	rid, ctx, err := s.resolveSection(hit)
	if err != nil {
		return sec, false, err
	}
	key := rid
	if rid.IsZero() {
		key = hit.RowID
	}
	if seen[key] || rid.IsZero() && skipHeadless {
		return sec, false, nil
	}
	seen[key] = true
	if rid.IsZero() {
		sec, err = s.fallbackSection(hit)
		return sec, err == nil, err
	}
	if ctx == nil {
		if ctx, err = s.FetchNode(rid); err != nil {
			return sec, false, err
		}
	}
	sec, err = s.SectionOf(ctx)
	return sec, err == nil, err
}

// fallbackSection builds a section for a text hit with no heading.
func (s *Store) fallbackSection(n *Node) (Section, error) {
	parent, err := s.Parent(n)
	if err != nil {
		return Section{}, err
	}
	scope := n
	if parent != nil {
		scope = parent
	}
	txt, err := s.subtreeText(scope)
	if err != nil {
		return Section{}, err
	}
	docID, err := s.docOf(scope)
	if err != nil {
		return Section{}, err
	}
	sec := Section{DocID: docID, Content: txt, ContextRID: scope.RowID}
	if info, err := s.Document(docID); err == nil {
		sec.DocName = info.FileName
		sec.DocTitle = info.Title
	}
	return sec, nil
}

// collect gathers the sections of q.
func (s *Store) collect(q SectionQuery) ([]Section, error) {
	var out []Section
	err := s.Sections(q, func(sec Section) bool {
		out = append(out, sec)
		return true
	})
	return out, err
}

// SearchN returns at most limit (<= 0: all) sections matching a heading,
// content terms, or both; see Sections.
func (s *Store) SearchN(heading, query string, limit int) ([]Section, error) {
	return s.collect(SectionQuery{Context: heading, Content: query, Limit: limit})
}

// ContextSearchN returns the sections whose heading matches (case- and
// whitespace-insensitive): the paper's Context=Introduction.
func (s *Store) ContextSearchN(heading string, limit int) ([]Section, error) {
	return s.SearchN(heading, "", limit)
}

// ContextPrefixSearchN matches headings by prefix (Context=Tech*).
func (s *Store) ContextPrefixSearchN(prefix string, limit int) ([]Section, error) {
	return s.collect(SectionQuery{Context: prefix, ContextPrefix: true, Limit: limit})
}

// ContentSearchN returns the sections containing every term of the
// query: the paper's Content=Shuttle.  Hits are grouped by their
// governing context so each section appears once.
func (s *Store) ContentSearchN(query string, limit int) ([]Section, error) {
	return s.SearchN("", query, limit)
}

// ContentSearchDocsN returns the distinct documents containing the query
// — the paper's "a content query such as Content=Shuttle will return all
// documents that contain the term 'Shuttle' anywhere in the document" —
// stopping the hit scan after limit (<= 0: all) documents.  Hits arrive
// in physical RowID order — usually, but not necessarily, ingestion order
// (a small document can fill room left on an earlier page) — so a capped query returns
// *some* limit matching documents, sorted by DocID, not a guaranteed
// lowest-DocID prefix.
func (s *Store) ContentSearchDocsN(query string, limit int) ([]*DocInfo, error) {
	seen := make(map[uint64]bool)
	// Every hit under one heading is in the heading's document: the first
	// finds it, and the rest are passed over without a fetch.
	sections := make(map[ordbms.RowID]bool)
	var out []*DocInfo
	err := s.forEachHitNode(query, func(hit *Node) (bool, error) {
		if ctx, _ := s.indexedSection(hit.RowID); !ctx.IsZero() {
			if sections[ctx] {
				return true, nil
			}
			sections[ctx] = true
		}
		docID, err := s.docOf(hit)
		if err == nil && !seen[docID] {
			seen[docID] = true
			var info *DocInfo
			if info, err = s.Document(docID); err == nil {
				out = append(out, info)
			}
		}
		if IsGone(err) {
			// A row above the hit or the DOC row vanished since the text
			// hit: the document is mid-delete, skip it.
			return true, nil
		}
		if err != nil {
			return false, err
		}
		return limit <= 0 || len(out) < limit, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out, nil
}
