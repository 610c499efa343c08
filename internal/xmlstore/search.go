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
// The walk up from each hit runs once, at ingest (governingContexts):
// each node's own text is posted in the text index under its section's
// key row — the CONTEXT that governs it, or, in raw XML under no heading,
// its parent element — so a text-index hit is a section.  Each CONTEXT
// row is posted, the same way, in the heading index under its normalised
// heading, so a heading and a word are both posting lists.  Every
// section-shaped query runs through one serial, demand-driven pull
// pipeline (Store.Sections):
//
//	source   the key rows of the candidate sections, ascending: the AND
//	         of the query's terms, the heading's posting list, or both
//	         intersected; for a prefix heading, the rows of every heading
//	         it begins less those the AND does not hold
//	filter   a phrase, on each materialised section
//	limit    stop after q.Limit sections
//	fn       the caller's sink
//
// Nothing runs ahead of the sink, so the same query does the same work
// every time and a capped query pays for the sections it returns.  Key
// rows are pulled on demand — a first chunk sized to the limit, doubling
// up to sectionChunk — and each resolves through the node cache.

// ContextFor resolves a node to its governing CONTEXT node by the paper's
// traversal: scan left across preceding siblings, then climb, until the
// first CONTEXT node — the nearest preceding heading in document order,
// at any ancestor level.  A CONTEXT governs itself: a hit on a folded
// heading's text is in that heading.  Returns nil when no heading governs
// the node (raw XML).  Queries never walk: ingest posts each node's words
// under the heading this walk finds.
func (s *Store) ContextFor(n *Node) (*Node, error) {
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

// docOf returns the document n belongs to.  Only root and CONTEXT rows
// store their docid; any other row takes it from its nearest ancestor
// that stores one — the root at the latest.
func (s *Store) docOf(n *Node) (uint64, error) {
	for n.DocID == 0 {
		if n.ParentRowID.IsZero() {
			return 0, fmt.Errorf("xmlstore: corrupt node %v: a root that names no document", n.RowID)
		}
		var err error
		if n, err = s.FetchNode(n.ParentRowID); err != nil {
			return 0, err
		}
	}
	return n.DocID, nil
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
// and hands fn each matching section, in the physical order of its key
// row, as soon as it is materialised, until fn returns false or q.Limit
// sections have been delivered.
//
// The paper's Context=Technology Gap & Content=Shrinking "returns the
// 'Technology Gap' contexts (sections) of all documents where the term
// 'Shrinking' occurs within the Technology Gap context": the sections
// whose key row is posted under the heading in the heading index and
// under every term in the text index, one intersection of their posting
// lists with the rarest driving.  A section holds the words of its
// heading and of the text that heading governs; a word under a nested
// heading is that heading's, though SectionOf's content shows it too.  A
// phrase must also occur, by textindex.HasPhrase, in the section's heading
// or in its content.
func (s *Store) Sections(q SectionQuery, fn func(Section) bool) error {
	var phrase []string // the phrase to find beyond the AND; a one-term one is the AND
	if q.Phrase {
		if terms := textindex.Tokenize(q.Content); len(terms) > 1 {
			phrase = terms
		}
	}
	n := 0
	return s.forEachKeyRow(pullSize(q.Limit), s.keyRows(q), func(key *Node) (bool, error) {
		sec, err := s.keySection(key)
		if IsGone(err) {
			// A concurrent delete removed part of this section since the
			// index probe: skip it, the generation bump has already
			// invalidated cached results.
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if phrase != nil && !textindex.HasPhrase(sec.Context, phrase) && !textindex.HasPhrase(sec.Content, phrase) {
			return true, nil
		}
		n++
		return fn(sec) && (q.Limit <= 0 || n < q.Limit), nil
	})
}

// QueryGen is the cache key of q's answer: a value that moves whenever a
// write could change what Sections returns for q.  It folds the
// generations of the posting lists q's plan reads (textindex.Index.QueryGen)
// — its terms', and its heading's when the heading is exact — so a write
// that touches none of them leaves the key where it was.  A prefix
// heading reads lists no one term names, so it folds the store's
// generation, which every write moves.
func (s *Store) QueryGen(q SectionQuery) uint64 {
	if q.Context != "" && q.ContextPrefix {
		return s.Generation()
	}
	h := s.content.QueryGen(textindex.Tokenize(q.Content)...)
	if q.Context != "" {
		h = (h ^ s.headings.QueryGen(NormalizeContext(q.Context))) * 1099511628211 // FNV-1a's prime
	}
	return h
}

// keyRows is the source of q's key rows, ascending: the AND of its terms,
// the heading's posting list, the intersection of the two, or for a
// prefix heading the rows of every heading it begins, less those the AND
// does not hold.
func (s *Store) keyRows(q SectionQuery) func() (ordbms.RowID, bool) {
	switch {
	case q.Context == "":
		return iterRows(s.content.AndIter(q.Content))
	case !q.ContextPrefix && q.Content == "":
		return iterRows(s.headings.Postings(NormalizeContext(q.Context)))
	case !q.ContextPrefix:
		return iterRows(s.headings.Postings(NormalizeContext(q.Context)).And(s.content.AndIter(q.Content)))
	}
	// With no terms to hold, the first q.Limit candidates are the result:
	// push the cap into candidate collection, so Context=A*&limit=1 over a
	// million headings holds one rowid, not a million.  Only a candidate
	// deleted before it is materialised can make a capped result shorter
	// than an uncapped one would have been.
	bound := 0
	if q.Content == "" {
		bound = q.Limit
	}
	var top ridBound
	s.headings.EachPrefix(NormalizeContext(q.Context), func(_ string, ids *textindex.IDIter) {
		for id, ok := ids.Next(); ok; id, ok = ids.Next() {
			top.push(ordbms.RowIDFromUint64(id), bound)
		}
	})
	rids := top.rids
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	if q.Content != "" {
		rids = s.holding(rids, q.Content)
	}
	return func() (ordbms.RowID, bool) {
		if len(rids) == 0 {
			return ordbms.ZeroRowID, false
		}
		rid := rids[0]
		rids = rids[1:]
		return rid, true
	}
}

// holding keeps, in place, the rids (ascending) that hold every term of
// query, found by seeking one AND iterator through them: blocks of a
// posting list that no rid falls in are never decoded.
func (s *Store) holding(rids []ordbms.RowID, query string) []ordbms.RowID {
	it := s.content.AndIter(query)
	out := rids[:0]
	var at uint64 // the last id the iterator gave; no row is ZeroRowID
	for _, rid := range rids {
		if r := rid.Uint64(); at < r {
			var ok bool
			if at, ok = it.SeekGE(r); !ok {
				break
			}
		}
		if at == rid.Uint64() {
			out = append(out, rid)
		}
	}
	return out
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

// sectionChunk is the most rowids the pipeline pulls and resolves at a
// time, so a query over a huge candidate list holds a chunk, not the
// corpus.
const sectionChunk = 512

// pullSize is the first chunk a query with this limit pulls: enough for
// the limit, with a floor, so a query that skips a few candidates seldom
// pulls twice; a whole chunk when there is no limit.
func pullSize(limit int) int {
	if limit <= 0 {
		return sectionChunk
	}
	return min(max(limit, 16), sectionChunk)
}

// iterRows adapts an ID iterator to the key-row source forEachKeyRow
// pulls from.
func iterRows(it *textindex.IDIter) func() (ordbms.RowID, bool) {
	return func() (ordbms.RowID, bool) {
		id, ok := it.Next()
		return ordbms.RowIDFromUint64(id), ok
	}
}

// forEachKeyRow resolves the rows next yields, ascending, and hands each
// to fn until next is done or fn returns false.  It pulls first rows,
// then twice as many each time up to sectionChunk, so a capped query
// resolves about as many key rows as its limit needs and a stop-word-sized
// posting list is never decoded whole.
func (s *Store) forEachKeyRow(first int, next func() (ordbms.RowID, bool), fn func(key *Node) (more bool, err error)) error {
	var rids []ordbms.RowID
	var keys []*Node
	for size := first; ; size = min(2*size, sectionChunk) {
		rids = rids[:0]
		for len(rids) < size {
			rid, ok := next()
			if !ok {
				break
			}
			rids = append(rids, rid)
		}
		if len(rids) == 0 {
			return nil
		}
		keys = keys[:0]
		for _, rid := range rids {
			key, err := s.FetchNode(rid)
			if err == ordbms.ErrRecordDeleted {
				continue // deleted between index probe and fetch
			}
			if err != nil {
				return err
			}
			keys = append(keys, key)
		}
		for _, key := range keys {
			if more, err := fn(key); err != nil || !more {
				return err
			}
		}
	}
}

// keySection materialises the section a key row heads: a CONTEXT's, or
// that of a scope no heading governs.
func (s *Store) keySection(key *Node) (Section, error) {
	if key.Class == sgml.ClassContext {
		return s.SectionOf(key)
	}
	return s.fallbackSection(key)
}

// fallbackSection builds the section of a scope no heading governs (raw
// XML): the text of its whole subtree, under no heading.
func (s *Store) fallbackSection(scope *Node) (Section, error) {
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
// query: the paper's Content=Shuttle.  Each text-index hit is one
// section.
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
	var out []*DocInfo
	err := s.forEachKeyRow(pullSize(limit), iterRows(s.content.AndIter(query)), func(key *Node) (bool, error) {
		docID, err := s.docOf(key)
		if err == nil && !seen[docID] {
			seen[docID] = true
			var info *DocInfo
			if info, err = s.Document(docID); err == nil {
				out = append(out, info)
			}
		}
		if IsGone(err) {
			// A row above the key row or the DOC row vanished since the
			// text hit: the document is mid-delete, skip it.
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
