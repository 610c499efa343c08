package xmlstore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// flatNode is the intermediate record the tree flattener emits before the
// linked insert.
type flatNode struct {
	class sgml.NodeClass
	name  string // "" for a text node
	data  string
	attrs string

	parent, prev, next, child int // indexes into the flat slice; -1 = none
	rid                       ordbms.RowID
	// linkAt holds, parent first, the payload offsets of the four link
	// columns in the node's record as last encoded, for the link patch.
	linkAt [4]uint16
	tag    int64 // the TAG code of (class, name); -1 = none yet
}

// ownText is Node.OwnText for a node not yet stored.
func (fn *flatNode) ownText() (string, bool) { return ownText(fn.class, fn.data, fn.child >= 0) }

// preparedDoc is a document that has been through the CPU-bound half of
// ingestion — flattening, record encoding, text tokenization — and is
// ready for its ordered write into the store.  The batch pipeline builds
// preparedDocs in parallel workers; the single writer goroutine consumes
// them.  No row of the document is kept: each record is encoded from its
// flatNode (see add and encode), which is all a row would repeat.
type preparedDoc struct {
	meta  docform.Meta
	docID uint64
	// titled marks a root whose only attribute is title= DOC.title: its
	// attrs are stored empty, not NULL (see Node.Titled).
	titled bool
	// schema is the XML table's, with its symbol table as it was when
	// the document was prepared, or when the writer found the table had
	// trained since (see reencode): every record of the document is
	// encoded with it, the writer's re-encodes included.
	schema ordbms.Schema
	flat   []flatNode
	buf    []byte   // the records' backing array: every encode appends to it
	recs   [][]byte // per node, its record in buf; the insert patches the present links in
	far    []uint64 // per record, the link columns encoded far; the others are near
	// raw and stored sum the records' STRING bytes and what their payloads
	// spend on them (see ordbms.Schema.EncodeOffsets), each record counted
	// once, when it is added (see add).
	raw, stored int
	// untagged lists the nodes whose (class, name) had no TAG code when
	// the document was prepared: their tag column and record wait for the
	// ordered writer, which assigns codes in document order.
	untagged []int
	// toks[ends[k]:ends[k+1]] are the words of every node posted under
	// node k, a section's key row (see postKey): tokenized and grouped in
	// the parse workers, so indexing is one posting insert per section.
	toks []string
	ends []int32
}

// prepWorker is what one preparing goroutine reuses from document to
// document: its Terms, and the terms of the document at hand in text
// order, before postTerms groups them by section.
type prepWorker struct {
	terms textindex.Terms
	toks  []string
	texts []textTerms
}

// textTerms places one text's terms in prepWorker.toks: they end at
// end, and are posted under the flat node key.
type textTerms struct{ key, end int32 }

// prepareDocument runs every part of StoreDocument that does not touch
// the tables: it picks the root element, flattens the tree, encodes each
// node's record (present links still zero; a node whose tag has no code
// yet is left for the writer), and cuts each node's own text into terms
// under its section's key row for the content index.  It is safe to call
// from many goroutines concurrently, each with its own prepWorker.
func (s *Store) prepareDocument(meta docform.Meta, tree *sgml.Node, cfg *sgml.Config, docID uint64, pw *prepWorker) (*preparedDoc, error) {
	if tree == nil {
		return nil, fmt.Errorf("xmlstore: nil document tree")
	}
	if cfg == nil {
		cfg = sgml.XMLConfig()
	}
	root := tree
	if root.Kind == sgml.DocumentNode {
		// Skip prolog; store from the root element.
		for c := root.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind == sgml.ElementNode {
				root = c
				break
			}
		}
		if root.Kind == sgml.DocumentNode {
			return nil, fmt.Errorf("xmlstore: document %q has no root element", meta.FileName)
		}
	}

	flat := flattenTree(root, cfg)
	if len(flat) == 0 {
		return nil, fmt.Errorf("xmlstore: document %q flattened to no nodes", meta.FileName)
	}
	size := 0 // room for every record: its strings, and 16 bytes for the rest
	for i := range flat {
		size += len(flat[i].data) + len(flat[i].attrs) + 16
	}
	p := &preparedDoc{
		meta:   meta,
		docID:  docID,
		titled: len(root.Attrs) == 1 && root.Attrs[0] == (sgml.Attr{Name: "title", Value: meta.Title}),
		schema: s.xml.Schema(),
		flat:   flat,
		buf:    make([]byte, 0, size),
		recs:   make([][]byte, len(flat)),
		far:    make([]uint64, len(flat)),
	}
	codes := make(map[tagPair]int64) // this document's tags; -1 = no code yet
	for i := range flat {
		fn := &flat[i]
		tag := tagPair{fn.class, fn.name}
		code, ok := codes[tag]
		if !ok {
			if code, ok = s.tags.known(tag); !ok {
				code = -1
			}
			codes[tag] = code
		}
		if fn.tag = code; code < 0 {
			p.untagged = append(p.untagged, i)
		} else if err := p.add(i); err != nil {
			return nil, err
		}
	}
	p.toks, p.ends = pw.postTerms(flat)
	return p, nil
}

// postTerms cuts each node's own text into terms, posted under its
// section's key row (see postKey), and groups them by key row in one
// counting sort: node k's section holds toks[ends[k]:ends[k+1]], sorted
// and distinct, as textindex.AddTokens takes them, so the indexer's one
// goroutine only inserts postings.  Ingest and the open-time rebuild
// both index through it.
func (pw *prepWorker) postTerms(flat []flatNode) (toks []string, ends []int32) {
	pw.toks, pw.texts = pw.toks[:0], pw.texts[:0]
	governs := governingContexts(flat)
	for i := range flat {
		if text, ok := flat[i].ownText(); ok {
			pw.toks = pw.terms.Append(pw.toks, text)
			pw.texts = append(pw.texts, textTerms{int32(postKey(flat, governs, i)), int32(len(pw.toks))})
		}
	}
	ends = make([]int32, len(flat)+1)
	start := int32(0)
	for _, t := range pw.texts {
		ends[t.key+1] += t.end - start
		start = t.end
	}
	for k := 1; k < len(ends); k++ {
		ends[k] += ends[k-1]
	}
	// ends[k] is where section k starts; it moves up as its terms go in,
	// to where section k+1 starts, and then everything shifts down one.
	toks = make([]string, len(pw.toks))
	start = 0
	for _, t := range pw.texts {
		ends[t.key] += int32(copy(toks[ends[t.key]:], pw.toks[start:t.end]))
		start = t.end
	}
	copy(ends[1:], ends)
	ends[0] = 0
	// Each section's terms sorted, their repeats dropped and the sections
	// after it moved down over the gap.
	start, n := int32(0), int32(0)
	for k := 1; k < len(ends); k++ {
		group := toks[start:ends[k]]
		slices.Sort(group)
		start = ends[k]
		n += int32(copy(toks[n:], slices.Compact(group)))
		ends[k] = n
	}
	return toks[:n], ends
}

// optString stores an empty string as NULL: no bytes in the record, and
// it reads back as "".
func optString(v string) ordbms.Value {
	if v == "" {
		return ordbms.Null()
	}
	return ordbms.S(v)
}

// linkSlot is the link column of a row not yet placed: NULL when the
// node has no such relative (idx < 0), else a ROWID hole that
// storePrepared fills once the run's RowIDs are settled.
func linkSlot(idx int) ordbms.Value {
	if idx < 0 {
		return ordbms.Null()
	}
	return ordbms.R(ordbms.ZeroRowID)
}

// row builds node i's row from its flatNode, on the caller's stack.
func (p *preparedDoc) row(i int) [xmlCols]ordbms.Value {
	fn := &p.flat[i]
	row := [xmlCols]ordbms.Value{
		xmlColTag:         ordbms.I(fn.tag),
		xmlColNodeData:    optString(fn.data),
		xmlColParentRowID: linkSlot(fn.parent),
		xmlColPrevRowID:   linkSlot(fn.prev),
		xmlColNextRowID:   linkSlot(fn.next),
		xmlColChildRowID:  linkSlot(fn.child),
		xmlColAttrs:       optString(fn.attrs),
	}
	if i == 0 || fn.class == sgml.ClassContext {
		row[xmlColDocID] = ordbms.I(int64(p.docID)) // see Node.DocID
	}
	if i == 0 && p.titled {
		row[xmlColAttrs] = ordbms.S("") // DOC.title holds it (see Node.Titled)
	}
	return row
}

// add checks node i's row against the schema and encodes its record with
// every link near, counting its strings: a re-encode changes only how
// wide its links are, so neither the check nor the count can change.
func (p *preparedDoc) add(i int) error {
	row := p.row(i)
	if err := p.schema.Validate(row[:]); err != nil {
		return fmt.Errorf("xmlstore: node %d of %q: %w", i, p.meta.FileName, err)
	}
	raw, stored := p.encode(i, 0)
	p.raw += raw
	p.stored += stored
	return nil
}

// reencode encodes every record the document has again under schema,
// the XML table's now.  A node still waiting for its TAG code has no
// record yet: storePrepared encodes it once the code is assigned.
func (p *preparedDoc) reencode(schema ordbms.Schema) {
	p.schema = schema
	p.buf, p.raw, p.stored = p.buf[:0], 0, 0
	for i := range p.flat {
		if p.flat[i].tag >= 0 {
			raw, stored := p.encode(i, 0)
			p.raw += raw
			p.stored += stored
		}
	}
}

// encode appends node i's record, with the given links far, to the
// document's buffer, and returns what EncodeOffsets counts of its
// strings.
func (p *preparedDoc) encode(i int, far uint64) (raw, stored int) {
	row := p.row(i)
	start := len(p.buf)
	var offs [xmlCols]int
	p.buf, raw, stored = p.schema.EncodeOffsets(p.buf, offs[:], row[:], ordbms.ZeroRowID, allNear&^far)
	p.recs[i], p.far[i] = p.buf[start:len(p.buf):len(p.buf)], far
	fn := &p.flat[i]
	for k := range fn.linkAt {
		fn.linkAt[k] = uint16(offs[xmlColParentRowID+k]) // a NULL's -1 is never patched
	}
	return raw, stored
}

// allNear is the EncodeOffsets mask that writes every link near.
const allNear = ^uint64(0)

// farLinks is the mask of node i's links whose target was placed too
// far from the node to be stored near (see ordbms.Near).  It runs for
// every node of a document on every placement, hence the unrolled tests.
func (fn *flatNode) farLinks(rids []ordbms.RowID, i int) (far uint64) {
	at := rids[i]
	if fn.parent >= 0 && !ordbms.Near(at, rids[fn.parent]) {
		far |= 1 << xmlColParentRowID
	}
	if fn.prev >= 0 && !ordbms.Near(at, rids[fn.prev]) {
		far |= 1 << xmlColPrevRowID
	}
	if fn.next >= 0 && !ordbms.Near(at, rids[fn.next]) {
		far |= 1 << xmlColNextRowID
	}
	if fn.child >= 0 && !ordbms.Near(at, rids[fn.child]) {
		far |= 1 << xmlColChildRowID
	}
	return far
}

// governingContexts resolves, for every flattened node, the flat index of
// its governing CONTEXT (-1 = none) using the memoized recurrence
// equivalent to the §2.1.4 pointer-chasing walk:
//
//	govern(n) = prev != nil ? (prev is CONTEXT ? prev : govern(prev))
//	          : parent != nil ? (parent is CONTEXT ? parent : govern(parent))
//	          : none
//
// The resolution is iterative (an explicit chain instead of recursion) so
// documents with ten-thousand-sibling runs cannot blow the stack, and
// memoized so the whole document costs O(nodes).
func governingContexts(flat []flatNode) []int32 {
	const unresolved = -2
	out := make([]int32, len(flat))
	for i := range out {
		out[i] = unresolved
	}
	var chain []int32
	for i := range flat {
		if out[i] != unresolved {
			continue
		}
		chain = chain[:0]
		j := int32(i)
		for {
			if out[j] != unresolved {
				break
			}
			pred := flat[j].prev
			if pred < 0 {
				pred = flat[j].parent
			}
			switch {
			case pred < 0:
				out[j] = -1
			case flat[pred].class == sgml.ClassContext:
				out[j] = int32(pred)
			case out[pred] != unresolved:
				out[j] = out[pred]
			default:
				chain = append(chain, j)
				j = int32(pred)
				continue
			}
			break
		}
		for k := len(chain) - 1; k >= 0; k-- {
			jj := chain[k]
			pred := flat[jj].prev
			if pred < 0 {
				pred = flat[jj].parent
			}
			out[jj] = out[pred]
		}
	}
	return out
}

// postKey is the flat index of the row node i's own text is posted under
// in the text index: its section's key row.  A CONTEXT keys its own
// section, so a folded heading's text is its own; any other node's key is
// the CONTEXT governing it, or, where no heading does (raw XML), the
// element holding the text — a text node's parent, or an element that
// absorbed its text child — the scope fallbackSection reports.
func postKey(flat []flatNode, governs []int32, i int) int {
	switch {
	case flat[i].class == sgml.ClassContext:
		return i
	case governs[i] >= 0:
		return int(governs[i])
	case flat[i].class == sgml.ClassText && flat[i].parent >= 0:
		return flat[i].parent
	}
	return i
}

// storePrepared performs the ordered write of a prepared document: one
// TAG run for the pairs it is the first to use, one linked insert into
// the XML table, then the DOC row.  The XML table places
// the whole document first — RowIDs depend only on record sizes, and the
// links a node has were fixed when its row was encoded — and calls back
// with the RowIDs.  Every link starts near, one byte, and the callback
// turns one far wherever its target landed on another page or more than
// 63 slots away (ordbms.Near), re-encoding that record five bytes wider
// per link, which sends the table back to place the run again from the
// first record that grew; until nothing grows a link once far stays far,
// so the placements end.  Then the callback turns near again each far
// link whose target came back beside it, and patches every link into the
// cached encodings — the slot distance for a near link, slot and page
// for a far one — and only then is each row written and logged, once,
// with its final bytes.  No reader ever sees a node whose links are not
// set.
func (s *Store) storePrepared(p *preparedDoc) (err error) {
	// On success the generation bump belongs to indexPrepared — bumping
	// here, before the derived indexes hold the document, would let a
	// racing query cache an index-incomplete result under the *final*
	// generation, pinning the stale answer until an unrelated write.  A
	// failed insert gets no indexPrepared call, so rows it left behind
	// invalidate here.
	defer func() {
		if err != nil {
			s.bumpGeneration()
		}
	}()
	flat := p.flat

	// A document prepared before the XML table trained is encoded again
	// under the table's symbol table, as if it had been prepared after:
	// which records are coded depends on where the writer stood when the
	// table trained, not on when a worker got to the document.
	if sch := s.xml.Schema(); sch.Symbols() != p.schema.Symbols() {
		p.reencode(sch)
	}

	// Tags first, in document order, so a batch assigns the same codes
	// however its workers were scheduled; the new pairs' TAG rows are
	// logged before the run that uses their codes.
	if len(p.untagged) > 0 {
		pairs := make([]tagPair, len(p.untagged))
		for k, i := range p.untagged {
			pairs[k] = tagPair{flat[i].class, flat[i].name}
		}
		codes, err := s.tagCodes(pairs)
		if err != nil {
			return err
		}
		for k, i := range p.untagged {
			flat[i].tag = codes[k]
			if err := p.add(i); err != nil {
				return err
			}
		}
	}

	_, err = s.xml.InsertRun(p.recs, p.raw, p.stored, func(rids []ordbms.RowID) {
		grew := false
		for i := range flat {
			if far := flat[i].farLinks(rids, i) &^ p.far[i]; far != 0 {
				p.encode(i, p.far[i]|far)
				grew = true
			}
		}
		if grew {
			return // placed again from the first record that grew
		}
		for i := range flat {
			fn := &flat[i]
			fn.rid = rids[i]
			// A link gone far in an earlier placement whose target has come
			// back beside it is stored near after all: the record only
			// shrinks, so it still fits where it was placed.
			if p.far[i] != 0 {
				if far := fn.farLinks(rids, i); far != p.far[i] {
					p.encode(i, far)
				}
			}
			rec, far := p.recs[i], p.far[i]
			for k, idx := range [4]int{fn.parent, fn.prev, fn.next, fn.child} {
				switch {
				case idx < 0:
				case far&(1<<(xmlColParentRowID+k)) != 0:
					ordbms.PutRowID(rec[fn.linkAt[k]:], rids[idx])
				default:
					ordbms.PutNearRowID(rec[fn.linkAt[k]:], rids[i], rids[idx])
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("xmlstore: insert nodes of %q: %w", p.meta.FileName, err)
	}

	// DOC row last: it carries the root RowID.
	docRow := ordbms.Row{
		ordbms.I(int64(p.docID)),
		ordbms.S(p.meta.FileName),
		ordbms.I(s.now().Unix()),
		ordbms.I(int64(p.meta.Size)),
		ordbms.S(p.meta.Format),
		ordbms.S(p.meta.Title),
		ordbms.R(flat[0].rid),
		ordbms.I(int64(len(flat))),
	}
	if _, err := s.doc.Insert(docRow); err != nil {
		return fmt.Errorf("xmlstore: insert DOC row for %q: %w", p.meta.FileName, err)
	}

	s.docsIngested.Add(1)
	s.nodesInserted.Add(uint64(len(flat)))
	return nil
}

// indexPrepared feeds a stored document into the derived indexes: each
// heading into the heading index under its CONTEXT row, then each
// section's words into the text index under its key row.  The indexes
// carry their own locks, so this stage runs concurrently with the writer
// storing the next document.
//
// Headings go in before words.  A cached heading-plus-terms query is
// keyed on the generations of its heading's list and its terms' lists
// (Store.QueryGen), and each posting moves one of them, so a reader that
// runs between the two steps cannot keep what it saw under the final key.
// DeleteDocument keeps the mirror order: headings out, then words.
func (s *Store) indexPrepared(p *preparedDoc) {
	for i := range p.flat {
		if fn := &p.flat[i]; fn.class == sgml.ClassContext {
			if key := NormalizeContext(fn.data); key != "" {
				s.headings.AddTokens(fn.rid.Uint64(), []string{key})
			}
		}
	}
	for i := range p.flat {
		s.content.AddTokens(p.flat[i].rid.Uint64(), p.toks[p.ends[i]:p.ends[i+1]])
	}
	// The ingest's generation bumps: only now are tables AND derived
	// indexes consistent, so only now may a query snapshot the new
	// generations and cache what it sees.
	s.bumpGeneration()
}

// reserveDocIDs allocates a contiguous block of document IDs and returns
// the first.  The batch pipeline reserves one block per batch up front so
// document IDs always follow submission order.
func (s *Store) reserveDocIDs(n int) uint64 {
	return s.nextDocID.Add(uint64(n)) - uint64(n)
}

// StoreDocument decomposes a parsed document tree into the universal XML
// table and records its metadata in DOC.  The classification config maps
// element names to the five node classes; sgml.XMLConfig() is right for
// upmarked documents.
//
// The insert is one pass (see storePrepared): the heap settles every
// node's physical RowID from the record sizes, the parent/sibling/child
// link columns are patched into the pre-encoded records, and each node is
// written and logged once.  StoreBatch runs the same pipeline with the
// preparation fanned across workers.
func (s *Store) StoreDocument(meta docform.Meta, tree *sgml.Node, cfg *sgml.Config) (uint64, error) {
	// Fail fast while degraded: no point parsing and flattening a
	// document the engine will refuse to persist.
	if err := s.db.Writable(); err != nil {
		return 0, err
	}
	p, err := s.prepareDocument(meta, tree, cfg, s.reserveDocIDs(1), new(prepWorker))
	if err != nil {
		return 0, err
	}
	// The checkpoint barrier spans table writes and derived indexing, so
	// a snapshot never serialises the gap between them.
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if err := s.storePrepared(p); err != nil {
		return 0, err
	}
	s.indexPrepared(p)
	return p.docID, nil
}

// StoreRaw converts raw file bytes (any supported format) and stores the
// result — the full NETMARK ingest path in one call.
func (s *Store) StoreRaw(name string, data []byte) (uint64, error) {
	tree, meta, err := docform.Convert(name, data)
	if err != nil {
		return 0, err
	}
	return s.StoreDocument(meta, tree, sgml.XMLConfig())
}

// flattenTree walks the tree in document order, recording structural
// relationships as slice indexes.  A CONTEXT's heading text is copied
// onto it.  An element whose only stored child is one non-empty text node
// — on a heading, one holding exactly the heading — absorbs it: the child
// is left out, its text becomes the element's nodedata, so it is stored
// once, and Node.OwnText reads it back.  Every other element —
// mixed content, element children, no text — keeps its children.  It
// takes no locks, so it can run in parallel preparation workers.
func flattenTree(root *sgml.Node, cfg *sgml.Config) []flatNode {
	flat := make([]flatNode, 0, root.CountNodes())
	var walk func(n *sgml.Node, parent int) int
	walk = func(n *sgml.Node, parent int) int {
		if n.Kind != sgml.ElementNode && n.Kind != sgml.TextNode {
			return -1 // comments, PIs and doctypes are not stored
		}
		idx := len(flat)
		class := cfg.Classify(n)
		fn := flatNode{
			class:  class,
			parent: parent,
			prev:   -1, next: -1, child: -1,
		}
		switch n.Kind {
		case sgml.ElementNode:
			fn.name = n.Name
			fn.attrs = encodeAttrs(n.Attrs)
			if class == sgml.ClassContext {
				// Denormalise the heading text onto the CONTEXT node so
				// the heading index and the traversal kernel never need
				// to descend to find the heading.
				fn.data = headingText(n, cfg)
			}
		case sgml.TextNode:
			fn.data = n.Data
		}
		flat = append(flat, fn)

		prev := -1
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			ci := walk(c, idx)
			if ci < 0 {
				continue
			}
			if prev >= 0 {
				flat[prev].next = ci
				flat[ci].prev = prev
			} else {
				flat[idx].child = ci
			}
			prev = ci
		}
		if len(flat) == idx+2 && flat[idx+1].class == sgml.ClassText {
			if text := flat[idx+1].data; text != "" && (class != sgml.ClassContext || text == fn.data) {
				flat = flat[:idx+1]
				flat[idx].data, flat[idx].child = text, -1
			}
		}
		return idx
	}
	walk(root, -1)
	return flat
}

// headingText is a heading's text as sgml.Node.Text reads it, its text
// runs whitespace-squeezed, less the text of every heading nested in it,
// which heads a section of its own.  Each text run belongs to one heading
// at most, so a chain of nested headings costs time and bytes linear in
// the document, not quadratic.
func headingText(n *sgml.Node, cfg *sgml.Config) string {
	var b strings.Builder
	var collect func(*sgml.Node)
	collect = func(x *sgml.Node) {
		for c := x.FirstChild; c != nil; c = c.NextSibling {
			switch {
			case c.Kind == sgml.TextNode:
				b.WriteString(c.Data)
				b.WriteByte(' ')
			case c.Kind == sgml.ElementNode && cfg.Classify(c) != sgml.ClassContext:
				collect(c)
			}
		}
	}
	collect(n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// encodeAttrs packs attributes as space-separated name=quoted pairs.
func encodeAttrs(attrs []sgml.Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Name + "=" + strconv.Quote(a.Value)
	}
	return strings.Join(parts, " ")
}

// decodeAttrs reverses encodeAttrs.
func decodeAttrs(s string) []sgml.Attr {
	if s == "" {
		return nil
	}
	var out []sgml.Attr
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		name := s[:eq]
		rest := s[eq+1:]
		// Find the closing quote of the Go-quoted string.
		end := 1
		for end < len(rest) {
			if rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == '"' {
				break
			}
			end++
		}
		if end >= len(rest) {
			break
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			break
		}
		out = append(out, sgml.Attr{Name: name, Value: val})
		s = strings.TrimPrefix(rest[end+1:], " ")
	}
	return out
}

// DeleteDocument removes a document: its DOC row, all its XML rows, and
// their derived index entries (heading and text postings, cached node
// decodes).  The rows are found by the walk the rebuild flattens a
// document with (flattenStored over pageWalker), which gives postTerms
// the postings ingest made, and deleted as one run, in reverse document
// order, then the DOC row: two log records.  A page of the document that
// holds a row that does not decode fails the delete, as it fails the
// rebuild.  Whatever an interrupted
// delete leaves behind — a prefix of the run in memory, or in the log the
// run without the DOC row — is a prefix of the document still reachable
// from its root, and a retry finishes it: the postings it derives again
// are gone already, and RemoveTokens passes them over.
func (s *Store) DeleteDocument(docID uint64) error {
	// Degraded mode rejects deletes up front: the multi-step teardown
	// must not start if the engine will refuse its row deletes halfway.
	if err := s.db.Writable(); err != nil {
		return err
	}
	// The checkpoint barrier keeps the teardown out of every snapshot: one
	// sees the document fully present or fully gone.
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	info, err := s.Document(docID)
	if err != nil {
		return err
	}
	// A link into a row an interrupted delete removed ends its branch, and
	// the doomed rows push no live image out of the cache.
	w := pageWalker{s: s}
	flat, err := flattenStored(make([]flatNode, 0, info.NNodes), info.RootRowID, w.follow)
	if err != nil {
		return err
	}
	defer s.bumpGeneration() // rows start disappearing: invalidate even on failure
	// Derived entries go before the rows, so none outlives its row; the run
	// is in reverse document order, so one that stops leaves a prefix.
	// Headings go before words, the mirror of indexPrepared's order.
	toks, ends := new(prepWorker).postTerms(flat)
	rids := make([]ordbms.RowID, len(flat))
	ids := make([]uint64, len(flat))
	var hids []uint64
	var heads []string
	hends := []int32{0}
	for i := range flat {
		fn := &flat[i]
		rids[len(flat)-1-i] = fn.rid
		ids[i] = fn.rid.Uint64()
		if fn.class == sgml.ClassContext {
			if key := NormalizeContext(fn.data); key != "" {
				hids, heads = append(hids, ids[i]), append(heads, key)
				hends = append(hends, int32(len(heads)))
			}
		}
	}
	s.headings.RemoveTokens(hids, heads, hends)
	s.content.RemoveTokens(ids, toks, ends)
	err = s.xml.DeleteRun(rids) // ErrRecordDeleted: a retry found no rows left
	// Page images go after the rows: a fill that decoded a page before the
	// run published its image before the run could latch the page.
	var pages []uint32
	for _, rid := range rids {
		if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
			pages = append(pages, rid.Page)
		}
	}
	s.nodes.invalidate(pages)
	if err != nil && err != ordbms.ErrRecordDeleted {
		return err
	}
	return s.doc.Delete(info.RowID)
}

// Reconstruct rebuilds the full document tree for a document: its
// EmitDocument events made into a tree (the XPath path and the examples
// use it; GET /doc writes the events without one).
func (s *Store) Reconstruct(docID uint64) (*sgml.Node, error) {
	var b sgml.Builder
	if err := s.EmitDocument(docID, &b); err != nil {
		return nil, err
	}
	return b.Root(), nil
}

// EmitDocument feeds a document to sink as events in document order,
// chasing physical links from its root node a hop at a time: an element
// closes when the walk climbs above it, an element that absorbed its
// text child gives it back from its own text, and a titled root gets its
// title attribute from the DOC row.  No lock is held while sink runs, so
// a sink may block, on a slow client say, and stall no writer; a delete
// that lands meanwhile ends the walk with ErrRecordDeleted.  On an error
// sink has seen part of the document.
func (s *Store) EmitDocument(docID uint64, sink sgml.Sink) error {
	info, err := s.Document(docID)
	if err != nil {
		return err
	}
	root, err := s.FetchNode(info.RootRowID)
	if err != nil {
		return err
	}
	open := 0 // elements started and not yet ended
	err = walkSubtree(root, s.FetchNode, func(n *Node, depth int) {
		for ; open > depth; open-- {
			sink.End()
		}
		if n.Class == sgml.ClassText {
			sink.Text(n.Data)
			return
		}
		attrs := n.Attrs
		if n.Titled {
			attrs = []sgml.Attr{{Name: "title", Value: info.Title}}
		}
		sink.Start(n.Name, attrs)
		open++
		if text, ok := n.OwnText(); ok {
			sink.Text(text)
		}
	})
	if err != nil {
		return err
	}
	for ; open > 0; open-- {
		sink.End()
	}
	return nil
}
