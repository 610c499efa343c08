// Package xmlstore implements the NETMARK XML Store — the paper's core
// contribution.  Every document, whatever its type, is decomposed into
// nodes and stored in the same relational tables (Fig 5):
//
//	DOC:  DOC_ID, FILE_NAME, FILE_DATE, FILE_SIZE, FORMAT, TITLE,
//	      ROOT_ROWID, NNODES
//	XML:  DOC_ID (FK), TAG (FK), NODEDATA, PARENTROWID, PREVROWID,
//	      NEXTROWID, CHILDROWID, ATTRS
//	TAG:  TAG, NODETYPE, NODENAME
//
// No per-document-type schema ever exists: "the NETMARK storage scheme
// uses the same relational tables to represent and store any XML document
// type" (§2.1.1).  Node-to-node links are physical RowIDs, reproducing
// the paper's use of Oracle ROWIDs "for very fast traversal between nodes
// that are related": following a link costs one buffer-pool fetch.  A
// document's nodes are placed in document order, so nearly every link
// points a few slots away on the node's own page, and such a link is
// stored as its slot distance, one byte (ordbms.Near); any other is six.
//
// A node is its RowID.  Fig 5's NODEID, ORDINAL and PARENTNODEID are not
// stored: the RowID names the node, the sibling links give its position,
// and PARENTROWID names its parent.  Fig 5's NODETYPE and NODENAME live
// in TAG, once per distinct pair, and a node stores the pair's code (see
// tags.go); XML JOIN TAG ON XML.tag = TAG.tag gives Fig 5's columns back.
// Fig 5 puts DOC_ID on every row; here only a document's root and its
// CONTEXT rows store it, and every other row is NULL there, which costs
// nothing.  A row's document is its nearest ancestor's that stores one,
// the root's at the latest (Store.docOf): a RowID is never handed out
// twice, so the links cannot lead into another document.
//
// A CONTEXT row carries its heading's text in NODEDATA, so neither the
// heading index nor the kernel descends to read a heading, and it is the
// key row its section's words are posted under in the text index.
//
// Text is stored once.  An element whose only child is one non-empty text
// node — a <p>, an <li>, a <para>, nearly every heading — absorbs it: the
// text goes in the element's own NODEDATA and no child row is stored; a
// CONTEXT absorbs it only when the text is exactly its heading.
// Node.OwnText is where indexing, section text and Reconstruct read a
// node's text, folded or not.  Likewise a root whose only attribute is
// title="…", valued as DOC's TITLE, stores a zero-length ATTRS (NULL means
// no attributes), and Reconstruct puts the attribute back from DOC.
//
// Strings are stored coded (on-disk format 11).  Each table codes its
// STRING columns — XML's NODEDATA and ATTRS, DOC's names — with the
// symbol table it trained on its own first 16 KiB of them
// (ordbms.SymbolTable), wherever the codes are shorter.  A document's
// records are all encoded with the XML table's schema as it was when the
// document was prepared (Table.Schema), so the writer's re-encodes match
// its workers'; a fetch decodes with the schema as it is when the record
// is in view.  Above the engine every string is plain: Node, the node
// cache, the text index, Reconstruct and SQL never see a code.
//
// This package persists derived snapshots, so every committing rename
// must follow write-temp → fsync → rename → fsync-dir.
//
// netmarkvet:persistence
package xmlstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unsafe"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// Column order of the XML table.  The four link columns are ROWIDs: 1
// byte (the slot distance) when the link points at a row on the node's
// own page at most 63 slots away, 6 when it points elsewhere, and NULL —
// no bytes at all — when the node has no such link, as are an empty
// nodedata and an empty attrs.
// Which links a node has is known when its tree is flattened; how wide
// each is, only once the document's run is placed, and the run is placed
// again when a link turns out wider than it was encoded (see
// storePrepared).  tag is a TAG code, never NULL.
const (
	xmlColDocID = iota
	xmlColTag
	xmlColNodeData
	xmlColParentRowID
	xmlColPrevRowID
	xmlColNextRowID
	xmlColChildRowID
	xmlColAttrs
	xmlCols // the XML table's arity
)

// Column order of the DOC table.
const (
	docColDocID = iota
	docColFileName
	docColFileDate
	docColFileSize
	docColFormat
	docColTitle
	docColRootRowID
	docColNNodes
)

// Node is a decoded row of the XML table.  A text node's Name is "".  A
// CONTEXT's Data is its heading text.  An element that absorbed its lone
// text child has no child row and holds the text in Data; OwnText gives
// it.
type Node struct {
	// DocID is set on root and CONTEXT rows, zero elsewhere: Store.docOf
	// finds any row's document.
	DocID uint64
	Class sgml.NodeClass
	Name  string
	Data  string
	Attrs []sgml.Attr
	// Titled marks a root whose only attribute was title="DOC.title",
	// stored as a zero-length attrs: Attrs is nil, and Reconstruct puts
	// the attribute back from the DOC row.
	Titled bool

	RowID       ordbms.RowID // physical address of this node
	ParentRowID ordbms.RowID
	PrevRowID   ordbms.RowID
	NextRowID   ordbms.RowID
	ChildRowID  ordbms.RowID
}

// OwnText is the text n holds itself: a text node's data, or the text an
// element absorbed from its lone text child.  ok is false for every other
// node.  It is what the text index posts under n's section's key row, and
// what a subtree's text and a reconstructed tree read from n.
func (n *Node) OwnText() (text string, ok bool) {
	return ownText(n.Class, n.Data, !n.ChildRowID.IsZero())
}

// ownText reads the fold back: any row but a text node's that has
// nodedata and no child link absorbed its text child, since only a heading
// has nodedata otherwise, and a heading with text has a child row unless
// it folded (see flattenTree).
func ownText(class sgml.NodeClass, data string, hasChild bool) (string, bool) {
	if class != sgml.ClassText && (data == "" || hasChild) {
		return "", false
	}
	return data, true
}

// DocInfo is a decoded row of the DOC table.
type DocInfo struct {
	DocID     uint64
	FileName  string
	FileDate  int64
	FileSize  int64
	Format    string
	Title     string
	RootRowID ordbms.RowID
	NNodes    int64
	RowID     ordbms.RowID // physical address of the DOC row
}

// Section is one context/content search result: a heading and the text
// that follows it, as in Fig 6 of the paper.
type Section struct {
	DocID      uint64
	DocName    string
	DocTitle   string
	Context    string
	Content    string
	ContextRID ordbms.RowID
}

// Store is an open NETMARK XML Store.
type Store struct {
	db  *ordbms.DB
	xml *ordbms.Table
	doc *ordbms.Table
	tag *ordbms.Table

	tags tagDict // the TAG table, in memory

	nextDocID atomic.Uint64 // next unreserved document ID; netmarkvet:snap

	// content is the full-text index.  Each node's own text
	// (Node.OwnText) is posted under its section's key row (see postKey),
	// so a hit is a section, and its packed physical RowID leads straight
	// to the page.
	// netmarkvet:snap
	content *textindex.Index
	// headings is the heading index: each CONTEXT row posted under its
	// normalised heading (NormalizeContext) as one raw term, so a heading
	// is a posting list like a word, and Context= and Content= meet in one
	// intersection.  A blank heading is not posted.
	// netmarkvet:snap
	headings *textindex.Index

	// nodes is the decoded-node cache, through which every hop reads.
	// OpenWith sets it; EnableNodeCache replaces it during setup, before
	// the store serves traffic.
	nodes *nodeCache

	// Stats counters.
	docsIngested  atomic.Uint64 // netmarkvet:snap
	nodesInserted atomic.Uint64 // netmarkvet:snap

	// ckptMu is the checkpoint barrier.  Every mutation path (ingest,
	// batch writer+indexer, delete) holds it for reading across its whole
	// table-plus-derived-index span; the snapshot hook holds it for
	// writing, so a serialised snapshot never captures a document between
	// its rows landing in the tables and its entries landing in the
	// derived indexes.  Queries never touch it.  It is the outermost
	// lock of every mutation path.  netmarkvet:lockorder 10
	ckptMu sync.RWMutex

	// snapStat tracks the derived-snapshot lifecycle (see SnapshotStats).
	snapMu   sync.Mutex
	snapStat SnapshotStats // guarded by snapMu

	// generation counts this process's store mutations: every document
	// ingest and every delete bumps it.  Result caches key on it where the
	// text index's term generations do not cover the query (XPath, a prefix
	// heading, a heading with no word), so a bump implicitly invalidates
	// everything cached against the previous state without the cache ever
	// scanning its entries.
	generation atomic.Uint64

	// now is the clock DOC rows are stamped with (filedate); tests that
	// compare the bytes of two stores pin it.
	now func() time.Time
}

var xmlSchema = ordbms.MustSchema(
	ordbms.Column{Name: "docid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "tag", Type: ordbms.TypeInt},
	ordbms.Column{Name: "nodedata", Type: ordbms.TypeString},
	ordbms.Column{Name: "parentrowid", Type: ordbms.TypeRowID},
	ordbms.Column{Name: "prevrowid", Type: ordbms.TypeRowID},
	ordbms.Column{Name: "nextrowid", Type: ordbms.TypeRowID},
	ordbms.Column{Name: "childrowid", Type: ordbms.TypeRowID},
	ordbms.Column{Name: "attrs", Type: ordbms.TypeString},
)

var docSchema = ordbms.MustSchema(
	ordbms.Column{Name: "docid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "filename", Type: ordbms.TypeString},
	ordbms.Column{Name: "filedate", Type: ordbms.TypeInt},
	ordbms.Column{Name: "filesize", Type: ordbms.TypeInt},
	ordbms.Column{Name: "format", Type: ordbms.TypeString},
	ordbms.Column{Name: "title", Type: ordbms.TypeString},
	ordbms.Column{Name: "rootrowid", Type: ordbms.TypeRowID},
	ordbms.Column{Name: "nnodes", Type: ordbms.TypeInt},
)

// OpenOptions tunes Open's behaviour.
type OpenOptions struct {
	// DisableSnapshot forces the derived rebuild on open — every
	// document walked from its root and indexed as ingest indexes it —
	// and stops the store from writing snapshots at checkpoints: the
	// ablation knob for measuring what snapshotting buys (and the escape
	// hatch should a snapshot ever be suspected of divergence).
	DisableSnapshot bool
}

// Open attaches the store to a database, creating the universal tables on
// first use.  On a persistent reopen the derived indexes (text index,
// heading index, document-ID counter) are loaded from the checkpoint
// snapshot when its stamps prove the heap has not moved since it was
// written; otherwise — and always for in-memory stores — they are rebuilt
// a document at a time, each DOC row's document walked from its root (see
// rebuildDerived).
func Open(db *ordbms.DB) (*Store, error) {
	return OpenWith(db, OpenOptions{})
}

// OpenWith is Open with explicit options.
func OpenWith(db *ordbms.DB, opts OpenOptions) (*Store, error) {
	s := &Store{
		db:       db,
		content:  textindex.New(),
		headings: textindex.New(),
		nodes:    newNodeCache(DefaultNodeCacheBytes),
		now:      time.Now,
	}
	s.nextDocID.Store(1)
	var err error
	// XML has no secondary index: its rows are reached by ROWID link from
	// DOC.rootrowid and from the derived indexes, never by key.
	if s.xml, err = ensureTable(db, "XML", xmlSchema); err != nil {
		return nil, err
	}
	if s.doc, err = ensureTable(db, "DOC", docSchema, "docid", "filename"); err != nil {
		return nil, err
	}
	if s.tag, err = ensureTable(db, "TAG", tagSchema); err != nil {
		return nil, err
	}
	// Every XML row is read through the dictionary, the derived rebuild
	// included, so it comes first.
	if err := s.loadTags(); err != nil {
		return nil, err
	}
	if db.Dir() != "" && !opts.DisableSnapshot {
		s.snapStat.Enabled = true
		s.snapStat.Loaded, s.snapStat.Fallback = s.loadSnapshot(db)
	}
	if !s.snapStat.Loaded {
		if err := s.rebuildDerived(); err != nil {
			return nil, err
		}
		if s.snapStat.Enabled {
			db.NoteRebuilt() // the next close writes the snapshot again
		}
	}
	// Register the save hook only now that the derived state is known
	// complete (loaded or fully rebuilt): a failed Open must never leave
	// a hook behind that could checkpoint half-built indexes under
	// current-looking stamps.
	if s.snapStat.Enabled {
		db.RegisterPreCheckpointHook(s.snapshotHook)
	}
	return s, nil
}

// ensureTable returns the named table with the given indexes, creating
// whatever is missing.  The indexes are checked even when the table
// exists: each piece of DDL is its own log record, so a crash between
// CreateTable and a CreateIndex reopens with the table but not the index.
func ensureTable(db *ordbms.DB, name string, schema ordbms.Schema, indexes ...string) (*ordbms.Table, error) {
	t := db.Table(name)
	if t == nil {
		var err error
		if t, err = db.CreateTable(name, schema); err != nil {
			return nil, err
		}
	}
	for _, col := range indexes {
		if t.Index(col) != nil {
			continue
		}
		if err := t.CreateIndex(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// rebuildDerived rebuilds the text index, the heading index and the
// document-ID counter from the tables, a document at a time: each document
// DOC lists is flattened from its root (flattenStored) and indexed by the
// code ingest runs (postTerms, indexPrepared).  The walk reads a page at
// a time and holds one (pageWalker), since a document's run sits on
// adjacent pages.  A dead or missing row ends its branch, as in
// DeleteDocument, so a
// document an interrupted delete cut short is indexed as far as it still
// reaches, and rows no DOC row reaches — a run a crash kept without its
// DOC row — are never read.  Runs during OpenWith, before the store is
// shared with any other goroutine.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (s *Store) rebuildDerived() error {
	docs, err := s.Documents()
	if err != nil {
		return err
	}
	w := pageWalker{s: s}
	var pw prepWorker
	var flat []flatNode
	for _, d := range docs {
		s.nextDocID.Store(max(s.nextDocID.Load(), d.DocID+1))
		if flat, err = flattenStored(flat, d.RootRowID, w.follow); err != nil {
			return err
		}
		p := &preparedDoc{flat: flat}
		p.toks, p.ends = pw.postTerms(flat)
		s.indexPrepared(p)
	}
	return nil
}

// pageWalker resolves links for walkSubtree a page at a time and
// publishes nothing, for the walks that read each stored row once — the
// derived rebuild and DeleteDocument — so they push no live image out of
// the node cache.  On a page it has not just read it copies the page's
// live records in one hold of the page latch, and it decodes only the
// rows the walk follows, each into its one Node, which walkSubtree reads
// only until its next follow: a small document shares its pages with
// other documents' rows, which it never decodes.  A row that does not
// decode fails the walk; a dead or missing row ends its branch.
type pageWalker struct {
	s    *Store
	at   uint32 // the page recs holds, when held
	held bool
	sch  ordbms.Schema // the XML table's, with page at in view
	recs []byte        // page at's live records, end to end
	ends [][2]int32    // by slot: its record's bounds in recs; [0 0] when dead
	node Node
}

func (w *pageWalker) follow(rid ordbms.RowID) (*Node, error) {
	if !w.held || w.at != rid.Page {
		w.held = false
		err := w.s.xml.ViewPage(rid.Page, func(sch ordbms.Schema, slots int, live func(func(int, []byte) bool) error) error {
			w.sch, w.recs = sch, w.recs[:0]
			if cap(w.ends) < slots {
				w.ends = make([][2]int32, slots)
			} else {
				w.ends = w.ends[:slots]
				clear(w.ends)
			}
			return live(func(slot int, rec []byte) bool {
				w.ends[slot] = [2]int32{int32(len(w.recs)), int32(len(w.recs) + len(rec))}
				w.recs = append(w.recs, rec...)
				return true
			})
		})
		if err != nil {
			return nil, err
		}
		w.at, w.held = rid.Page, true
	}
	if int(rid.Slot) >= len(w.ends) || w.ends[rid.Slot][1] == 0 {
		return nil, nil
	}
	b := w.ends[rid.Slot]
	var cols [xmlColAttrs + 1]ordbms.Value
	if err := ordbms.DecodeRowInto(w.sch, rid, w.recs[b[0]:b[1]], cols[:]); err != nil {
		return nil, err
	}
	if err := w.s.nodeInto(&w.node, rid, cols[:]); err != nil {
		return nil, err
	}
	return &w.node, nil
}

// flattenStored walks the stored document whose root is at rid, resolving
// each link with follow, into flat[:0]: each row becomes the flatNode
// flattenTree made of it at ingest, as far as postTerms and indexPrepared
// read one — class, data, RowID, and the parent, prev and child links.
// So the rebuild and DeleteDocument derive a document's postings as its
// ingest did.  A root that follow finds gone leaves flat empty: an
// interrupted delete took every row.
func flattenStored(flat []flatNode, rid ordbms.RowID, follow func(ordbms.RowID) (*Node, error)) ([]flatNode, error) {
	flat = flat[:0]
	root, err := follow(rid)
	if err != nil || root == nil {
		return flat, err
	}
	var last []int // last[d] is the node last seen at depth d
	err = walkSubtree(root, follow, func(n *Node, depth int) {
		fn := flatNode{class: n.Class, data: n.Data, rid: n.RowID, parent: -1, prev: -1, next: -1, child: -1}
		if depth > 0 {
			fn.parent = last[depth-1]
		}
		if depth < len(last) {
			fn.prev = last[depth]
		}
		// The child link as stored, not as found: a dangling one still
		// says the element did not fold.  Only its sign is read (ownText),
		// so any index will do.
		if !n.ChildRowID.IsZero() {
			fn.child = 0
		}
		last = append(last[:depth], len(flat))
		flat = append(flat, fn)
	})
	return flat, err
}

// NormalizeContext lowercases and squeezes whitespace so context matching
// is forgiving about case and layout (Context=introduction matches the
// "Introduction" heading); the store's heading index and the databank's
// residual filter (xdb.SectionMatchesContext) both match by it.  It is
// strings.ToLower(strings.Join(strings.Fields(h), " ")) built in one
// buffer, an invalid byte read as U+FFFD as ToLower reads it.
func NormalizeContext(h string) string {
	var b strings.Builder
	b.Grow(len(h))
	space := false // a space is owed before the next word
	for _, r := range h {
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// DB returns the underlying database (for stats and checkpoints).
func (s *Store) DB() *ordbms.DB { return s.db }

// Stats returns ingestion counters.
func (s *Store) Stats() (docs, nodes uint64) {
	return s.docsIngested.Load(), s.nodesInserted.Load()
}

// Generation returns the store's mutation generation.  It changes after
// every ingest, link patch, and delete; readers snapshot it *before*
// executing a query, so a result tagged with a generation can never be
// newer than the state it was computed from.
func (s *Store) Generation() uint64 { return s.generation.Load() }

// bumpGeneration marks the store mutated.  Called on every write path,
// including failed ones — a half-applied mutation must still invalidate.
func (s *Store) bumpGeneration() { s.generation.Add(1) }

// NumDocuments returns the number of stored documents.
func (s *Store) NumDocuments() int64 { return s.doc.Rows() }

// NumNodes returns the number of stored nodes.
func (s *Store) NumNodes() int64 { return s.xml.Rows() }

// tagOf resolves an XML-table row's tag column.  A NULL tag or a code the
// dictionary does not hold makes the record corrupt.
func (s *Store) tagOf(rid ordbms.RowID, cols []ordbms.Value) (tagPair, error) {
	tag := cols[xmlColTag]
	if p, ok := s.tags.pair(tag.Int); ok && !tag.IsNull() {
		return p, nil
	}
	return tagPair{}, fmt.Errorf("xmlstore: corrupt node %v: tag %v is not in TAG", rid, tag)
}

// nodeFromCols decodes an XML-table row's columns.  The class and name
// come from the row's tag, and the name is the dictionary's own string.
// A NULL column reads as its zero value, which is what the writer stored
// it for: "" for nodedata and attrs, ZeroRowID for a link.
func (s *Store) nodeFromCols(rid ordbms.RowID, cols []ordbms.Value) (*Node, error) {
	n := new(Node)
	if err := s.nodeInto(n, rid, cols); err != nil {
		return nil, err
	}
	return n, nil
}

// nodeInto is nodeFromCols decoding into n.
func (s *Store) nodeInto(n *Node, rid ordbms.RowID, cols []ordbms.Value) error {
	tag, err := s.tagOf(rid, cols)
	if err != nil {
		return err
	}
	attrs := cols[xmlColAttrs]
	*n = Node{
		Attrs:       decodeAttrs(attrs.Str),
		Titled:      !attrs.IsNull() && attrs.Str == "",
		DocID:       uint64(cols[xmlColDocID].Int),
		Class:       tag.class,
		Name:        tag.name,
		Data:        cols[xmlColNodeData].Str,
		RowID:       rid,
		ParentRowID: cols[xmlColParentRowID].RowID(),
		PrevRowID:   cols[xmlColPrevRowID].RowID(),
		NextRowID:   cols[xmlColNextRowID].RowID(),
		ChildRowID:  cols[xmlColChildRowID].RowID(),
	}
	return nil
}

func rowToDoc(rid ordbms.RowID, row ordbms.Row) *DocInfo {
	return &DocInfo{
		DocID:     uint64(row[docColDocID].Int),
		FileName:  row[docColFileName].Str,
		FileDate:  row[docColFileDate].Int,
		FileSize:  row[docColFileSize].Int,
		Format:    row[docColFormat].Str,
		Title:     row[docColTitle].Str,
		RootRowID: row[docColRootRowID].RowID(),
		NNodes:    row[docColNNodes].Int,
		RowID:     rid,
	}
}

// EnableNodeCache gives the store a new, empty decoded-node cache capped
// at capacity bytes.  Call during setup, before the store serves traffic;
// capacity <= 0 keeps no node past the hop that decoded it.  Nodes
// served from the cache are shared across callers and must be treated as
// read-only (every traversal already does).
func (s *Store) EnableNodeCache(capacity int64) {
	s.nodes = newNodeCache(capacity)
}

// NodeCacheStats snapshots the decoded-node cache counters.
func (s *Store) NodeCacheStats() NodeCacheStats {
	return s.nodes.stats()
}

// SetQueryWorkers does nothing: the query kernel is serial and has no
// fan-out to bound.  It remains only because bench/nmtrace, frozen for
// this change, still calls it; the next benchmark change drops the call
// and this shim with it.
func (s *Store) SetQueryWorkers(int) {}

// FetchNode reads the node at a physical RowID — one traversal hop.  A
// warm hop reads its page's image in the node cache, and a cold one
// decodes the whole page.
func (s *Store) FetchNode(rid ordbms.RowID) (*Node, error) {
	n := s.nodes.hop(rid)
	if n == nil {
		var err error
		if n, err = s.fill(rid); err != nil { // cold hop: the decoded page is the product
			return nil, err
		}
	}
	if n.RowID.IsZero() {
		return nil, ordbms.ErrRecordDeleted
	}
	return n, nil
}

// fill serves a hop the node cache missed: it decodes rid's whole page
// into a fresh image, publishes it while the page is still latched (see
// nodecache.go), and returns rid's node from it.  A page that does not
// decode whole, or has no slot for rid, answers for rid alone
// (fetchNodeUncached), so a corrupt row fails only its own hop.
func (s *Store) fill(rid ordbms.RowID) (*Node, error) {
	img := new(pageImage)
	err := s.decodePage(img, rid.Page, func() {
		if int(rid.Slot) < len(img.nodes) {
			s.nodes.publish(rid.Page, img)
		}
	})
	if err != nil || int(rid.Slot) >= len(img.nodes) {
		return s.fetchNodeUncached(rid)
	}
	return &img.nodes[rid.Slot], nil
}

// decodePage decodes page no of the XML table into img, a fresh image,
// every live row into its slot's Node, under one table lock and one page
// latch, and calls decoded, when not nil, before it lets the latch go:
// fill publishes the image there.  A cold hop decodes its whole page: the
// image is the product.
func (s *Store) decodePage(img *pageImage, no uint32, decoded func()) error {
	return s.xml.ViewPage(no, func(sch ordbms.Schema, slots int, live func(func(int, []byte) bool) error) error {
		img.nodes = make([]Node, slots) // a dead slot is a zero Node
		var cols [xmlColAttrs + 1]ordbms.Value
		var derr error
		err := live(func(slot int, rec []byte) bool {
			rid := ordbms.RowID{Page: no, Slot: uint16(slot)}
			n := &img.nodes[slot]
			if derr = ordbms.DecodeRowInto(sch, rid, rec, cols[:]); derr == nil {
				derr = s.nodeInto(n, rid, cols[:])
			}
			img.live++
			img.size += nodeFootprint(n)
			return derr == nil
		})
		if derr != nil {
			return derr
		}
		// A dead slot holds a zero Node all the same.
		img.size += int64(slots-img.live) * int64(unsafe.Sizeof(Node{}))
		if err == nil && decoded != nil {
			decoded()
		}
		return err
	})
}

// fetchNodeUncached decodes the row at rid alone, for a fill whose page
// does not decode whole: one shared table lock, one page latch, and a
// decode into stack storage — no Row allocation, no record copy.
func (s *Store) fetchNodeUncached(rid ordbms.RowID) (*Node, error) {
	var cols [xmlColAttrs + 1]ordbms.Value
	err := s.xml.FetchView(rid, func(rec []byte) error {
		// The schema is taken with the record in view: a coded record
		// exists only once the table has its symbol table.
		return ordbms.DecodeRowInto(s.xml.Schema(), rid, rec, cols[:])
	})
	if err != nil {
		return nil, err
	}
	return s.nodeFromCols(rid, cols[:])
}

// Parent follows the parent link (ZeroRowID at the root).
func (s *Store) Parent(n *Node) (*Node, error) {
	if n.ParentRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.ParentRowID)
}

// NextSibling follows the next-sibling link.
func (s *Store) NextSibling(n *Node) (*Node, error) {
	if n.NextRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.NextRowID)
}

// PrevSibling follows the previous-sibling link.
func (s *Store) PrevSibling(n *Node) (*Node, error) {
	if n.PrevRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.PrevRowID)
}

// FirstChild follows the first-child link.
func (s *Store) FirstChild(n *Node) (*Node, error) {
	if n.ChildRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.ChildRowID)
}

// walkSubtree visits root and every node beneath it in document order
// (depth 0 for root), chasing child and next-sibling links.  It is the
// store's one subtree walk: reconstruction, section text and delete all
// run on it.  The links still to follow are an explicit stack — at most two
// per level — so hostile nesting costs heap, not goroutine stack.  follow
// resolves a link; a nil node ends that branch.
func walkSubtree(root *Node, follow func(ordbms.RowID) (*Node, error), visit func(n *Node, depth int)) error {
	type link struct {
		rid   ordbms.RowID
		depth int
	}
	var buf [8]link // shallow subtrees never leave this array
	todo := buf[:0]
	for cur, depth := root, 0; ; {
		visit(cur, depth)
		// The next sibling comes after cur's whole subtree — except for
		// root, whose siblings are outside the subtree.
		if depth > 0 && !cur.NextRowID.IsZero() {
			todo = append(todo, link{cur.NextRowID, depth})
		}
		if !cur.ChildRowID.IsZero() {
			todo = append(todo, link{cur.ChildRowID, depth + 1})
		}
		for cur = nil; cur == nil; {
			if len(todo) == 0 {
				return nil
			}
			l := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			var err error
			if cur, err = follow(l.rid); err != nil {
				return err
			}
			depth = l.depth
		}
	}
}

// ScanNodes iterates every stored node in physical order (used by
// full-scan baselines and integrity checks).
func (s *Store) ScanNodes(fn func(n *Node) bool) error {
	var bad error
	err := s.xml.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		n, err := s.nodeFromCols(rid, row)
		if err != nil {
			bad = err
			return false
		}
		return fn(n)
	})
	if err == nil {
		err = bad
	}
	return err
}

// ErrNoDocument reports a document ID or name with no DOC row — either
// never stored or already deleted.  Readers racing a delete match it
// (with errors.Is) to skip the vanishing document instead of failing.
var ErrNoDocument = fmt.Errorf("xmlstore: no such document")

// IsGone reports whether err means a row or document vanished — the
// signature of racing a concurrent delete.  Readers skip gone items;
// any other error (I/O, corruption) must propagate.
func IsGone(err error) bool {
	return errors.Is(err, ErrNoDocument) || errors.Is(err, ordbms.ErrRecordDeleted)
}

// ErrDegraded is the engine's degraded-mode sentinel, re-exported so
// callers of the store API can match it without importing ordbms.
// Ingest and delete return it while the store is read-only after
// persistent write failure; search and reconstruction keep working.
var ErrDegraded = ordbms.ErrDegraded

// IsDegraded reports whether err means the store is in degraded
// read-only mode — the caller should retry later (HTTP layers answer
// 503 with Retry-After).
func IsDegraded(err error) bool {
	return errors.Is(err, ErrDegraded)
}

// IsTransient classifies an ingest failure as retryable: the document
// itself is fine, the store just could not persist it right now (device
// fault or degraded mode).  Parse and validation failures are permanent
// — retrying the same bytes cannot succeed — and callers quarantine
// them instead.
func IsTransient(err error) bool {
	return IsDegraded(err) || ordbms.IsIOFault(err)
}

// Health reports the underlying engine's write health (degraded mode,
// the fault that caused it, and the lifetime write-error count).
func (s *Store) Health() ordbms.HealthStatus {
	return s.db.Health()
}

// Document returns metadata for a document ID.
func (s *Store) Document(docID uint64) (*DocInfo, error) {
	rids, err := s.doc.Lookup("docid", ordbms.I(int64(docID)))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, fmt.Errorf("%w: id %d", ErrNoDocument, docID)
	}
	row, err := s.doc.Fetch(rids[0])
	if err != nil {
		return nil, err
	}
	return rowToDoc(rids[0], row), nil
}

// Documents lists all stored documents.
func (s *Store) Documents() ([]*DocInfo, error) {
	var out []*DocInfo
	err := s.doc.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		out = append(out, rowToDoc(rid, row))
		return true
	})
	return out, err
}

// DocumentByName returns metadata for a file name.
func (s *Store) DocumentByName(name string) (*DocInfo, error) {
	rids, err := s.doc.Lookup("filename", ordbms.S(name))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, fmt.Errorf("%w: name %q", ErrNoDocument, name)
	}
	row, err := s.doc.Fetch(rids[0])
	if err != nil {
		return nil, err
	}
	return rowToDoc(rids[0], row), nil
}

// TextIndex is the store's text index as callers see it: every
// textindex.Index query, and Phrase, which needs the section text that
// only the heap holds.
type TextIndex struct {
	*textindex.Index
	s *Store
}

// ContentIndex exposes the text index.
func (s *Store) ContentIndex() TextIndex { return TextIndex{s.content, s} }

// Phrase returns, ascending, the key rows (RowIDs packed by Uint64) of
// the sections that hold the query's terms adjacent and in order: the
// section pipeline's answer to the phrase, as section keys.  A section
// deleted while it is read is not a hit; a read error yields nil.
func (t TextIndex) Phrase(query string) []uint64 {
	var ids []uint64
	err := t.s.Sections(SectionQuery{Content: query, Phrase: true}, func(sec Section) bool {
		ids = append(ids, sec.ContextRID.Uint64())
		return true
	})
	if err != nil {
		return nil
	}
	return ids
}

// TextIndexStats reports the text index's posting-list storage counters
// (block counts, resident bytes, compression ratio) for /stats.
func (s *Store) TextIndexStats() textindex.Stats { return s.content.Stats() }

// ContextCount returns how many CONTEXT nodes carry the heading.
func (s *Store) ContextCount(heading string) int {
	n := 0
	for it := s.headings.Postings(NormalizeContext(heading)); ; n++ {
		if _, ok := it.Next(); !ok {
			return n
		}
	}
}

// ContextHeadings lists the distinct normalised headings in the store,
// sorted.
func (s *Store) ContextHeadings() []string {
	out := make([]string, 0, s.headings.Terms())
	s.headings.EachPrefix("", func(h string, _ *textindex.IDIter) { out = append(out, h) })
	return out
}
