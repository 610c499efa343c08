package xmlstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// goldenTags is the dictionary the golden records are read with: code 0
// is the <para> element, code 1 the text class, code 2 the <h2> heading.
var goldenTags = []tagPair{{sgml.ClassElement, "para"}, {sgml.ClassText, ""}, {sgml.ClassContext, "h2"}}

// goldenNode is a text leaf: it has a parent and a previous sibling, no
// next sibling, no child and no attributes, and — neither a root nor a
// heading — no docid.  Stored on page 5, beside both, it is goldenRecord.
var goldenNode = Node{
	Class: sgml.ClassText, Data: "hi",
	RowID:       ordbms.RowID{Page: 5, Slot: 4},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 3},
	PrevRowID:   ordbms.RowID{Page: 5, Slot: 2},
}

// goldenRecord is goldenNode's XML-table record as stored, byte for
// byte: 7 bytes.
const goldenRecord = "" +
	"e1" + // null bitmap, 8 columns: docid, nextrowid, childrowid and attrs (0, 5, 6, 7) are NULL
	"02" + // tag 1, the text class
	"026869" + // nodedata "hi", uvarint length first
	"01" + // parentrowid, near: 5.3 is Δ = −1 from 5.4, zigzag 1
	"03" // prevrowid, near: 5.2, Δ = −2, zigzag 3; nothing follows for the three NULLs

// goldenElement is a <para> with a parent and a first child and nothing
// else: its name is the one byte of tag 0.
var goldenElement = Node{
	Class: sgml.ClassElement, Name: "para",
	RowID:       ordbms.RowID{Page: 5, Slot: 3},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 1},
	ChildRowID:  ordbms.RowID{Page: 5, Slot: 4},
}

// goldenContext is an <h2> heading: a heading row keeps its docid, as a
// root does, and its text.
var goldenContext = Node{
	DocID: 7, Class: sgml.ClassContext, Name: "h2", Data: "Go",
	RowID:       ordbms.RowID{Page: 5, Slot: 1},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 0},
	NextRowID:   ordbms.RowID{Page: 5, Slot: 3},
	ChildRowID:  ordbms.RowID{Page: 5, Slot: 2},
}

// goldenStore is a bare store holding only goldenTags.
func goldenStore() *Store {
	s := &Store{}
	s.tags.install(append([]tagPair(nil), goldenTags...))
	return s
}

// goldenRow is n's XML-table row under goldenTags, and the mask of its
// links that are stored near.
func goldenRow(t testing.TB, s *Store, n Node) (row ordbms.Row, near uint64) {
	code, ok := s.tags.known(tagPair{n.Class, n.Name})
	if !ok {
		t.Fatalf("no golden tag for %v <%s>", n.Class, n.Name)
	}
	docID := ordbms.Null()
	if n.DocID != 0 {
		docID = ordbms.I(int64(n.DocID))
	}
	row = ordbms.Row{docID, ordbms.I(code), optString(n.Data)}
	for col, link := range []ordbms.RowID{n.ParentRowID, n.PrevRowID, n.NextRowID, n.ChildRowID} {
		if link.IsZero() {
			row = append(row, ordbms.Null())
			continue
		}
		row = append(row, ordbms.R(link))
		if ordbms.Near(n.RowID, link) {
			near |= 1 << (xmlColParentRowID + col)
		}
	}
	return append(row, optString(encodeAttrs(n.Attrs))), near
}

// The record format is pinned: a change to what the bytes of a stored
// node mean must show up here (and in ordbms's storeFormat) rather than
// silently misread existing stores.  A link to a row near the node on
// its own page is its slot distance, one byte; a link elsewhere is its
// slot and page; a node's class and name are its tag code; only a root
// or a heading stores its docid.
func TestXMLRecordGoldenBytes(t *testing.T) {
	if sgml.ClassText != 2 || sgml.ClassElement != 1 {
		t.Fatalf("ClassText = %d, ClassElement = %d; goldenTags assumes 2 and 1", sgml.ClassText, sgml.ClassElement)
	}
	s := goldenStore()
	farParent := goldenNode
	farParent.ParentRowID = ordbms.RowID{Page: 0x0102, Slot: 3}
	for _, c := range []struct {
		name string
		n    Node
		rec  string
	}{
		{"text leaf", goldenNode, goldenRecord},
		{"far parent", farParent, "e1" + "02" + "026869" +
			"8003" + "02010000" + // parentrowid, far: slot 3 | 0x8000 big-endian, then page u32 0x0102
			"03"},
		{"element", goldenElement, "" +
			"b5" + // docid, nodedata, prevrowid, nextrowid and attrs (0, 2, 4, 5, 7) are NULL
			"00" + // tag 0, <para>
			"03" + // parentrowid, near 5.1: Δ = −2
			"02"}, // childrowid, near 5.4: Δ = +1
		{"heading", goldenContext, "" +
			"90" + // prevrowid and attrs (4, 7) are NULL
			"0e" + // docid 7, zigzag varint
			"04" + // tag 2, <h2>
			"02476f" + // nodedata "Go"
			"01" + // parentrowid, near 5.0: Δ = −1
			"04" + // nextrowid, near 5.3: Δ = +2
			"02"}, // childrowid, near 5.2: Δ = +1
	} {
		n := c.n
		row, near := goldenRow(t, s, n)
		if err := xmlSchema.Validate(row); err != nil {
			t.Fatal(err)
		}
		if got, _ := xmlSchema.EncodeOffsets(row, n.RowID, near); hex.EncodeToString(got) != c.rec {
			t.Fatalf("%s: record of the golden node:\n got %x\nwant %s", c.name, got, c.rec)
		}
		rec, _ := hex.DecodeString(c.rec)
		back, err := ordbms.DecodeRow(xmlSchema, n.RowID, rec)
		if err != nil {
			t.Fatal(err)
		}
		// The NULLs read back as the values they stood for: no link, no text.
		got, err := s.nodeFromCols(n.RowID, back)
		if err != nil || !reflect.DeepEqual(*got, n) {
			t.Fatalf("%s: golden record decodes to %+v, %v, want %+v", c.name, got, err, n)
		}
	}
	if rec, _ := hex.DecodeString(goldenRecord); len(rec) != 7 {
		t.Fatalf("golden text leaf is %d bytes, want 7", len(rec))
	}
}

// What the ingest path stores for a leaf is what the golden test pins:
// its docid, missing links and empty strings are NULL bits, not bytes.
func TestIngestStoresAbsentLinksAsNull(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	leaves := 0
	err := s.ScanNodes(func(n *Node) bool {
		if n.Class != sgml.ClassText || !n.NextRowID.IsZero() {
			return true
		}
		leaves++
		ferr := s.xml.FetchView(n.RowID, func(rec []byte) error {
			if rec[0]&0xe1 != 0xe1 { // columns 0, 5, 6, 7
				t.Errorf("node %v: null bitmap %08b does not mark docid, next, child and attrs NULL", n.RowID, rec[0])
			}
			return nil
		})
		if ferr != nil {
			t.Error(ferr)
		}
		return true
	})
	if err != nil || leaves == 0 {
		t.Fatalf("scanned %d last-sibling text leaves, err %v", leaves, err)
	}
}

// A document's docid is stored on its root and its CONTEXT rows, and on
// no other: every other row's bitmap marks it NULL.  docOf still finds
// every text node's document — the one whose DOC row leads to its root —
// by the derived index and, with that off, by the parent links alone.
func TestDocIDStoredOncePerSection(t *testing.T) {
	s := memStore(t)
	gen := corpus.New(1)
	docs := append(gen.Mixed(600), gen.DeepReports(30, 3, 8, 4)...)
	docs = append(docs,
		corpus.Document{Name: "budget.csv", Data: []byte("item,amount\ncryogenic pump,100\nturbine,200\n")},
		corpus.Document{Name: "parts.xml", Data: []byte(`<inventory><widget><label>Cryo Valve</label><qty>3</qty></widget></inventory>`)})
	for _, d := range docs {
		ingest(t, s, d.Name, string(d.Data))
	}
	infos, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	roots := make(map[ordbms.RowID]bool, len(infos))
	for _, info := range infos {
		roots[info.RootRowID] = true
	}
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, n := range nodes {
		want := roots[n.RowID] || n.Class == sgml.ClassContext
		err := s.xml.FetchView(n.RowID, func(rec []byte) error {
			if has := rec[0]&1 == 0; has != want {
				t.Errorf("%v <%s> of class %d: docid stored = %v, want %v", n.RowID, n.Name, n.Class, has, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want {
			stored++
		}
	}
	if stored*4 > len(nodes) {
		t.Fatalf("%d of %d rows store a docid: the corpus is nearly all headings", stored, len(nodes))
	}

	for _, indexed := range []bool{true, false} {
		s.SetContextIndexEnabled(indexed)
		texts, headless := 0, 0
		for _, info := range infos {
			for _, rid := range docRowIDs(t, s, info.DocID) {
				n, err := s.FetchNode(rid)
				if err != nil {
					t.Fatal(err)
				}
				if n.Class != sgml.ClassText {
					continue
				}
				texts++
				if ctx, _ := s.indexedSection(rid); ctx.IsZero() {
					headless++
				}
				if id, err := s.docOf(n); err != nil || id != info.DocID {
					t.Fatalf("index %v: text node %v of %s is in document %d (%v), want %d", indexed, rid, info.FileName, id, err, info.DocID)
				}
			}
		}
		all := 0
		for _, n := range nodes {
			if n.Class == sgml.ClassText {
				all++
			}
		}
		if texts != all || headless == 0 {
			t.Fatalf("index %v: the documents' walks reach %d of %d text nodes, %d under no heading", indexed, texts, all, headless)
		}
	}
}

// Each piece of the store's DDL is its own log record, so a crash can
// fall between a CreateTable and any of its CreateIndex records.  Cut a
// fresh store's log after every one of them: the store must open, take
// a document and find it by name (which needs DOC.filename's index).
func TestOpenAfterEveryDDLCut(t *testing.T) {
	src := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard()
	wal, err := os.ReadFile(filepath.Join(src, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{16}
	for pos := 16; pos < len(wal); {
		pos += 8 + int(binary.LittleEndian.Uint32(wal[pos:]))
		cuts = append(cuts, pos)
	}
	if len(cuts) != 1+2+2+1 { // header, two tables, DOC's two indexes, TAG
		t.Fatalf("a fresh store logs %d DDL records, want 5", len(cuts)-1)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.nmlog"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, s := openDir(t, dir, OpenOptions{})
		name, data := chaosDoc(cut)
		if _, err := s.StoreRaw(name, data); err != nil {
			t.Fatalf("cut %d: ingest: %v", cut, err)
		}
		if _, err := s.DocumentByName(name); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if hits, err := s.ContextSearchN(fmt.Sprintf("Doc %d", cut), 0); err != nil || len(hits) != 1 {
			t.Fatalf("cut %d: context search = %v, %v", cut, hits, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// And the repaired schema persists: a clean reopen has it all.
		db, s = openDir(t, dir, OpenOptions{})
		if got := reconstructBytes(t, s, name); got == "" {
			t.Fatalf("cut %d: document empty after reopen", cut)
		}
		for _, col := range []string{"docid", "filename"} {
			if db.Table("DOC").Index(col) == nil {
				t.Fatalf("cut %d: no index on DOC.%s after reopen", cut, col)
			}
		}
		if db.Table("TAG") == nil || len(*s.tags.view.Load()) == 0 {
			t.Fatalf("cut %d: no TAG table, or an empty dictionary, after reopen", cut)
		}
		// XML rows are reached by ROWID link only.
		for _, col := range xmlSchema.Columns {
			if db.Table("XML").Index(col.Name) != nil {
				t.Fatalf("cut %d: XML.%s is indexed", cut, col.Name)
			}
		}
		db.Close()
	}
}
