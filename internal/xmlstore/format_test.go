package xmlstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// goldenNode is a text leaf: it has a parent and a previous sibling, no
// next sibling, no child and no attributes.  Stored on page 5, beside
// both, it is goldenRecord.
var goldenNode = Node{
	DocID: 7, Class: sgml.ClassText, Data: "hi",
	RowID:       ordbms.RowID{Page: 5, Slot: 4},
	ParentRowID: ordbms.RowID{Page: 5, Slot: 3},
	PrevRowID:   ordbms.RowID{Page: 5, Slot: 2},
}

// goldenRecord is goldenNode's XML-table record as stored, byte for
// byte: 11 bytes.
const goldenRecord = "" +
	"c401" + // null bitmap, 9 columns: nodename (2), nextrowid, childrowid and attrs (6, 7, 8) are NULL
	"0e" + // docid 7, zigzag varint
	"04" + // nodetype TEXT (2)
	"026869" + // nodedata "hi", uvarint length first
	"0380" + // parentrowid, near: slot 3 | 0x8000, little-endian — page 5 is the record's own
	"0280" // prevrowid, near: 5.2; nothing follows for the three NULLs

// The record format is pinned: a change to what the bytes of a stored
// node mean must show up here (and in ordbms's storeFormat) rather than
// silently misread existing stores.  A link to a row on the node's own
// page is its slot alone; a link elsewhere carries the page too.
func TestXMLRecordGoldenBytes(t *testing.T) {
	if sgml.ClassText != 2 {
		t.Fatalf("ClassText = %d; goldenRecord's nodetype byte assumes 2", sgml.ClassText)
	}
	farParent := goldenNode
	farParent.ParentRowID = ordbms.RowID{Page: 0x0102, Slot: 3}
	for _, c := range []struct {
		name string
		n    Node
		rec  string
	}{
		{"near", goldenNode, goldenRecord},
		{"far parent", farParent, "c401" + "0e" + "04" + "026869" +
			"0300" + "02010000" + // parentrowid, far: slot u16 3, then page u32 0x0102
			"0280"},
	} {
		n := c.n
		row := ordbms.Row{
			ordbms.I(int64(n.DocID)), ordbms.I(int64(n.Class)), optString(n.Name), optString(n.Data),
			ordbms.R(n.ParentRowID), ordbms.R(n.PrevRowID), linkSlot(-1), linkSlot(-1), optString(""),
		}
		if err := xmlSchema.Validate(row); err != nil {
			t.Fatal(err)
		}
		near := uint64(0)
		for col, link := range map[int]ordbms.RowID{xmlColParentRowID: n.ParentRowID, xmlColPrevRowID: n.PrevRowID} {
			if link.Page == n.RowID.Page {
				near |= 1 << col
			}
		}
		if got, _ := xmlSchema.EncodeOffsets(row, near); hex.EncodeToString(got) != c.rec {
			t.Fatalf("%s: record of the golden node:\n got %x\nwant %s", c.name, got, c.rec)
		}
		rec, _ := hex.DecodeString(c.rec)
		back, err := ordbms.DecodeRow(xmlSchema, n.RowID.Page, rec)
		if err != nil {
			t.Fatal(err)
		}
		// The NULLs read back as the values they stood for: no link, no text.
		if got := nodeFromCols(n.RowID, back); !reflect.DeepEqual(*got, n) {
			t.Fatalf("%s: golden record decodes to %+v, want %+v", c.name, *got, n)
		}
	}
	if rec, _ := hex.DecodeString(goldenRecord); len(rec) != 11 {
		t.Fatalf("golden text leaf is %d bytes, want 11", len(rec))
	}
}

// What the ingest path stores for a leaf is what the golden test pins:
// its name, missing links and empty strings are NULL bits, not bytes.
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
			if rec[0]&0xc4 != 0xc4 || rec[1]&0x01 != 0x01 { // columns 2, 6, 7, 8
				t.Errorf("node %v: null bitmap %08b %08b does not mark name, next, child and attrs NULL", n.RowID, rec[0], rec[1])
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
	if len(cuts) != 1+2+2 { // header, two tables, DOC's two indexes
		t.Fatalf("a fresh store logs %d DDL records, want 4", len(cuts)-1)
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
		// XML rows are reached by ROWID link only.
		for _, col := range xmlSchema.Columns {
			if db.Table("XML").Index(col.Name) != nil {
				t.Fatalf("cut %d: XML.%s is indexed", cut, col.Name)
			}
		}
		db.Close()
	}
}
