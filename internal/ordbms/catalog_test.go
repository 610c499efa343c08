package ordbms_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/xmlstore"
)

// After an XML store's ingest and deletes and a clean close, the row
// count and free-space map the catalog keeps for each of XML, DOC and
// TAG are what a scan of the table's pages finds, and what the reopened
// table, and the store's node and document counts, report.
func TestCatalogHeapMetaMatchesScan(t *testing.T) {
	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range corpus.New(1).Mixed(300) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(docs); i += 7 {
		if err := s.DeleteDocument(docs[i].DocID); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Tables []struct {
			Name  string
			Pages []uint32
			Rows  int64
			Free  [][2]uint32
		}
	}
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	db, err = ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDiscard()
	s, err = xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{"XML": s.NumNodes(), "DOC": s.NumDocuments()}
	seen := 0
	for _, ct := range cat.Tables {
		switch ct.Name {
		case "XML", "DOC", "TAG":
			seen++
		default:
			continue
		}
		rows, free, err := ordbms.ScanMeta(db.Pool(), ct.Pages)
		if err != nil {
			t.Fatal(err)
		}
		if rows != ct.Rows || !slices.Equal(free, ct.Free) {
			t.Fatalf("%s: the catalog says %d rows, free %v; a scan finds %d, %v", ct.Name, ct.Rows, ct.Free, rows, free)
		}
		if got := db.Table(ct.Name).Rows(); got != rows || rows == 0 {
			t.Fatalf("%s: reopened with %d rows, a scan finds %d", ct.Name, got, rows)
		}
		if n, ok := counts[ct.Name]; ok && n != rows {
			t.Fatalf("%s: the store counts %d, a scan finds %d", ct.Name, n, rows)
		}
	}
	if seen != 3 {
		t.Fatalf("the catalog lists %d of XML, DOC and TAG", seen)
	}
}
