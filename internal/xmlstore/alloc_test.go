package xmlstore

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// A node-cache hit — the warm traversal hop beneath every query kernel —
// must be allocation-free: a directory load, a page image's slot and a
// hit counter.
func TestFetchNodeWarmZeroAlloc(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 20)
	ingest(t, s, "sample.html", sampleHTML)

	var rid ordbms.RowID
	if err := s.ScanNodes(func(n *Node) bool {
		rid = n.RowID
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchNode(rid); err != nil { // fill
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := s.FetchNode(rid); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm FetchNode = %.2f allocs/op, want 0", n)
	}
}

// Every decoded row maps its tag code to a (nodetype, nodename) pair:
// the lookup is one atomic load and an index, with no allocation.
func TestTagPairZeroAlloc(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	codes := int64(len(*s.tags.view.Load()))
	if codes < 2 {
		t.Fatalf("the dictionary holds %d pairs", codes)
	}
	var code int64
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := s.tags.pair(code % codes); !ok {
			t.Fatalf("code %d has no pair", code%codes)
		}
		code++
	}); n != 0 {
		t.Errorf("tagDict.pair = %.2f allocs/op, want 0", n)
	}
}

// The open-time rebuild walks one document at a time, so on large
// documents its allocations follow the pages it decodes, not the stored
// rows.  (A corpus of small documents pays each one's fixed costs, a few
// allocations a row; this test holds the large-document case.)
func TestScanReopenAllocs(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	for _, d := range corpus.New(61).DeepReports(8, 6, 24, 16) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	rows := s.NumNodes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		db, s := openDir(t, dir, OpenOptions{DisableSnapshot: true})
		if s.SnapshotStats().Loaded {
			t.Fatal("the snapshot was loaded")
		}
		db.CloseDiscard()
	})
	if perRow := allocs / float64(rows); perRow >= 0.5 {
		t.Errorf("scan reopen = %.0f allocs over %d rows, %.2f per row, want < 0.5", allocs, rows, perRow)
	}
}

// Writing a document whose pages sit in the node cache, as GET /doc
// does, allocates per document and never per node: the encoder writes
// straight from the page images, so a 1 000-node document costs what a
// 10-node one does.
func TestEmitDocumentWarmAllocsFlat(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 22)
	bw := bufio.NewWriter(io.Discard)
	var allocs []float64
	for _, size := range []int{10, 1000} {
		// docform wraps the root in a <document>: size nodes in all.
		id := ingest(t, s, fmt.Sprintf("flat-%d.xml", size), "<doc>"+strings.Repeat("<p>x</p>", size-2)+"</doc>")
		info, err := s.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.NNodes != int64(size) {
			t.Fatalf("stored %d nodes, want %d", info.NNodes, size)
		}
		write := func() {
			if err := s.EmitDocument(id, sgml.NewEncoder(bw, true)); err != nil {
				t.Fatal(err)
			}
		}
		write() // fills the node cache
		allocs = append(allocs, testing.AllocsPerRun(50, write))
	}
	t.Logf("allocs/op: %v for 10 and 1000 nodes", allocs)
	if allocs[0] != allocs[1] {
		t.Errorf("writing a document costs %v allocs/op for 10 and 1000 nodes: they grow with the document", allocs)
	}
}
