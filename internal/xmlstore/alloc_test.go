package xmlstore

import (
	"testing"

	"netmark/internal/ordbms"
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
