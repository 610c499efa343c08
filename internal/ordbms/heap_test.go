package ordbms

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func memPool(t testing.TB, pages int) *BufferPool {
	t.Helper()
	return NewBufferPool(NewMemDisk(), pages)
}

func TestHeapInsertFetch(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	rid, err := h.Insert([]byte("record one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "record one" {
		t.Fatalf("got %q", got)
	}
	if h.Rows() != 1 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

func TestHeapSpansPages(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	rec := make([]byte, 1000)
	var rids []RowID
	for i := 0; i < 100; i++ { // ~100KB >> one page
		rec[0] = byte(i)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if len(h.Pages()) < 10 {
		t.Fatalf("expected >=10 pages, got %d", len(h.Pages()))
	}
	for i, rid := range rids {
		got, err := h.Fetch(rid)
		if err != nil {
			t.Fatalf("rid %v: %v", rid, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestHeapRowIDsAreStable(t *testing.T) {
	// The paper's traversal scheme requires RowIDs to survive deletes of
	// other records and page compaction.
	h := NewHeapFile(memPool(t, 64), nil)
	var rids []RowID
	for i := 0; i < 50; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < 50; i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 50; i += 2 {
		got, err := h.Fetch(rids[i])
		if err != nil {
			t.Fatalf("stable rid %v lost: %v", rids[i], err)
		}
		if got[0] != byte(i) {
			t.Fatalf("rid %v returned wrong record", rids[i])
		}
	}
}

func TestHeapDeleteSemantics(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	rid, _ := h.Insert([]byte("x"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fetch(rid); err != ErrRecordDeleted {
		t.Fatalf("want ErrRecordDeleted, got %v", err)
	}
	if err := h.Delete(rid); err != ErrRecordDeleted {
		t.Fatalf("double delete: %v", err)
	}
	if h.Rows() != 0 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

func TestHeapScanOrderAndStop(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	for i := 0; i < 30; i++ {
		if _, err := h.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	if err := h.Scan(func(_ RowID, rec []byte) bool {
		seen = append(seen, rec[0])
		return len(seen) < 10
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("scan early-stop visited %d", len(seen))
	}
	seen = seen[:0]
	if err := h.Scan(func(_ RowID, rec []byte) bool {
		seen = append(seen, rec[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 30 {
		t.Fatalf("full scan visited %d", len(seen))
	}
}

func TestHeapRejectsOversizeRecord(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestHeapFreeSpaceReuse(t *testing.T) {
	h := NewHeapFile(memPool(t, 64), nil)
	// Fill two pages.
	var rids []RowID
	for i := 0; i < 14; i++ {
		rid, err := h.Insert(make([]byte, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pagesBefore := len(h.Pages())
	// Free most of page 1 and reinsert; no new page should be allocated.
	for i := 0; i < 6; i++ {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes don't update freeHint; but the page is compactable via
	// insert retry paths.  Insert smaller records that fit in slack space.
	for i := 0; i < 4; i++ {
		if _, err := h.Insert(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.Pages()); got > pagesBefore+1 {
		t.Fatalf("pages grew from %d to %d despite free space", pagesBefore, got)
	}
}

// Two pages with room for a small record: it goes to the lower one every
// time, so the same inserts always land on the same RowIDs.
func TestHeapPlacementIsDeterministic(t *testing.T) {
	for round := 0; round < 20; round++ {
		h := NewHeapFile(memPool(t, 64), nil)
		for i := 0; i < 4; i++ { // two per page, each page left with ~2 KB
			if _, err := h.Insert(make([]byte, 3000)); err != nil {
				t.Fatal(err)
			}
		}
		rid, err := h.Insert(make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		if pages := h.Pages(); len(pages) != 2 || rid.Page != pages[0] {
			t.Fatalf("round %d: small record on page %d of %v, want the first", round, rid.Page, pages)
		}
	}
}

// The free-space map's ordered search picks the page the map walk it
// replaced did — the lowest hinted page with room — over random hint
// sets, record sizes, updates and drops.
func TestFirstFitMatchesLowestHintedPage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		h := NewHeapFile(memPool(t, 8), nil)
		h.mu.Lock()
		walk := make(map[uint32]int) // the old map, as the old rule kept it
		for i := rng.Intn(80); i > 0; i-- {
			no, free := uint32(1+rng.Intn(60)), rng.Intn(PageSize)
			if rng.Intn(4) == 0 {
				free = rng.Intn(2 * minHint) // often too little to keep
			}
			h.setHintLocked(no, free)
			if free > minHint {
				walk[no] = free
			} else {
				delete(walk, no)
			}
		}
		if len(h.hints) != len(walk) {
			t.Fatalf("round %d: %d hints, the map holds %d", round, len(h.hints), len(walk))
		}
		for n := 1; n <= MaxRecordSize; n += 1 + rng.Intn(400) {
			want, wantOK := uint32(0), false
			for p, free := range walk {
				if free >= n+slotSize && (!wantOK || p < want) {
					want, wantOK = p, true
				}
			}
			if got, ok := h.firstFitLocked(n); got != want || ok != wantOK {
				t.Fatalf("round %d, %d-byte record: ordered search picks %d (%v), the map walk %d (%v)", round, n, got, ok, want, wantOK)
			}
		}
		h.mu.Unlock()
	}
}

func TestBufferPoolEviction(t *testing.T) {
	disk := NewMemDisk()
	pool := NewBufferPool(disk, 8)
	h := NewHeapFile(pool, nil)
	var rids []RowID
	for i := 0; i < 50; i++ { // 50 pages through an 8-page pool
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 5000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Fetch(rid)
		if err != nil {
			t.Fatalf("fetch through eviction: %v", err)
		}
		if got[0] != byte(i) {
			t.Fatalf("record %d corrupted through eviction", i)
		}
	}
	_, misses, evictions := pool.Stats()
	if evictions == 0 || misses == 0 {
		t.Fatalf("expected eviction traffic, got misses=%d evictions=%d", misses, evictions)
	}
}

func TestHeapConcurrentInsertFetch(t *testing.T) {
	h := NewHeapFile(memPool(t, 256), nil)
	const g, per = 8, 200
	errc := make(chan error, g)
	for w := 0; w < g; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				rec := []byte(fmt.Sprintf("worker-%d-rec-%d", w, i))
				rid, err := h.Insert(rec)
				if err != nil {
					errc <- err
					return
				}
				got, err := h.Fetch(rid)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, rec) {
					errc <- fmt.Errorf("read own write mismatch: %q != %q", got, rec)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < g; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if h.Rows() != g*per {
		t.Fatalf("rows = %d, want %d", h.Rows(), g*per)
	}
}
