package xmlstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// lookups is how many hops the node cache has served or missed.
func lookups(s *Store) uint64 {
	st := s.NodeCacheStats()
	return st.Hits + st.Misses
}

// reconstructUncached serializes document id through a zero-budget node
// cache, every hop decoding its page afresh, and leaves the store's cache
// as it was.
func reconstructUncached(t *testing.T, s *Store, id uint64) string {
	t.Helper()
	c := s.nodes
	s.EnableNodeCache(0)
	defer func() { s.nodes = c }()
	tree, err := s.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	return sgml.Serialize(tree)
}

// A row stored into the free space of a page whose image is cached has a
// slot past the image's: the hop decodes the page again, and the new
// document reads back as it does without the cache.
func TestPageImageSeesNewRow(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 20)
	first := ingest(t, s, "sample.html", sampleHTML)
	firstText := reconstructBytes(t, s, "sample.html") // caches its page
	info, err := s.Document(first)
	if err != nil {
		t.Fatal(err)
	}
	page := info.RootRowID.Page
	img := (*s.nodes.dir.Load())[page].Load()
	if img == nil {
		t.Fatal("setup: the first document's page has no image")
	}

	second := ingest(t, s, "small.html", `<html><body><h1>Later</h1><p>a late row on a cached page</p></body></html>`)
	info, err = s.Document(second)
	if err != nil {
		t.Fatal(err)
	}
	if info.RootRowID.Page != page || int(info.RootRowID.Slot) < len(img.nodes) {
		t.Fatalf("setup: the small document's root is %v, want page %d past slot %d", info.RootRowID, page, len(img.nodes))
	}
	before := s.NodeCacheStats()
	if got, want := reconstructBytes(t, s, "small.html"), reconstructUncached(t, s, second); got != want {
		t.Fatalf("cached Reconstruct of the new document:\n got: %s\nwant: %s", got, want)
	}
	after := s.NodeCacheStats()
	if after.Misses != before.Misses+1 {
		t.Errorf("the new document took %d page decodes, want 1", after.Misses-before.Misses)
	}
	if (*s.nodes.dir.Load())[page].Load() == img {
		t.Error("the stale image is still published")
	}
	if got := reconstructBytes(t, s, "sample.html"); got != firstText {
		t.Fatal("the first document changed")
	}
}

// A deleted row is gone both through the image decoded after its delete
// and after the delete invalidated the image that held it.
func TestPageImageDeletedRow(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 20)
	a := ingest(t, s, "a.html", sampleHTML)
	b := ingest(t, s, "b.html", sampleHTML)
	ra, err := s.Document(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Document(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.RootRowID.Page != rb.RootRowID.Page {
		t.Fatalf("setup: the documents' roots are on pages %d and %d", ra.RootRowID.Page, rb.RootRowID.Page)
	}
	if _, err := s.FetchNode(ra.RootRowID); err != nil { // caches the page, a live
		t.Fatal(err)
	}
	if err := s.DeleteDocument(a); err != nil {
		t.Fatal(err)
	}
	if st := s.NodeCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("the delete left its page's image: %+v", st)
	}
	if n, err := s.FetchNode(ra.RootRowID); !IsGone(err) {
		t.Fatalf("after the invalidation, the deleted root = %+v, %v", n, err)
	}

	// The hop above decoded the page again, with a's slots dead.
	before := s.NodeCacheStats()
	if n, err := s.FetchNode(ra.RootRowID); !IsGone(err) {
		t.Fatalf("through the cached image, the deleted root = %+v, %v", n, err)
	}
	if after := s.NodeCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("the hop was not served from the image: %+v then %+v", before, after)
	}
	if _, err := s.FetchNode(rb.RootRowID); err != nil {
		t.Fatal(err)
	}
}

// A page image holds a zero Node in each slot a delete left dead, and
// charges it at a Node's size against the cap beside its live nodes'
// footprints.
func TestDeadSlotsAreCharged(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 20)
	a := ingest(t, s, "a.html", sampleHTML)
	b := ingest(t, s, "b.html", sampleHTML)
	ra, err := s.Document(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Document(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.RootRowID.Page != rb.RootRowID.Page {
		t.Fatalf("setup: the documents' roots are on pages %d and %d", ra.RootRowID.Page, rb.RootRowID.Page)
	}
	if err := s.DeleteDocument(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchNode(rb.RootRowID); err != nil { // decodes the page, a's slots dead
		t.Fatal(err)
	}
	img := (*s.nodes.dir.Load())[rb.RootRowID.Page].Load()
	var live, dead int64
	for i := range img.nodes {
		if n := &img.nodes[i]; n.RowID.IsZero() {
			dead++
		} else {
			live += nodeFootprint(n)
		}
	}
	if dead == 0 {
		t.Fatal("setup: the page has no dead slot")
	}
	want := live + dead*int64(unsafe.Sizeof(Node{}))
	if st := s.NodeCacheStats(); img.size != want || st.Bytes != want {
		t.Fatalf("an image of %d dead slots is charged %d (cache %d), want %d", dead, img.size, st.Bytes, want)
	}
}

// A fill that decoded its page before a delete publishes before the
// delete can change the page, since it holds the page latch from its
// decode to its publish, and the delete's invalidation then drops the
// image: it would serve the deleted rows.
func TestFillRacingDeleteIsDropped(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(1 << 20)
	a := ingest(t, s, "a.html", sampleHTML)
	ingest(t, s, "b.html", sampleHTML)
	info, err := s.Document(a)
	if err != nil {
		t.Fatal(err)
	}
	// A fill of the root's page, as fill runs one, held between its
	// decode and its publish.
	no, img := info.RootRowID.Page, new(pageImage)
	decoded, release := make(chan struct{}), make(chan struct{})
	filled := make(chan error)
	go func() {
		filled <- s.decodePage(img, no, func() {
			close(decoded)
			<-release
			s.nodes.publish(no, img)
		})
	}()
	<-decoded
	deleted := make(chan error)
	go func() { deleted <- s.DeleteDocument(a) }() // the walk reads around the cache
	select {
	case err := <-deleted:
		t.Fatalf("the delete returned (%v) while a fill held its page between decode and publish", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-filled; err != nil {
		t.Fatalf("the fill that raced the delete: %v", err)
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if st := s.NodeCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("the stale image survived the delete: %+v", st)
	}
	if n, err := s.FetchNode(info.RootRowID); !IsGone(err) {
		t.Fatalf("the deleted root = %+v, %v", n, err)
	}
}

// A row that does not decode fails only its own hop: its page never
// decodes whole, so each of the page's other rows is read alone, cold and
// warm, and reads as it did before the row was planted.
func TestCorruptRowFailsOnlyItsHop(t *testing.T) {
	s := memStore(t)
	id := ingest(t, s, "sample.html", sampleHTML)
	rids := docRowIDs(t, s, id)
	want := make(map[ordbms.RowID]Node, len(rids))
	for _, rid := range rids {
		n, err := s.FetchNode(rid)
		if err != nil {
			t.Fatal(err)
		}
		want[rid] = *n
	}
	// A tag code one past the dictionary's, as in TestUnknownTagIsAnError.
	bad, err := s.xml.Insert(ordbms.Row{ordbms.I(99), ordbms.I(int64(len(dictionary(s)))), ordbms.S("orphan"),
		ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null()})
	if err != nil {
		t.Fatal(err)
	}
	var neighbours []ordbms.RowID
	for _, rid := range rids {
		if rid.Page == bad.Page {
			neighbours = append(neighbours, rid)
		}
	}
	if len(neighbours) == 0 {
		t.Fatalf("setup: the planted row %v shares no page with the document", bad)
	}
	s.EnableNodeCache(DefaultNodeCacheBytes)
	for _, pass := range []string{"cold", "warm"} {
		for _, rid := range neighbours {
			n, err := s.FetchNode(rid)
			if err != nil {
				t.Fatalf("%s: %v beside the planted row: %v", pass, rid, err)
			}
			if !reflect.DeepEqual(*n, want[rid]) {
				t.Fatalf("%s: %v beside the planted row = %+v, want %+v", pass, rid, *n, want[rid])
			}
		}
		if n, err := s.FetchNode(bad); err == nil {
			t.Fatalf("%s: the planted row = %+v", pass, n)
		}
	}
}

// A delete walks its document a page at a time beside the node cache: a
// document no reader has touched goes without a lookup, and the images
// readers warmed on other pages stay.
func TestDeleteWalksBesideTheCache(t *testing.T) {
	s := memStore(t)
	doomed := ingest(t, s, "doomed.html", string(longDoc("doomed.html", 60, "doomed").Data))
	kept := ingest(t, s, "kept.html", string(longDoc("kept.html", 60, "kept").Data))
	doomedPages := make(map[uint32]bool)
	for _, rid := range docRowIDs(t, s, doomed) {
		doomedPages[rid.Page] = true
	}
	keptRows := docRowIDs(t, s, kept)
	s.EnableNodeCache(DefaultNodeCacheBytes) // cold: docRowIDs read through the cache
	for _, rid := range keptRows {
		if !doomedPages[rid.Page] {
			if _, err := s.FetchNode(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.NodeCacheStats()
	if before.Entries == 0 {
		t.Fatal("setup: the kept document has no page of its own")
	}
	if err := s.DeleteDocument(doomed); err != nil {
		t.Fatal(err)
	}
	after := s.NodeCacheStats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes || after.Misses != before.Misses {
		t.Fatalf("the delete moved the node cache: %+v, then %+v", before, after)
	}
}

// A corpus that decodes to twice the cap stays within it, evicting whole
// images, and Entries and Evictions count nodes.
func TestPageImagesFitTheCap(t *testing.T) {
	s := memStore(t)
	var ids []uint64
	for _, d := range corpus.New(5).DeepReports(8, 4, 8, 5) {
		id, err := s.StoreRaw(d.Name, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	readAll := func() {
		for _, id := range ids {
			if _, err := s.Reconstruct(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.EnableNodeCache(1 << 30)
	readAll()
	whole := s.NodeCacheStats()
	if whole.Entries != int(s.NumNodes()) || whole.Evictions != 0 {
		t.Fatalf("an uncapped read of every document holds %d entries and evicted %d, want every one of %d nodes",
			whole.Entries, whole.Evictions, s.NumNodes())
	}

	s.EnableNodeCache(whole.Bytes / 2)
	readAll()
	st := s.NodeCacheStats()
	if st.Bytes > st.Capacity || st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("over the cap or no eviction: %+v", st)
	}
	// Every node was decoded, so each one not resident was evicted.
	if missing := s.NumNodes() - int64(st.Entries); int64(st.Evictions) < missing {
		t.Fatalf("%d nodes evicted, but %d are not resident", st.Evictions, missing)
	}
}

// A capped query pulls key rows for its limit, not a whole chunk: a
// limit-1 content query over more candidates than sectionChunk makes at
// most 16 key-row lookups besides its section's hops.
func TestPullFollowsTheLimit(t *testing.T) {
	s := memStore(t)
	s.EnableNodeCache(64 << 20)
	for d := 0; d < 12; d++ {
		doc := "<report>"
		for i := 0; i < 60; i++ {
			doc += fmt.Sprintf("<heading>H%d</heading><para>liquid oxygen %d</para>", i, i)
		}
		ingest(t, s, fmt.Sprintf("d%d.xml", d), doc+"</report>")
	}
	if df := s.ContentIndex().DF("liquid"); df <= sectionChunk {
		t.Fatalf("setup: %d candidates fit one chunk", df)
	}
	for pass := 0; pass < 2; pass++ { // cold, then warm
		before := lookups(s)
		secs, err := s.ContentSearchN("liquid", 1)
		if err != nil || len(secs) != 1 {
			t.Fatalf("content=liquid&limit=1: %d sections, %v", len(secs), err)
		}
		query := lookups(s) - before

		key, err := s.FetchNode(secs[0].ContextRID)
		if err != nil {
			t.Fatal(err)
		}
		before = lookups(s)
		if _, err := s.keySection(key); err != nil {
			t.Fatal(err)
		}
		section := lookups(s) - before
		if query > 16+section {
			t.Fatalf("pass %d: the query made %d lookups, want at most 16 key rows + %d for its section", pass, query, section)
		}
	}
}
