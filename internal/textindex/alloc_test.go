package textindex

import (
	"fmt"
	"testing"
)

// A warm iterator step — block decode into the reused scratch buffer,
// tombstone skip, gallop bookkeeping — must not allocate: the
// whole point of the streaming API is that a capped scan over a huge
// posting list costs the constructor and nothing per id.  The same holds
// for a warm SeekGE, how one iterator catches up with another when
// context= and content= meet.
func TestIterNextZeroAlloc(t *testing.T) {
	ix := New()
	const docs = 4000
	for id := uint64(1); id <= docs; id++ {
		text := "alpha beta"
		if id%3 == 0 {
			text = "alpha beta gamma"
		}
		ix.Add(id, text)
	}
	// Tombstones exercise the isDead path of every step.
	for id := uint64(5); id <= docs; id += 17 {
		remove(ix, id, "alpha beta gamma")
	}

	cases := map[string]func() *IDIter{
		"LookupIter": func() *IDIter { return ix.LookupIter("alpha") },
		"AndIter":    func() *IDIter { return ix.AndIter("alpha gamma") },
	}
	for name, mk := range cases {
		it := mk()
		// The constructor decodes the first block of each list into the
		// iterator's scratch buffer; steps after that reuse it.
		if _, ok := it.Next(); !ok {
			t.Fatalf("%s: empty stream", name)
		}
		if n := testing.AllocsPerRun(1000, func() { it.Next() }); n != 0 {
			t.Errorf("%s.Next = %.2f allocs/op, want 0", name, n)
		}
		// On a fresh iterator, 1000 seeks 3 ids apart stay inside the
		// 4000-id lists, so each lands on a live id and some cross a
		// block boundary.
		it = mk()
		target, _ := it.Next()
		if n := testing.AllocsPerRun(1000, func() {
			target += 3
			if _, ok := it.SeekGE(target); !ok {
				t.Fatalf("%s: SeekGE(%d) ran off the list", name, target)
			}
		}); n != 0 {
			t.Errorf("%s.SeekGE = %.2f allocs/op, want 0", name, n)
		}
	}
}

// The streaming drain of a multi-block intersection must cost a bounded
// handful of allocations total (iterators + scratch buffers), however
// long the lists are.
func TestIterDrainBoundedAllocs(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 3000; id++ {
		ix.Add(id, fmt.Sprintf("common word%d", id%7))
	}
	n := testing.AllocsPerRun(10, func() {
		it := ix.AndIter("common word3")
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	// Constructor cost only — tokenizer scratch, captured views, two
	// iters and their decode buffers — constant in the list length
	// (3000 ids would mean thousands of allocs if the drain leaked
	// per-id or per-block work).
	if n > 32 {
		t.Errorf("full drain = %.1f allocs, want constant constructor cost", n)
	}
}

// The phrase matcher runs once per AND candidate a phrase query pulls,
// over text the store has already fetched: it must cost no allocation,
// matched or not, whatever script the text is in.
func TestHasPhraseZeroAlloc(t *testing.T) {
	cases := []struct{ text, query string }{
		{"the technology gap is shrinking across propulsion systems", "gap is shrinking"},
		{"the technology gap is shrinking across propulsion systems", "shrinking gap"},
		{"Cafés near the ÜBER station", "cafés near"},
		{"東京タワーの報告 and more", "京タワー"},
		{"gap gap gap technology gap", "gap technology gap"},
	}
	for _, c := range cases {
		terms := Tokenize(c.query)
		if n := testing.AllocsPerRun(100, func() { HasPhrase(c.text, terms) }); n != 0 {
			t.Errorf("HasPhrase(%q, %q) = %.2f allocs/op, want 0", c.text, c.query, n)
		}
	}
}

// Ingest cuts every text with one Terms per worker and batch: a text
// whose words the Terms has seen costs no allocation at all, whatever
// script it is in.
func TestTermsSeenWordsZeroAlloc(t *testing.T) {
	var tm Terms
	dst := make([]string, 0, 64)
	for _, text := range []string{
		"The technology gap is shrinking across Propulsion systems, 2024",
		"Cafés near the ÜBER station",
		"東京タワーの報告 and more",
	} {
		tm.Append(dst, text)
		if n := testing.AllocsPerRun(100, func() { tm.Append(dst, text) }); n != 0 {
			t.Errorf("Terms.Append(%q) again = %.2f allocs/op, want 0", text, n)
		}
	}
}
