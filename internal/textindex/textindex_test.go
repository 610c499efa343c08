package textindex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hello", []string{"hello"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"space-shuttle v2.0", []string{"space", "shuttle", "v2", "0"}},
		{"  multiple   spaces  ", []string{"multiple", "spaces"}},
		{"ÜBER café", []string{"über", "café"}},
		{"123 456", []string{"123", "456"}},
		// Combining marks extend the current token: the NFD spelling of
		// "cafés" (e + U+0301) must not split at the mark.
		{"cafe\u0301s society", []string{"cafe\u0301s", "society"}},
		// Script boundaries flush, and Han ideographs are unigrams.
		{"abc日本語def", []string{"abc", "日", "本", "語", "def"}},
		{"東京tower", []string{"東", "京", "tower"}},
		{"第3章", []string{"第", "3", "章"}},
		{"한국어 텍스트", []string{"한국어", "텍스트"}},
		{"ひらがなとカタカナ", []string{"ひらがなと", "カタカナ"}},
		{"서울2024", []string{"서울", "2024"}},
	}
	for _, c := range cases {
		terms := Tokenize(c.in)
		if len(terms) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, terms, c.want)
		}
		for i := range terms {
			if terms[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, terms, c.want)
			}
		}
	}
}

func TestLookupBasic(t *testing.T) {
	ix := New()
	ix.Add(1, "the space shuttle launched")
	ix.Add(2, "budget report for the shuttle program")
	ix.Add(3, "unrelated document about parsers")

	got := drain(ix.LookupIter("shuttle"))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Lookup(shuttle) = %v", got)
	}
	if got := drain(ix.LookupIter("SHUTTLE")); len(got) != 2 {
		t.Fatalf("case-insensitive lookup failed: %v", got)
	}
	if got := drain(ix.LookupIter("absent")); got != nil {
		t.Fatalf("Lookup(absent) = %v", got)
	}
	if got := drain(ix.LookupIter("")); got != nil {
		t.Fatalf("Lookup(empty) = %v", got)
	}
}

func TestAnd(t *testing.T) {
	ix := New()
	ix.Add(1, "engine anomaly detected")
	ix.Add(2, "engine nominal")
	ix.Add(3, "anomaly in the guidance system")

	and := drain(ix.AndIter("engine anomaly"))
	if len(and) != 1 || and[0] != 1 {
		t.Fatalf("And = %v", and)
	}
	if got := drain(ix.AndIter("engine missing")); got != nil {
		t.Fatalf("And with absent term = %v", got)
	}
}

// phrase is a phrase query over an index whose texts the caller keeps:
// the AND of the terms, kept where HasPhrase finds them adjacent — the
// store's pipeline, with a map standing in for the heap.
// remove takes back what Add(id, text) put in, for each text given.
func remove(ix *Index, id uint64, texts ...string) {
	toks := Tokenize(strings.Join(texts, " "))
	ix.RemoveTokens([]uint64{id}, toks, []int32{0, int32(len(toks))})
}

func phrase(ix *Index, texts map[uint64]string, query string) []uint64 {
	terms := Tokenize(query)
	var out []uint64
	for _, id := range drain(ix.AndIter(query)) {
		if HasPhrase(texts[id], terms) {
			out = append(out, id)
		}
	}
	return out
}

func TestPhrase(t *testing.T) {
	cases := []struct {
		text, query string
		want        bool
	}{
		{"the technology gap is shrinking", "technology gap", true},
		{"gap in technology assessments", "technology gap", false}, // both words, wrong order
		{"technology gap widening", "technology gap", true},
		{"Technology, GAP!", "technology gap", true}, // separators and case do not matter
		{"biotechnology gaps", "technology gap", false},
		{"the technology   gap is shrinking", "gap is shrinking", true},
		{"the technology gap is shrinking", "shrinking", true},
		{"the technology gap is shrinking", "shrinking is", false},
		{"gap gap gap technology gap", "gap technology gap", true}, // a false start does not hide a later match
		{"a b a b c", "a b c", true},
		{"a b a b", "a b c", false},
		{"technology", "technology gap", false}, // the phrase runs past the text
		{"anything", "", true},
		{"", "gap", false},
	}
	for _, c := range cases {
		if got := HasPhrase(c.text, Tokenize(c.query)); got != c.want {
			t.Errorf("HasPhrase(%q, %q) = %v, want %v", c.text, c.query, got, c.want)
		}
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	ix.Add(1, "alpha beta")
	ix.Add(2, "beta gamma")
	remove(ix, 1, "alpha beta")
	if got := drain(ix.LookupIter("alpha")); got != nil {
		t.Fatalf("alpha survives remove: %v", got)
	}
	if got := drain(ix.LookupIter("beta")); len(got) != 1 || got[0] != 2 {
		t.Fatalf("beta postings wrong after remove: %v", got)
	}
	if got := ix.Stats().Postings; got != 2 {
		t.Fatalf("postings = %d, want 2", got)
	}
	// Removing again is a no-op, and so is removing a term id never held.
	remove(ix, 1, "alpha beta gamma")
	if got := ix.Stats().Postings; got != 2 || ix.DF("beta") != 1 || ix.DF("gamma") != 1 {
		t.Fatalf("double remove changed postings: %d (beta %d, gamma %d)", got, ix.DF("beta"), ix.DF("gamma"))
	}
}

func TestDFAndStats(t *testing.T) {
	ix := New()
	ix.Add(1, "x y")
	ix.Add(2, "x")
	ix.Add(3, "x y z")
	if ix.DF("x") != 3 || ix.DF("y") != 2 || ix.DF("z") != 1 || ix.DF("w") != 0 {
		t.Fatalf("DF: x=%d y=%d z=%d w=%d", ix.DF("x"), ix.DF("y"), ix.DF("z"), ix.DF("w"))
	}
	if ix.Terms() != 3 {
		t.Fatalf("terms = %d", ix.Terms())
	}
	if got := ix.Stats().Postings; got != 6 {
		t.Fatalf("postings = %d, want 6", got)
	}
}

func TestIDsSortedEvenWithOutOfOrderAdds(t *testing.T) {
	ix := New()
	ids := []uint64{50, 10, 90, 30, 70, 20}
	for _, id := range ids {
		ix.Add(id, "common")
	}
	got := drain(ix.LookupIter("common"))
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("postings unsorted: %v", got)
	}
	if len(got) != len(ids) {
		t.Fatalf("lost postings: %v", got)
	}
}

// Property: Lookup agrees with a naive reference implementation over
// random tiny corpora.
func TestQuickAgainstNaiveSearch(t *testing.T) {
	words := []string{"engine", "budget", "shuttle", "anomaly", "gap", "risk", "plan"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		docs := make(map[uint64]string)
		ix := New()
		for id := uint64(1); id <= uint64(n%20)+2; id++ {
			k := r.Intn(5) + 1
			var sb strings.Builder
			for i := 0; i < k; i++ {
				sb.WriteString(words[r.Intn(len(words))])
				sb.WriteByte(' ')
			}
			docs[id] = sb.String()
			ix.Add(id, docs[id])
		}
		for _, w := range words {
			var want []uint64
			for id, text := range docs {
				if strings.Contains(text, w) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := drain(ix.LookupIter(w))
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: And(a b) == intersection of Lookup(a) and Lookup(b).
func TestQuickAndIsIntersection(t *testing.T) {
	f := func(assign []uint8) bool {
		ix := New()
		for i, mask := range assign {
			id := uint64(i + 1)
			var parts []string
			if mask&1 != 0 {
				parts = append(parts, "aterm")
			}
			if mask&2 != 0 {
				parts = append(parts, "bterm")
			}
			if len(parts) > 0 {
				ix.Add(id, strings.Join(parts, " "))
			}
		}
		a, b := drain(ix.LookupIter("aterm")), drain(ix.LookupIter("bterm"))
		inA := make(map[uint64]bool)
		for _, id := range a {
			inA[id] = true
		}
		var want []uint64
		for _, id := range b {
			if inA[id] {
				want = append(want, id)
			}
		}
		got := drain(ix.AndIter("aterm bterm"))
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAddLookup(t *testing.T) {
	ix := New()
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				ix.Add(uint64(w*1000+i), fmt.Sprintf("worker %d doc %d shared", w, i))
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				drain(ix.LookupIter("shared"))
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(drain(ix.LookupIter("shared"))); got != 800 {
		t.Fatalf("shared postings = %d", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Add(uint64(i), "the quick brown fox jumps over the lazy dog near the riverbank")
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := New()
	for i := 0; i < 50000; i++ {
		ix.Add(uint64(i), fmt.Sprintf("document %d mentions shuttle and engine terms", i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drain(ix.LookupIter("shuttle"))
	}
}

// TestBlockSealAndSkip drives one term through many sealed blocks and
// checks that lookups and skip-driven intersections stay exact.
func TestBlockSealAndSkip(t *testing.T) {
	ix := New()
	const n = 1000
	for id := uint64(1); id <= n; id++ {
		text := "common"
		if id%97 == 0 {
			text = "common rare"
		}
		ix.Add(id, text)
	}
	st := ix.Stats()
	if st.Blocks < n/blockSize-1 {
		t.Fatalf("expected sealed blocks, stats = %+v", st)
	}
	if got := drain(ix.LookupIter("common")); len(got) != n || got[0] != 1 || got[n-1] != n {
		t.Fatalf("Lookup(common) len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	and := drain(ix.AndIter("common rare"))
	if len(and) != n/97 {
		t.Fatalf("And(common rare) = %d ids, want %d", len(and), n/97)
	}
	for _, id := range and {
		if id%97 != 0 {
			t.Fatalf("unexpected intersection id %d", id)
		}
	}
	if st.CompressionRatio < 2 {
		t.Fatalf("dense ascending ids should compress >2x, got %.2f (%+v)", st.CompressionRatio, st)
	}
}

// SeekGE past the end of the decoded block decodes the target's block
// into the same buffer.  A seek that lands inside a later block, with
// ids of the current one still undelivered, must position by the new
// block alone: nothing read from the buffer before the refill may be
// used after it.
func TestSeekGEIntoLaterBlock(t *testing.T) {
	ix := New()
	const n = 20 * blockSize
	var live []uint64
	for id := uint64(1); id <= n; id++ {
		ix.Add(id, "common")
	}
	for id := uint64(1); id <= n; id++ {
		if id%11 == 0 {
			remove(ix, id, "common")
		} else {
			live = append(live, id)
		}
	}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		it, want, target := ix.LookupIter("common"), live, uint64(0)
		for {
			// Strides of up to three blocks: most seeks leave the
			// decoded block part-read and land mid-block.
			target += 1 + uint64(r.Intn(3*blockSize))
			i := sort.Search(len(want), func(i int) bool { return want[i] >= target })
			got, ok := it.SeekGE(target)
			if ok != (i < len(want)) || ok && got != want[i] {
				t.Fatalf("round %d: SeekGE(%d) = %d, %v; want %v", round, target, got, ok, want[i:min(i+1, len(want))])
			}
			if !ok {
				break
			}
			want = want[i+1:]
		}
	}
}

// TestOutOfOrderTailOverlap inserts ids below already-sealed blocks so
// the tail overlaps sealed ranges, then forces the overflow rebuild.
func TestOutOfOrderTailOverlap(t *testing.T) {
	ix := New()
	// Seal several blocks of high ids first.
	for id := uint64(10000); id < 10000+5*blockSize; id++ {
		ix.Add(id, "w")
	}
	// Now add low ids: they land in the tail, which can never seal past
	// the existing blocks; growing it past 4*blockSize forces a rebuild.
	for id := uint64(1); id <= 5*blockSize; id++ {
		ix.Add(id, "w")
	}
	got := drain(ix.LookupIter("w"))
	if len(got) != 10*blockSize {
		t.Fatalf("len = %d, want %d", len(got), 10*blockSize)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ids unsorted after overlap rebuild")
	}
	if got[0] != 1 || got[len(got)-1] != 10000+5*blockSize-1 {
		t.Fatalf("range wrong: first=%d last=%d", got[0], got[len(got)-1])
	}
}

// TestTombstoneCompaction removes most of a sealed term and checks the
// tombstones are folded away while queries stay exact.
func TestTombstoneCompaction(t *testing.T) {
	ix := New()
	const n = 600
	for id := uint64(1); id <= n; id++ {
		ix.Add(id, "victim keeper")
	}
	for id := uint64(1); id <= n; id++ {
		if id%3 != 0 {
			remove(ix, id, "victim keeper")
		}
	}
	st := ix.Stats()
	if st.DeadIDs > n/4 {
		t.Fatalf("tombstones not compacted: %+v", st)
	}
	got := drain(ix.LookupIter("victim"))
	if len(got) != n/3 {
		t.Fatalf("len = %d, want %d", len(got), n/3)
	}
	for _, id := range got {
		if id%3 != 0 {
			t.Fatalf("removed id %d still visible", id)
		}
	}
	if df := ix.DF("keeper"); df != n/3 {
		t.Fatalf("DF = %d, want %d", df, n/3)
	}
}

// TestReinsertTombstonedID removes a block-resident id and re-adds it:
// the tombstone must be revived, not duplicated.
func TestReinsertTombstonedID(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 2*blockSize; id++ {
		ix.Add(id, "stable flux")
	}
	remove(ix, 7, "stable flux") // inside the first sealed block
	if got := drain(ix.LookupIter("flux")); len(got) != 2*blockSize-1 {
		t.Fatalf("after remove: %d ids", len(got))
	}
	ix.Add(7, "stable flux phoenix")
	got := drain(ix.LookupIter("flux"))
	if len(got) != 2*blockSize {
		t.Fatalf("after re-add: %d ids, want %d", len(got), 2*blockSize)
	}
	seen := 0
	for _, id := range got {
		if id == 7 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("id 7 appears %d times", seen)
	}
	if got := drain(ix.LookupIter("phoenix")); len(got) != 1 || got[0] != 7 {
		t.Fatalf("phoenix = %v", got)
	}
	if got := drain(ix.AndIter("stable flux phoenix")); len(got) != 1 || got[0] != 7 {
		t.Fatalf("And over revived id = %v", got)
	}
}

// TestPhraseAcrossBlocks checks phrase adjacency still works when the
// candidate ids live in sealed blocks.
func TestPhraseAcrossBlocks(t *testing.T) {
	ix := New()
	texts := make(map[uint64]string)
	for id := uint64(1); id <= 3*blockSize; id++ {
		texts[id] = "oxygen liquid reversed"
		if id%2 == 0 {
			texts[id] = "liquid oxygen tank"
		}
		ix.Add(id, texts[id])
	}
	if ix.Stats().Blocks == 0 {
		t.Fatal("setup: no sealed blocks")
	}
	got := phrase(ix, texts, "liquid oxygen")
	if len(got) != 3*blockSize/2 {
		t.Fatalf("Phrase = %d ids, want %d", len(got), 3*blockSize/2)
	}
	for _, id := range got {
		if id%2 != 0 {
			t.Fatalf("wrong-order doc %d matched phrase", id)
		}
	}
}

// TestCJKPhraseSearch: Han unigrams make unsegmented CJK text
// searchable via phrase adjacency.
func TestCJKPhraseSearch(t *testing.T) {
	ix := New()
	texts := map[uint64]string{
		1: "東京の報告",
		2: "京東の報告", // reversed ideographs
	}
	for id, text := range texts {
		ix.Add(id, text)
	}
	if got := phrase(ix, texts, "東京"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Phrase(東京) = %v", got)
	}
	if got := phrase(ix, texts, "の報告"); len(got) != 2 {
		t.Fatalf("Phrase(の報告) = %v", got)
	}
	if got := drain(ix.LookupIter("東")); len(got) != 2 {
		t.Fatalf("Lookup(東) = %v", got)
	}
}

// has answers for every id exactly as the list's live ids do — 0, ids
// in a sealed block, in the tail, tombstoned and past the end — whether
// the list holds id 0 or not, and reads a block in place, without
// allocating.
func TestHasExact(t *testing.T) {
	for _, first := range []uint64{0, 1} {
		ix := New()
		want := make(map[uint64]bool)
		for id := first; id < 3*blockSize; id += 1 + id%3 {
			ix.Add(id, "term")
			want[id] = true
		}
		for id := uint64(4); id < 2*blockSize; id += 9 {
			if want[id] {
				remove(ix, id, "term")
				delete(want, id)
			}
		}
		ix.Add(5, "term") // out of order: the tail overlaps a block
		want[5] = true
		pl := ix.terms.Get("term")[0]
		if len(pl.blocks) == 0 || len(pl.tail) == 0 || len(pl.dead) == 0 {
			t.Fatalf("setup: %d blocks, %d tail ids, %d tombstones", len(pl.blocks), len(pl.tail), len(pl.dead))
		}
		for id := uint64(0); id < 3*blockSize+2; id++ {
			if got := pl.has(id); got != want[id] {
				t.Fatalf("first id %d: has(%d) = %v, want %v", first, id, got, want[id])
			}
		}
		if n := testing.AllocsPerRun(100, func() { pl.has(2 * blockSize) }); n != 0 {
			t.Fatalf("has = %.1f allocs, want 0", n)
		}
	}
}
