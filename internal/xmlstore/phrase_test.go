package xmlstore

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// phraseSectionRIDs runs a phrase-only query through the section pipeline
// and returns the key rows (packed by Uint64) of the sections it
// delivers, in delivery order.
func phraseSectionRIDs(t *testing.T, s *Store, phrase string) []uint64 {
	t.Helper()
	secs, err := s.collect(SectionQuery{Content: phrase, Phrase: true})
	if err != nil {
		t.Fatalf("phrase %q: %v", phrase, err)
	}
	var out []uint64
	for _, sec := range secs {
		out = append(out, sec.ContextRID.Uint64())
	}
	return out
}

// TestStorePhrase runs the store's phrase query end to end: adjacency and
// order decide, separators and case do not, a phrase may run across the
// text runs of one section but not from one section into the next, CJK
// text matches as a run of unigrams, and ContentIndex().Phrase returns
// the matching sections' key rows, ascending.
func TestStorePhrase(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "gap.html", `<html><body>
<h1>Technology Gap</h1><p>The technology gap is shrinking.</p>
<h1>Reversed</h1><p>A gap in technology assessments.</p>
<h1>Punctuated</h1><p>Technology, GAP: widening!</p>
<h1>Split</h1><p>only technology</p><p>gap starts this one</p>
<h1>東京</h1><p>東京の報告</p>
<h1>京東</h1><p>京東の報告</p>
</body></html>`)
	headings := func(phrase string) []string {
		secs, err := s.collect(SectionQuery{Content: phrase, Phrase: true})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sec := range secs {
			out = append(out, sec.Context)
		}
		return out
	}
	for phrase, want := range map[string][]string{
		"technology gap":   {"Technology Gap", "Punctuated", "Split"},
		"gap is shrinking": {"Technology Gap"},
		"shrinking is":     nil,
		"widening split":   nil,
		"technology":       {"Technology Gap", "Reversed", "Punctuated", "Split"},
		"東京":               {"東京"},
		"の報告":              {"東京", "京東"},
	} {
		if got := headings(phrase); !reflect.DeepEqual(got, want) {
			t.Errorf("phrase %q: sections %q, want %q", phrase, got, want)
		}
	}
	hits := s.ContentIndex().Phrase("technology gap")
	if len(hits) != 3 || !slices.IsSorted(hits) {
		t.Fatalf("ContentIndex().Phrase = %v, want three ascending key rows", hits)
	}
	for _, h := range hits {
		if n, err := s.FetchNode(ordbms.RowIDFromUint64(h)); err != nil || n.Class != sgml.ClassContext {
			t.Fatalf("hit %d is %+v, %v, not a heading", h, n, err)
		}
	}
}

// textNodes calls fn with the RowID of every node that has text of its
// own (Node.OwnText) and the tokens of that text, in physical order.
func textNodes(t *testing.T, s *Store, fn func(rid ordbms.RowID, toks []string)) {
	t.Helper()
	err := s.ScanNodes(func(n *Node) bool {
		if text, ok := n.OwnText(); ok {
			fn(n.RowID, textindex.Tokenize(text))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhraseAcrossChunks gives a phrase more AND candidates than one
// pipeline chunk holds, most of them in the wrong order, so the matches
// stream through several fetches.
func TestPhraseAcrossChunks(t *testing.T) {
	s := memStore(t)
	want := 0
	for d := 0; d < 12; d++ {
		doc := "<report>"
		for i := 0; i < 60; i++ {
			text := "oxygen liquid reversed"
			if (d*60+i)%7 == 0 {
				text = "liquid oxygen tank"
				want++
			}
			doc += fmt.Sprintf("<heading>H%d</heading><para>%s</para>", i, text)
		}
		ingest(t, s, fmt.Sprintf("d%d.xml", d), doc+"</report>")
	}
	if and := s.ContentIndex().DF("liquid"); and <= sectionChunk {
		t.Fatalf("setup: %d candidates fit one chunk", and)
	}
	if got := len(s.ContentIndex().Phrase("liquid oxygen")); got != want {
		t.Fatalf("Phrase found %d sections, want %d", got, want)
	}
	if got := len(phraseSectionRIDs(t, s, "liquid oxygen")); got != want {
		t.Fatalf("%d sections, want %d", got, want)
	}
	secs, err := s.collect(SectionQuery{Content: "liquid oxygen", Phrase: true, Limit: 3})
	if err != nil || len(secs) != 3 {
		t.Fatalf("capped phrase: %d sections, %v", len(secs), err)
	}
}

// bruteForcePhrase answers a phrase-only query without the text index:
// scan every node's own text, put its tokens in the section the paper's
// walk finds for it (where no heading governs it, the element holding the
// text: a text node's parent, or the node itself), and keep,
// in key-row order, each section holding every term whose heading or
// content, tokenized, holds the terms as consecutive tokens.
func bruteForcePhrase(t *testing.T, s *Store, phrase string) []uint64 {
	t.Helper()
	terms := textindex.Tokenize(phrase)
	words := make(map[ordbms.RowID]map[string]bool)
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		text, ok := n.OwnText()
		if !ok {
			continue
		}
		key := n.ParentRowID
		ctx, err := s.ContextFor(n)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case ctx != nil:
			key = ctx.RowID
		case n.Class != sgml.ClassText:
			key = n.RowID // an element holding its own text is its scope
		}
		if words[key] == nil {
			words[key] = make(map[string]bool)
		}
		for _, tok := range textindex.Tokenize(text) {
			words[key][tok] = true
		}
	}
	var keys []ordbms.RowID
	for key, have := range words {
		if !slices.ContainsFunc(terms, func(term string) bool { return !have[term] }) {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	holds := func(text string) bool {
		toks := textindex.Tokenize(text)
		for i := 0; i+len(terms) <= len(toks); i++ {
			if slices.Equal(toks[i:i+len(terms)], terms) {
				return true
			}
		}
		return false
	}
	var out []uint64
	for _, key := range keys {
		n, err := s.FetchNode(key)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := s.keySection(n)
		if err != nil {
			t.Fatal(err)
		}
		if holds(sec.Context) || holds(sec.Content) {
			out = append(out, key.Uint64())
		}
	}
	return out
}

// TestPhraseMatchesBruteForce is the differential test for the phrase
// path: for a few dozen phrases over a generated corpus — runs of two and
// three tokens lifted from its text, the same runs reversed, single terms,
// and runs that straddle two text nodes — the pipeline and
// ContentIndex().Phrase must return exactly the sections a brute-force
// scan finds.  Checked after ingest, after a snapshot
// reopen, after a scan-rebuild reopen, and after deleting documents.
func TestPhraseMatchesBruteForce(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	gen := corpus.New(7)
	for _, d := range append(gen.DeepReports(6, 4, 6, 2), gen.Proposals(9)...) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}

	// Lift phrases from the stored text, in physical order.
	var texts [][]string
	textNodes(t, s, func(_ ordbms.RowID, toks []string) {
		if len(toks) > 0 {
			texts = append(texts, toks)
		}
	})
	var phrases []string
	join := func(toks ...string) string { return strings.Join(toks, " ") }
	for i := 0; len(phrases) < 40; i++ {
		toks := texts[(i*37)%len(texts)]
		k := (i * 5) % len(toks)
		switch n := len(toks) - k; {
		case i%8 == 7: // last token of one node, first of the next
			next := texts[((i*37)+1)%len(texts)]
			phrases = append(phrases, join(toks[len(toks)-1], next[0]))
		case n >= 3 && i%3 == 0:
			phrases = append(phrases, join(toks[k:k+3]...))
		case n >= 2 && i%3 == 1:
			phrases = append(phrases, join(toks[k+1], toks[k]))
		case n >= 2:
			phrases = append(phrases, join(toks[k:k+2]...))
		default:
			phrases = append(phrases, toks[k])
		}
	}

	matched := 0
	check := func(stage string, s *Store) {
		t.Helper()
		for _, p := range phrases {
			want := bruteForcePhrase(t, s, p)
			if got := s.ContentIndex().Phrase(p); !slices.Equal(got, want) {
				t.Fatalf("%s: ContentIndex().Phrase(%q) = %v, brute force %v", stage, p, got, want)
			}
			if got := phraseSectionRIDs(t, s, p); !slices.Equal(got, want) {
				t.Fatalf("%s: phrase %q sections %v, brute force %v", stage, p, got, want)
			}
			if len(want) > 0 {
				matched++
			}
		}
	}
	check("ingest", s)
	if matched < len(phrases)/2 {
		t.Fatalf("only %d of %d phrases match anything: the differential proves little", matched, len(phrases))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, s = openDir(t, dir, OpenOptions{})
	if !s.SnapshotStats().Loaded {
		t.Fatalf("snapshot not loaded: %+v", s.SnapshotStats())
	}
	check("snapshot reopen", s)
	db.CloseDiscard()

	db, s = openDir(t, dir, OpenOptions{DisableSnapshot: true})
	check("scan reopen", s)
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if i%3 == 1 {
			if err := s.DeleteDocument(d.DocID); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after deletes", s)
	db.CloseDiscard()
}
