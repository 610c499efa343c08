package xmlstore

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// loadProposals fills a store with n generated proposals, each carrying
// the standard headings (Title, Budget, ...).
func loadProposals(t *testing.T, n int) *Store {
	t.Helper()
	s := memStore(t)
	gen := corpus.New(int64(n))
	for _, d := range gen.Proposals(n) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestContextSearchNLimit(t *testing.T) {
	s := loadProposals(t, 30)
	full, err := s.ContextSearchN("Budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 30 {
		t.Fatalf("unlimited = %d sections", len(full))
	}
	capped, err := s.ContextSearchN("Budget", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 7 {
		t.Fatalf("limit 7 returned %d", len(capped))
	}
	// The capped results are a prefix of the full physical-order results.
	for i := range capped {
		if capped[i].ContextRID != full[i].ContextRID {
			t.Fatalf("capped[%d] diverges from full ordering", i)
		}
	}
}

func TestContentSearchNLimit(t *testing.T) {
	s := loadProposals(t, 30)
	full, err := s.ContentSearchN("budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("corpus too small for the test: %d hits", len(full))
	}
	capped, err := s.ContentSearchN("budget", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("limit 5 returned %d", len(capped))
	}
}

// headingPlan is the reference a heading-plus-terms query is held to,
// the plan that drove such a query from the heading's rows: the CONTEXT
// rows bearing the heading, found by a scan of the table, that the text
// index holds every term under, in physical order, with the phrase and
// the cap applied as Sections applies them.
func headingPlan(t testing.TB, s *Store, q SectionQuery) []Section {
	t.Helper()
	norm := func(h string) string { return strings.ToLower(strings.Join(strings.Fields(h), " ")) }
	var rids []ordbms.RowID
	if err := s.ScanNodes(func(n *Node) bool {
		if n.Class == sgml.ClassContext && norm(n.Data) != "" && norm(n.Data) == norm(q.Context) {
			rids = append(rids, n.RowID)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	terms := textindex.Tokenize(q.Content)
	var out []Section
	for _, rid := range rids {
		if q.Limit > 0 && len(out) == q.Limit {
			break
		}
		it := s.content.AndIter(q.Content)
		if id, ok := it.SeekGE(rid.Uint64()); !ok || id != rid.Uint64() {
			continue
		}
		key, err := s.FetchNode(rid)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := s.keySection(key)
		if err != nil {
			t.Fatal(err)
		}
		if q.Phrase && len(terms) > 1 && !textindex.HasPhrase(sec.Context, terms) && !textindex.HasPhrase(sec.Content, terms) {
			continue
		}
		out = append(out, sec)
	}
	return out
}

// TestPlansAgree runs heading-plus-terms and heading-plus-phrase queries
// through Sections, which intersects the heading's posting list with the
// terms', and through headingPlan: the sections and their order must be
// the same.  The terms are lifted from the sections' own text,
// a phrase forwards and reversed, and one document splits a two-term
// query across two text runs of one section.
func TestPlansAgree(t *testing.T) {
	s := memStore(t)
	loadDeepCorpus(t, s)
	ingest(t, s, "liquid.html", `<html><body><h1>Budget</h1><p>liquid fuel</p><p>oxygen tank</p></body></html>`)
	queries := []SectionQuery{
		{Context: "Budget", Content: "liquid tank"},
		{Context: "Budget", Content: "fuel oxygen", Phrase: true},
	}
	headings := s.ContextHeadings()
	for i := 0; i < len(headings); i += max(1, len(headings)/12) {
		h := headings[i]
		secs, err := s.ContextSearchN(h, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			toks := textindex.Tokenize(sec.Content)
			if len(toks) < 4 {
				continue
			}
			k := len(toks)/2 - 1
			queries = append(queries,
				SectionQuery{Context: h, Content: toks[0]},
				SectionQuery{Context: h, Content: toks[k] + " " + toks[len(toks)-1]},
				SectionQuery{Context: h, Content: strings.Join(toks[k:k+3], " ")},
				SectionQuery{Context: h, Content: strings.Join(toks[k:k+2], " "), Phrase: true},
				SectionQuery{Context: h, Content: toks[k+1] + " " + toks[k], Phrase: true})
		}
	}
	matched := 0
	for _, q := range queries {
		for _, limit := range []int{0, 1, 3} {
			q.Limit = limit
			got, err := s.collect(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := headingPlan(t, s, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: Sections finds %d sections, the heading plan %d:\n%+v\n%+v", q, len(got), len(want), got, want)
			}
			if limit == 0 && len(got) > 0 {
				matched++
			}
		}
	}
	if matched < len(queries)/2 {
		t.Fatalf("only %d of %d queries match anything: the agreement proves little", matched, len(queries))
	}
}

func TestSearchNLimitBothPlans(t *testing.T) {
	s := loadProposals(t, 30)
	for _, q := range []struct{ heading, term string }{
		{"Budget", "request"},
		// "assessment" occurs in no section's content, only in the heading
		// text itself: the index posts it and both must count it.
		{"Risk Assessment", "assessment"},
	} {
		// Capped, the answer must be the uncapped one's prefix.
		full, err := s.SearchN(q.heading, q.term, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != 30 {
			t.Fatalf("%v: %d combined hits, want one per proposal", q, len(full))
		}
		capped, err := s.SearchN(q.heading, q.term, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(capped) != 3 {
			t.Fatalf("%v: limit 3 returned %d", q, len(capped))
		}
		// Sections and the heading plan must find the same sections and
		// respect the cap.
		for _, limit := range []int{0, 3} {
			a := headingPlan(t, s, SectionQuery{Context: q.heading, Content: q.term, Limit: limit})
			b, err := s.SearchN(q.heading, q.term, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, full[:len(a)]) || !reflect.DeepEqual(b, full[:len(b)]) ||
				len(a) != len(b) || (limit > 0 && len(a) != limit) {
				t.Fatalf("%v limit %d: heading plan %d sections, Sections %d, uncapped %d",
					q, limit, len(a), len(b), len(full))
			}
		}
	}
}

func TestContentSearchDocsNLimit(t *testing.T) {
	s := loadProposals(t, 20)
	full, err := s.ContentSearchDocsN("budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 20 {
		t.Fatalf("unlimited docs = %d", len(full))
	}
	capped, err := s.ContentSearchDocsN("budget", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 4 {
		t.Fatalf("limit 4 returned %d docs", len(capped))
	}
}
