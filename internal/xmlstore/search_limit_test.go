package xmlstore

import (
	"reflect"
	"strings"
	"testing"

	"netmark/internal/corpus"
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

// drive runs a heading-plus-terms query with the planner's choice
// overridden: the text index drives when fromContent, the context btree
// otherwise.
func drive(s *Store, heading, query string, limit int, fromContent bool) ([]Section, error) {
	var out []Section
	err := s.sections(SectionQuery{Context: heading, Content: query, Limit: limit}, fromContent,
		func(sec Section) bool {
			out = append(out, sec)
			return true
		})
	return out, err
}

// TestPlansAgree runs heading-plus-terms and heading-plus-phrase queries
// through both plans: the sections and their order must not depend on
// which source drives.  The terms are lifted from the sections' own text,
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
	run := func(q SectionQuery, fromContent bool) []Section {
		var out []Section
		if err := s.sections(q, fromContent, func(sec Section) bool {
			out = append(out, sec)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	matched := 0
	for _, q := range queries {
		for _, limit := range []int{0, 1, 3} {
			q.Limit = limit
			byContent, byHeading := run(q, true), run(q, false)
			if !reflect.DeepEqual(byContent, byHeading) {
				t.Fatalf("%+v: the text index finds %d sections, the heading %d:\n%+v\n%+v", q, len(byContent), len(byHeading), byContent, byHeading)
			}
			if limit == 0 && len(byContent) > 0 {
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
		// text itself: the index posts it and both plans must count it.
		{"Risk Assessment", "assessment"},
	} {
		// Planner-chosen plan, capped, must agree with the uncapped prefix.
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
		// Both explicit plans must find the same sections and respect the cap.
		for _, limit := range []int{0, 3} {
			a, err := drive(s, q.heading, q.term, limit, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := drive(s, q.heading, q.term, limit, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, full[:len(a)]) || !reflect.DeepEqual(b, full[:len(b)]) ||
				len(a) != len(b) || (limit > 0 && len(a) != limit) {
				t.Fatalf("%v limit %d: ctx plan %d sections, content plan %d, planner %d",
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
