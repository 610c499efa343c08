package xdb

import (
	"bytes"
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/xmlstore"
)

// TestReopenEquivalenceThroughEngine proves the full query surface —
// context, content, combined, limit, document-scope and XPath plans, and
// the sections of a document with no headings — renders byte-for-byte
// identical responses whether the store was just built, reopened via the
// checkpoint snapshot, or reopened via the forced full-scan fallback.  This is the HTTP-visible version of the xmlstore-level
// reopen-equivalence test: what a client sees cannot depend on how the
// middleware restarted.
func TestReopenEquivalenceThroughEngine(t *testing.T) {
	queries := []string{
		"context=Budget",
		"context=Milestones",
		"content=cryogenic",
		"content=budget+allocation",
		"context=Budget&content=allocation",
		"context=Budget&limit=3",
		"xpath=//h2",
		"xpath=//p&limit=4",
		"content=effort&xpath=//p",
		"content=cryogenic&scope=document",
		"content=gasket",                // sections of parts.xml, which has no heading
		"content=gasket&scope=document", // its document, found from the root
		"content=review+gasket&scope=document",
	}

	render := func(t *testing.T, e *Engine) map[string][]byte {
		t.Helper()
		out := make(map[string][]byte, len(queries))
		for _, raw := range queries {
			q, err := Parse(raw)
			if err != nil {
				t.Fatalf("parse %q: %v", raw, err)
			}
			var buf bytes.Buffer
			if err := e.ExecuteInto(q, &buf); err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			out[raw] = append([]byte(nil), buf.Bytes()...)
		}
		return out
	}

	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.New(321)
	for _, d := range gen.TaskPlans(40) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range gen.DeepReports(3, 3, 6, 4) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	parts := `<inventory><widget><label>Cryo gasket</label><qty>3</qty></widget><widget><label>Spare gasket, review due</label></widget></inventory>`
	if _, err := s.StoreRaw("parts.xml", []byte(parts)); err != nil {
		t.Fatal(err)
	}
	want := render(t, NewEngine(s))
	for _, raw := range queries {
		if strings.Contains(raw, "gasket") && !bytes.Contains(want[raw], []byte(`"parts.xml"`)) {
			t.Fatalf("%q does not find parts.xml:\n%s", raw, want[raw])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	open := func(disable bool) (*ordbms.DB, *xmlstore.Store) {
		db, err := ordbms.Open(ordbms.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s, err := xmlstore.OpenWith(db, xmlstore.OpenOptions{DisableSnapshot: disable})
		if err != nil {
			t.Fatal(err)
		}
		return db, s
	}

	db2, s2 := open(false)
	if !s2.SnapshotStats().Loaded {
		t.Fatalf("snapshot not loaded: %+v", s2.SnapshotStats())
	}
	got := render(t, NewEngine(s2))
	for _, raw := range queries {
		if !bytes.Equal(got[raw], want[raw]) {
			t.Fatalf("snapshot reopen: %q renders differently:\n got: %s\nwant: %s", raw, got[raw], want[raw])
		}
	}
	db2.CloseDiscard()

	db3, s3 := open(true)
	defer db3.CloseDiscard()
	if s3.SnapshotStats().Loaded {
		t.Fatal("ablation flag ignored")
	}
	got = render(t, NewEngine(s3))
	for _, raw := range queries {
		if !bytes.Equal(got[raw], want[raw]) {
			t.Fatalf("scan reopen: %q renders differently:\n got: %s\nwant: %s", raw, got[raw], want[raw])
		}
	}
}
