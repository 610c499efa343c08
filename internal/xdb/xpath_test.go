package xdb

import (
	"strings"
	"testing"
)

const inventoryXML = `<inventory site="ames">
  <part id="p1"><label>Cryo Valve</label><qty>3</qty></part>
  <part id="p2"><label>Turbopump</label><qty>1</qty></part>
</inventory>`

func TestXPathQueryOverRawXML(t *testing.T) {
	e := engine(t)
	load(t, e, "parts.xml", inventoryXML)
	r, err := e.ExecuteString("xpath=//part/label")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("results = %v", r.Sections)
	}
	if !strings.Contains(r.Sections[0].Content, "Cryo Valve") {
		t.Fatalf("content = %q", r.Sections[0].Content)
	}
}

func TestXPathWithPredicate(t *testing.T) {
	e := engine(t)
	load(t, e, "parts.xml", inventoryXML)
	r, err := e.ExecuteString("xpath=//part[@id='p2']")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !strings.Contains(r.Sections[0].Content, "Turbopump") {
		t.Fatalf("results = %v", r.Sections)
	}
	// Element results serialise as XML.
	if !strings.Contains(r.Sections[0].Content, "<label>") {
		t.Fatalf("element not serialised: %q", r.Sections[0].Content)
	}
}

func TestXPathPrefilteredByContent(t *testing.T) {
	e := engine(t)
	load(t, e, "one.xml", `<report><finding>valve leak</finding></report>`)
	load(t, e, "two.xml", `<report><finding>nominal</finding></report>`)
	// content= prefilters to documents containing "leak"; xpath then
	// selects within them.
	r, err := e.ExecuteString("content=leak&xpath=//finding")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !strings.Contains(r.Sections[0].Content, "valve leak") {
		t.Fatalf("results = %v", r.Sections)
	}
}

func TestXPathPrefilteredByContext(t *testing.T) {
	e := engine(t)
	load(t, e, "a.html", `<html><body><h1>Budget</h1><p>alpha</p></body></html>`)
	load(t, e, "b.html", `<html><body><h1>Schedule</h1><p>beta</p></body></html>`)
	r, err := e.ExecuteString("context=Budget&xpath=//p")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !strings.Contains(r.Sections[0].Content, "alpha") {
		t.Fatalf("results = %v", r.Sections)
	}
}

func TestXPathLimit(t *testing.T) {
	e := engine(t)
	load(t, e, "parts.xml", inventoryXML)
	r, err := e.ExecuteString("xpath=//part&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("limit ignored: %d", r.Len())
	}
}

func TestXPathBadExpressionRejected(t *testing.T) {
	e := engine(t)
	load(t, e, "parts.xml", inventoryXML)
	if _, err := e.ExecuteString("xpath=//part["); err == nil {
		t.Fatal("bad xpath accepted")
	}
}

func TestXPathEncodeRoundTrip(t *testing.T) {
	q := Query{XPath: "//part[@id='p1']/label", Content: "valve"}
	got, err := Parse(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("round trip: %+v vs %+v", got, q)
	}
}

// The candidates of an XPath query are the documents with a section that
// satisfies every predicate: a word outside the named heading does not
// make its document one.
func TestXPathPrefilteredByContextAndContent(t *testing.T) {
	e := engine(t)
	load(t, e, "a.html", `<html><body><h1>Budget</h1><p>alpha</p><h1>Schedule</h1><p>leak found</p></body></html>`)
	load(t, e, "b.html", `<html><body><h1>Budget</h1><p>leak reserve</p></body></html>`)
	r, err := e.ExecuteString("context=Budget&content=leak&xpath=//p")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].DocName != "b.html" || !strings.Contains(r.Sections[0].Content, "leak reserve") {
		t.Fatalf("results = %v", r.Sections)
	}
}

// A quoted phrase picks only the documents where its words stand
// together, not every document holding them all.
func TestXPathPrefilteredByPhrase(t *testing.T) {
	e := engine(t)
	load(t, e, "one.xml", `<report><finding>valve leak</finding></report>`)
	load(t, e, "two.xml", `<report><finding>leak at the valve</finding></report>`)
	r, err := e.ExecuteString("content=%22valve+leak%22&xpath=//finding")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].DocName != "one.xml" {
		t.Fatalf("results = %v", r.Sections)
	}
}
