// Package netmark is a Go reproduction of "Lean Middleware" (Maluf, Bell
// & Ashish, SIGMOD 2005) — NASA's NETMARK system: schema-less enterprise
// data integration without heavy-weight middleware.
//
// Every document (HTML, RTF "Word" files, plain-text reports,
// spreadsheets, slide decks, arbitrary XML) is automatically "upmarked"
// into context/content XML and decomposed into two universal relational
// tables inside a from-scratch ORDBMS with physical RowID links.  Queries
// are context/content searches appended to a URL (XDB Query), result
// composition uses an XSLT subset, and multi-source integration is a
// declarative Databank with per-source capability negotiation — no
// per-source schemas, no global views, no mappings.
//
// Quickstart:
//
//	nm, _ := netmark.Open(netmark.Config{})        // volatile: files held in memory
//	defer nm.Close()
//	nm.Ingest("report.html", htmlBytes)            // any format
//	res, _ := nm.Query("context=Budget&content=propulsion")
//	for _, sec := range res.Sections { fmt.Println(sec.Context, sec.Content) }
//
// Bulk loads go through the concurrent batch pipeline instead:
//
//	results := nm.IngestBatch([]netmark.Doc{{Name: "a.html", Data: a}, ...})
//
// See README.md for the system inventory, the experiment harness
// (cmd/nmbench and the root benchmarks), and operational notes.
package netmark

import (
	"netmark/internal/core"
	"netmark/internal/databank"
	"netmark/internal/sgml"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// Config configures an instance.  The zero value is a volatile instance:
// its store runs as one on disk does, with its files held in memory.
type Config = core.Config

// DefaultCacheBytes is the query result cache cap used when Config
// leaves CacheBytes zero (negative CacheBytes disables the cache).
const DefaultCacheBytes = core.DefaultCacheBytes

// Netmark is a running NETMARK instance.
type Netmark = core.Netmark

// Open creates or reopens an instance.
func Open(cfg Config) (*Netmark, error) { return core.Open(cfg) }

// Query is a parsed XDB query (Context/Content/XSLT/limit).
type Query = xdb.Query

// Result is an executed query's result set.
type Result = xdb.Result

// ParseQuery parses the URL form ("context=Budget&content=engine").
func ParseQuery(raw string) (Query, error) { return xdb.Parse(raw) }

// Doc is one raw input document for IngestBatch.
type Doc = core.Doc

// IngestResult reports one batch document's outcome, in input order.
type IngestResult = core.IngestResult

// Section is one context/content search hit.
type Section = xmlstore.Section

// DocInfo is stored-document metadata.
type DocInfo = xmlstore.DocInfo

// Databank is a declared multi-source integration application.
type Databank = databank.Databank

// Capability declares what a source can evaluate natively.
type Capability = databank.Capability

// Source is one databank information source.
type Source = databank.Source

// Full and ContentOnly are the common capability sets.
var (
	FullCapability = databank.Full
	ContentOnly    = databank.ContentOnly
)

// NewDatabank assembles a databank programmatically.
func NewDatabank(name string) *Databank { return databank.New(name) }

// NewLocalSource wraps a local instance's engine as a databank source.
func NewLocalSource(name string, nm *Netmark) Source {
	return databank.NewLocalSource(name, nm.Engine())
}

// NewLegacySource wraps an engine behind restricted capabilities
// (simulating search-limited legacy servers).
func NewLegacySource(name string, caps Capability, nm *Netmark) Source {
	return databank.NewLegacySource(name, caps, nm.Engine())
}

// NewHTTPSource points a databank at a remote NETMARK server.
func NewHTTPSource(name, baseURL string, caps Capability) Source {
	return databank.NewHTTPSource(name, baseURL, caps)
}

// ResultXML renders a result set in the XML wire format.
func ResultXML(r *Result) string { return sgml.SerializeIndent(r.XML()) }

// TransformedXML renders a result's XSLT-composed document, or "" when
// the query named no stylesheet.
func TransformedXML(r *Result) string {
	if r.Transformed == nil {
		return ""
	}
	return sgml.SerializeIndent(r.Transformed)
}
