// Package databank implements NETMARK's multi-source integration
// (§2.1.5): "an administrator creates a 'Databank' for an application.
// The databank specifies what sources are to be queried when a user fires
// a query to that application."
//
// Integration is performed on the fly at query time, with middleware
// "reduced to needing just a thin router capability across the various
// information sources" (Fig 8).  Each source declares its query
// capabilities; NETMARK pushes down whatever part of a query the source
// can evaluate and applies the residual itself — the paper's Lessons
// Learned example, where a content-only source receives the content
// portion of Context=Title&Content=Engine and NETMARK extracts the Title
// sections from the returned results.
package databank

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"netmark/internal/xdb"
)

// Capability declares which query features a source evaluates natively.
type Capability struct {
	Context bool // heading predicates
	Content bool // keyword predicates
	Phrase  bool // quoted adjacency
	Prefix  bool // trailing-* heading prefixes
}

// Full is the capability set of a NETMARK server.
var Full = Capability{Context: true, Content: true, Phrase: true, Prefix: true}

// ContentOnly is the capability set of a keyword-search-only legacy
// source, like the NASA Lessons Learned Information Server.
var ContentOnly = Capability{Content: true}

func (c Capability) String() string {
	var parts []string
	if c.Context {
		parts = append(parts, "context")
	}
	if c.Content {
		parts = append(parts, "content")
	}
	if c.Phrase {
		parts = append(parts, "phrase")
	}
	if c.Prefix {
		parts = append(parts, "prefix")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseCapability parses the String form back ("context+content").
func ParseCapability(s string) (Capability, error) {
	var c Capability
	if s == "" || s == "none" {
		return c, fmt.Errorf("databank: source must have at least one capability")
	}
	for _, p := range strings.Split(s, "+") {
		switch strings.TrimSpace(strings.ToLower(p)) {
		case "context":
			c.Context = true
		case "content":
			c.Content = true
		case "phrase":
			c.Phrase = true
		case "prefix":
			c.Prefix = true
		case "full":
			c = Full
		default:
			return c, fmt.Errorf("databank: unknown capability %q", p)
		}
	}
	return c, nil
}

// Source is one information source in a databank.
type Source interface {
	// Name identifies the source in results and errors.
	Name() string
	// Capabilities declares what the source can evaluate.
	Capabilities() Capability
	// Query evaluates a pushdown query.  The router guarantees the query
	// is within the declared capabilities.
	Query(ctx context.Context, q xdb.Query) (*xdb.Result, error)
}

// LocalSource adapts a local XDB engine as a full-capability source.
type LocalSource struct {
	name   string
	engine *xdb.Engine
}

// NewLocalSource wraps an engine.
func NewLocalSource(name string, engine *xdb.Engine) *LocalSource {
	return &LocalSource{name: name, engine: engine}
}

func (s *LocalSource) Name() string             { return s.name }
func (s *LocalSource) Capabilities() Capability { return Full }
func (s *LocalSource) Engine() *xdb.Engine      { return s.engine }

// Query executes locally, uncached: the engine's result cache holds
// response bodies for the HTTP path only, and no benchmark workload
// queries a local source.
func (s *LocalSource) Query(ctx context.Context, q xdb.Query) (*xdb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.engine.Execute(q)
}

// LegacySource simulates a search interface with restricted capabilities
// — the paper's NASA Lessons Learned Information Server, which "allows
// only 'Content search' kinds of queries".  It rejects any query feature
// it did not declare, so tests prove the router never leaks residual
// predicates to the source.
type LegacySource struct {
	name   string
	caps   Capability
	engine *xdb.Engine
}

// NewLegacySource wraps an engine behind a restricted capability set.
func NewLegacySource(name string, caps Capability, engine *xdb.Engine) *LegacySource {
	return &LegacySource{name: name, caps: caps, engine: engine}
}

func (s *LegacySource) Name() string             { return s.name }
func (s *LegacySource) Capabilities() Capability { return s.caps }

// Query enforces the capability contract, then executes uncached, as
// LocalSource does.
func (s *LegacySource) Query(ctx context.Context, q xdb.Query) (*xdb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case q.Context != "" && !s.caps.Context:
		return nil, fmt.Errorf("databank: source %s cannot evaluate context predicates", s.name)
	case q.Content != "" && !s.caps.Content:
		return nil, fmt.Errorf("databank: source %s cannot evaluate content predicates", s.name)
	case q.Phrase && !s.caps.Phrase:
		return nil, fmt.Errorf("databank: source %s cannot evaluate phrase queries", s.name)
	case q.ContextPrefix && !s.caps.Prefix:
		return nil, fmt.Errorf("databank: source %s cannot evaluate prefix queries", s.name)
	}
	return s.engine.Execute(q)
}

// HTTPSource queries a remote NETMARK server over the paper's
// URL-appended query protocol and decodes the XML wire format.
type HTTPSource struct {
	name    string
	baseURL string
	caps    Capability
	client  *http.Client
}

// NewHTTPSource builds a remote source.  baseURL points at the server's
// /xdb endpoint root (e.g. http://host:port).
func NewHTTPSource(name, baseURL string, caps Capability) *HTTPSource {
	return &HTTPSource{name: name, baseURL: strings.TrimRight(baseURL, "/"), caps: caps, client: &http.Client{}}
}

func (s *HTTPSource) Name() string             { return s.name }
func (s *HTTPSource) Capabilities() Capability { return s.caps }

// Query sends the pushdown query to the remote server.
func (s *HTTPSource) Query(ctx context.Context, q xdb.Query) (*xdb.Result, error) {
	u := s.baseURL + "/xdb?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("databank: source %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("databank: source %s: %s: %s", s.name, resp.Status, truncate(string(body), 200))
	}
	return xdb.ParseResultXML(string(body))
}

// DiscoverCapabilities asks a remote server what it supports via the
// /capabilities endpoint.
func DiscoverCapabilities(ctx context.Context, baseURL string) (Capability, error) {
	u := strings.TrimRight(baseURL, "/") + "/capabilities"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Capability{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return Capability{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return Capability{}, err
	}
	return ParseCapability(strings.TrimSpace(string(body)))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
