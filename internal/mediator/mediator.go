// Package mediator implements the baseline NETMARK is compared against: a
// Global-as-View (GAV) mediation framework in the style of MIX [8] and
// Tukwila [4] (and the industrial Enosys [9] and Nimble [1] systems).
//
// In this architecture "each information source is viewed as exporting an
// XML view (called a source view) of the data it contains.  An integrated
// (global) view of the data is formed by defining an integrated view of
// the data over the individual data source views" (§4).  That buys
// virtual views (the paper's "Top Employees" example) at the cost the
// paper attacks: one registered schema per source, one mapping per
// (global view, source) pair, all maintained by hand as sources are
// added.  The artifact accounting here is what makes Fig 1's cost curve
// linear.
package mediator

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"netmark/internal/xdb"
)

// SourceRelation is one relation a source exports: its attributes map
// 1:1 to the section headings of the wrapped document source.
type SourceRelation struct {
	Name  string
	Attrs []string
}

// SourceSchema is the registered schema of one source — the first
// artifact class the mediator requires per source.
type SourceSchema struct {
	Source    string
	Relations []SourceRelation
}

// Relation looks up a relation by name.
func (s *SourceSchema) Relation(name string) (SourceRelation, bool) {
	for _, r := range s.Relations {
		if r.Name == name {
			return r, true
		}
	}
	return SourceRelation{}, false
}

// GlobalView is an integrated relation over the sources.
type GlobalView struct {
	Name  string
	Attrs []string
}

// Mapping defines how one source relation contributes to a global view —
// the second artifact class, one per (view, source) pair.  AttrMap maps
// global attribute -> source attribute (the "Cost Details maps to
// Budget" reconciliation NETMARK refuses to require).
type Mapping struct {
	View     string
	Source   string
	Relation string
	AttrMap  map[string]string
	// Filter optionally restricts which source tuples qualify (the "Top
	// Employees" per-source conditions: rating of excellent at Ames,
	// score <= 2 at Johnson, ...).  Attribute names are source-side.
	Filter func(Tuple) bool
}

// Tuple is one row of a (virtual) relation.
type Tuple map[string]string

// Clone copies a tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// SourceAdapter materialises source relations.  The document adapter
// turns each stored document into one tuple, with attribute values drawn
// from the document's context sections — exactly the per-source wrapper a
// GAV deployment has to build and maintain.
type SourceAdapter interface {
	Name() string
	Extract(ctx context.Context, rel SourceRelation) ([]Tuple, error)
}

// DocAdapter wraps an XDB engine as a relational source.
type DocAdapter struct {
	name   string
	engine *xdb.Engine
}

// NewDocAdapter builds an adapter over a local engine.
func NewDocAdapter(name string, engine *xdb.Engine) *DocAdapter {
	return &DocAdapter{name: name, engine: engine}
}

// Name returns the source name.
func (a *DocAdapter) Name() string { return a.name }

// Extract materialises one tuple per document: for each attribute, the
// content of the section whose heading equals the attribute name.
// Documents missing every attribute are skipped.
func (a *DocAdapter) Extract(ctx context.Context, rel SourceRelation) ([]Tuple, error) {
	byDoc := make(map[uint64]Tuple)
	order := []uint64{}
	for _, attr := range rel.Attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		secs, err := a.engine.Store().ContextSearchN(attr, 0)
		if err != nil {
			return nil, err
		}
		for _, sec := range secs {
			t, ok := byDoc[sec.DocID]
			if !ok {
				t = Tuple{}
				byDoc[sec.DocID] = t
				order = append(order, sec.DocID)
			}
			if _, dup := t[attr]; !dup {
				t[attr] = sec.Content
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]Tuple, 0, len(order))
	for _, id := range order {
		out = append(out, byDoc[id])
	}
	return out, nil
}

// Mediator is the integration middleware: registered schemas, global
// views, mappings, and source adapters.
type Mediator struct {
	mu       sync.RWMutex
	schemas  map[string]*SourceSchema // guarded by mu
	views    map[string]*GlobalView   // guarded by mu
	mappings []Mapping                // guarded by mu
	adapters map[string]SourceAdapter // guarded by mu
}

// New creates an empty mediator.
func New() *Mediator {
	return &Mediator{
		schemas:  make(map[string]*SourceSchema),
		views:    make(map[string]*GlobalView),
		adapters: make(map[string]SourceAdapter),
	}
}

// RegisterSource declares a source schema and its adapter.  Both are
// mandatory before any mapping can reference the source.
func (m *Mediator) RegisterSource(schema *SourceSchema, adapter SourceAdapter) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if schema.Source == "" || schema.Source != adapter.Name() {
		return fmt.Errorf("mediator: schema/adapter name mismatch (%q vs %q)", schema.Source, adapter.Name())
	}
	if _, dup := m.schemas[schema.Source]; dup {
		return fmt.Errorf("mediator: source %q already registered", schema.Source)
	}
	if len(schema.Relations) == 0 {
		return fmt.Errorf("mediator: source %q exports no relations", schema.Source)
	}
	m.schemas[schema.Source] = schema
	m.adapters[schema.Source] = adapter
	return nil
}

// DefineView declares a global view.
func (m *Mediator) DefineView(v *GlobalView) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.Name == "" || len(v.Attrs) == 0 {
		return fmt.Errorf("mediator: view needs a name and attributes")
	}
	if _, dup := m.views[v.Name]; dup {
		return fmt.Errorf("mediator: view %q already defined", v.Name)
	}
	m.views[v.Name] = v
	return nil
}

// AddMapping connects a source relation to a global view.  Every global
// attribute must be mapped to a source attribute that exists in the
// registered schema — the consistency burden the paper complains about
// ("schema-chaos").
func (m *Mediator) AddMapping(mp Mapping) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	view, ok := m.views[mp.View]
	if !ok {
		return fmt.Errorf("mediator: mapping references unknown view %q", mp.View)
	}
	schema, ok := m.schemas[mp.Source]
	if !ok {
		return fmt.Errorf("mediator: mapping references unregistered source %q", mp.Source)
	}
	rel, ok := schema.Relation(mp.Relation)
	if !ok {
		return fmt.Errorf("mediator: source %q has no relation %q", mp.Source, mp.Relation)
	}
	attrs := make(map[string]bool, len(rel.Attrs))
	for _, a := range rel.Attrs {
		attrs[a] = true
	}
	for _, g := range view.Attrs {
		srcAttr, mapped := mp.AttrMap[g]
		if !mapped {
			return fmt.Errorf("mediator: mapping %s<-%s leaves view attribute %q unmapped", mp.View, mp.Source, g)
		}
		if !attrs[srcAttr] {
			return fmt.Errorf("mediator: mapping %s<-%s binds %q to unknown source attribute %q", mp.View, mp.Source, g, srcAttr)
		}
	}
	m.mappings = append(m.mappings, mp)
	return nil
}

// Predicate filters tuples by a view attribute.
type Predicate struct {
	Attr string
	// Op: "eq" or "contains" (case-insensitive).
	Op    string
	Value string
}

func (p Predicate) holds(t Tuple) bool {
	v, ok := t[p.Attr]
	if !ok {
		return false
	}
	switch p.Op {
	case "eq":
		return strings.EqualFold(strings.TrimSpace(v), strings.TrimSpace(p.Value))
	case "contains":
		return strings.Contains(strings.ToLower(v), strings.ToLower(p.Value))
	default:
		return false
	}
}

// Query asks a global view for tuples satisfying all predicates.  The
// mediator unfolds the view: for every mapping it extracts the source
// relation, applies the mapping's filter, renames attributes into view
// terms, applies the predicates and unions the results (tagging
// provenance in the "_source" pseudo-attribute).
func (m *Mediator) Query(ctx context.Context, view string, preds []Predicate) ([]Tuple, error) {
	m.mu.RLock()
	v, ok := m.views[view]
	if !ok {
		m.mu.RUnlock()
		return nil, fmt.Errorf("mediator: no view %q", view)
	}
	var maps []Mapping
	for _, mp := range m.mappings {
		if mp.View == view {
			maps = append(maps, mp)
		}
	}
	m.mu.RUnlock()
	if len(maps) == 0 {
		return nil, fmt.Errorf("mediator: view %q has no mappings", view)
	}

	var out []Tuple
	for _, mp := range maps {
		m.mu.RLock()
		adapter := m.adapters[mp.Source]
		schema := m.schemas[mp.Source]
		m.mu.RUnlock()
		rel, _ := schema.Relation(mp.Relation)
		tuples, err := adapter.Extract(ctx, rel)
		if err != nil {
			return nil, fmt.Errorf("mediator: source %s: %w", mp.Source, err)
		}
		for _, src := range tuples {
			if mp.Filter != nil && !mp.Filter(src) {
				continue
			}
			gt := Tuple{"_source": mp.Source}
			for _, g := range v.Attrs {
				gt[g] = src[mp.AttrMap[g]]
			}
			keep := true
			for _, p := range preds {
				if !p.holds(gt) {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, gt)
			}
		}
	}
	return out, nil
}

// ArtifactCount is Fig 1's cost metric for the mediator side: every
// source schema (one per source, weighted by its relations), every view
// definition, and every mapping is an artifact an administrator authors
// and maintains.
func (m *Mediator) ArtifactCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, s := range m.schemas {
		n += len(s.Relations) // schema document per relation
	}
	n += len(m.views)
	n += len(m.mappings)
	return n
}

// Stats describes the registered artifacts for reporting.
func (m *Mediator) Stats() (sources, views, mappings int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.schemas), len(m.views), len(m.mappings)
}
