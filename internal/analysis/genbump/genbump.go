// Package genbump checks cache-coherence generation protocols: a
// struct field annotated both `guarded by <mu>` and `netmarkvet:gen
// <counter>` must have every mutation paired with a bump of the
// sibling counter before the guarding mutex is released.  Readers key
// caches on the counter (textindex's per-term gens, xdb's stylesheet
// gen); a mutation that escapes its critical section without bumping
// leaves those caches serving stale data with nothing ever invalidating
// them.
//
// "Bump" is any write to the counter inside the same critical section
// — before or after the mutation; the protocol only requires that the
// section as a whole publishes a new generation.  Counters may be
// integers (gen++) or per-key maps (gens[k] = next; delete(gens, k)
// also counts: removing the entry invalidates every reader key derived
// from it).  Helpers called under the guard credit their counter
// writes through the interprocedural FieldWrites summary.
//
// The check is a forward dataflow over the function CFG.  The state
// carries (held guards, counters bumped this section, pending
// unbumped mutations); joins intersect held/bumped and union pendings,
// and findings fire when a guard is released — explicitly or at
// function exit for deferred unlocks — with pendings outstanding.
package genbump

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"netmark/internal/analysis"
)

// Analyzer is the genbump pass.
var Analyzer = &analysis.Analyzer{
	Name: "genbump",
	Doc:  "mutations of netmarkvet:gen-annotated state must bump the generation counter before the guard is released",
	Run:  run,
}

// genPair is one annotated (field, guard, counter) triple.
type genPair struct {
	field   types.Object
	counter types.Object
	muName  string
}

func run(pass *analysis.Pass) error {
	facts := analysis.CollectFacts(pass)
	pairs := collectPairs(pass, facts)
	if len(pairs) == 0 {
		return nil
	}
	counters := make(map[types.Object]bool, len(pairs))
	for _, p := range pairs {
		counters[p.counter] = true
	}
	summ := pass.Mod.Summaries()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, summ, fd, pairs, counters)
		}
	}
	return nil
}

// collectPairs resolves each netmarkvet:gen annotation against its
// guard annotation and the sibling counter field.
func collectPairs(pass *analysis.Pass, facts *analysis.Facts) map[types.Object]genPair {
	pairs := make(map[types.Object]genPair)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			// Index this struct's fields by name to resolve siblings.
			byName := make(map[string]types.Object)
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						byName[name.Name] = obj
					}
				}
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					counterName, hasGen := facts.Gen[obj]
					if !hasGen {
						continue
					}
					muName, guarded := facts.Guards[obj]
					counter := byName[counterName]
					if !guarded || counter == nil {
						pass.Reportf(name.Pos(),
							"netmarkvet:gen on %s needs both a `guarded by <mu>` annotation and a sibling counter field %q",
							name.Name, counterName)
						continue
					}
					pairs[obj] = genPair{field: obj, counter: counter, muName: muName}
				}
			}
			return true
		})
	}
	return pairs
}

// pending is one mutation awaiting its counter bump.
type pending struct {
	muKey   string // guard key that must not be released first
	counter types.Object
	pos     token.Pos
	field   string
	mu      string
}

func (p pending) id() string {
	return fmt.Sprintf("%s|%p|%d", p.muKey, p.counter, p.pos)
}

// state is the dataflow value: which guards are held, which counters
// were bumped in the current critical section, which mutations are
// still unbumped.
type state struct {
	held    map[string]bool
	bumped  map[types.Object]bool
	pending map[string]pending
}

func newState() *state {
	return &state{
		held:    make(map[string]bool),
		bumped:  make(map[types.Object]bool),
		pending: make(map[string]pending),
	}
}

func (s *state) clone() *state {
	c := newState()
	for k := range s.held {
		c.held[k] = true
	}
	for k := range s.bumped {
		c.bumped[k] = true
	}
	for k, v := range s.pending {
		c.pending[k] = v
	}
	return c
}

// join merges a predecessor's out-state into s: held and bumped
// intersect (a fact must hold on every path), pendings union (a
// violation on any path is a violation).
func join(s, o *state) *state {
	if s == nil {
		return o.clone()
	}
	for k := range s.held {
		if !o.held[k] {
			delete(s.held, k)
		}
	}
	for k := range s.bumped {
		if !o.bumped[k] {
			delete(s.bumped, k)
		}
	}
	for k, v := range o.pending {
		s.pending[k] = v
	}
	return s
}

func (s *state) key() string {
	parts := make([]string, 0, len(s.held)+len(s.bumped)+len(s.pending))
	for k := range s.held {
		parts = append(parts, "h:"+k)
	}
	for k := range s.bumped {
		parts = append(parts, fmt.Sprintf("b:%p", k))
	}
	for k := range s.pending {
		parts = append(parts, "p:"+k)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func checkFunc(pass *analysis.Pass, summ *analysis.Summaries, fd *ast.FuncDecl, pairs map[types.Object]genPair, counters map[types.Object]bool) {
	g := analysis.FuncCFG(fd.Body, pass.TypesInfo)
	w := &walker{pass: pass, summ: summ, pairs: pairs, counters: counters}
	events := make([][]genEvent, len(g.Blocks))
	for _, blk := range g.Blocks {
		events[blk.Index] = w.blockEvents(blk)
	}
	in := make([]*state, len(g.Blocks))
	rpo := g.RPO()
	in[g.Entry.Index] = newState()
	outKeys := make([]string, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			if in[blk.Index] == nil {
				continue
			}
			out := in[blk.Index].clone()
			w.apply(out, events[blk.Index], nil)
			if k := out.key(); k != outKeys[blk.Index] {
				outKeys[blk.Index] = k
				changed = true
			}
			for _, succ := range blk.Succs {
				before := ""
				if in[succ.Index] != nil {
					before = in[succ.Index].key()
				}
				in[succ.Index] = join(in[succ.Index], out)
				if in[succ.Index].key() != before {
					changed = true
				}
			}
		}
	}
	// Reporting pass over settled in-states.
	reported := make(map[string]bool)
	report := func(p pending) {
		if reported[p.id()] {
			return
		}
		reported[p.id()] = true
		pass.Reportf(p.pos,
			"mutation of %s (guarded by %s) does not bump generation counter %s before %s is released in %s",
			p.field, p.mu, counterName(p.counter), p.mu, analysis.FuncDisplayName(fd))
	}
	for _, blk := range rpo {
		if in[blk.Index] == nil {
			continue
		}
		out := in[blk.Index].clone()
		w.apply(out, events[blk.Index], report)
		if blk == g.Exit {
			// Deferred unlocks release here: anything still pending
			// escaped its critical section unbumped.
			for _, p := range out.pending {
				report(p)
			}
		}
	}
}

func counterName(obj types.Object) string { return obj.Name() }

type genEvent struct {
	kind    genEvKind
	key     string       // guard key (acquire/release)
	counter types.Object // bump
	p       pending      // mutate
}

type genEvKind int

const (
	gevAcquire genEvKind = iota
	gevRelease
	gevBump
	gevMutate
)

type walker struct {
	pass     *analysis.Pass
	summ     *analysis.Summaries
	pairs    map[types.Object]genPair
	counters map[types.Object]bool
}

// apply runs one block's events over a state.
func (w *walker) apply(s *state, evs []genEvent, report func(pending)) {
	for _, ev := range evs {
		switch ev.kind {
		case gevAcquire:
			s.held[ev.key] = true
		case gevRelease:
			for id, p := range s.pending {
				if p.muKey == ev.key {
					if report != nil {
						report(p)
					}
					delete(s.pending, id)
				}
			}
			delete(s.held, ev.key)
			// Conservatively end every section's bump credit: bumps
			// never stay valid across a release boundary.
			for k := range s.bumped {
				delete(s.bumped, k)
			}
		case gevBump:
			s.bumped[ev.counter] = true
			for id, p := range s.pending {
				if p.counter == ev.counter {
					delete(s.pending, id)
				}
			}
		case gevMutate:
			if !s.held[ev.p.muKey] {
				// Guard not visibly held (constructor, *Locked helper):
				// lockcheck's territory, not ours.
				continue
			}
			if s.bumped[ev.p.counter] {
				continue
			}
			s.pending[ev.p.id()] = ev.p
		}
	}
}

// blockEvents extracts ordered lock/bump/mutate events from a block.
func (w *walker) blockEvents(blk *analysis.Block) []genEvent {
	var evs []genEvent
	for _, n := range blk.Nodes {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			// A deferred unlock holds the guard to function exit; the
			// Exit block reports leftovers.  Deferred bumps/mutations
			// are too rare to model.
			continue
		}
		ast.Inspect(n, func(c ast.Node) bool {
			switch v := c.(type) {
			case *ast.FuncLit:
				return false // separate function; analyzed via its decl? literals skipped
			case *ast.CallExpr:
				evs = append(evs, w.callEvents(v)...)
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					evs = append(evs, w.writeEvents(lhs)...)
				}
			case *ast.IncDecStmt:
				evs = append(evs, w.writeEvents(v.X)...)
			}
			return true
		})
	}
	return evs
}

// writeEvents classifies a write target as a bump and/or a mutation.
func (w *walker) writeEvents(lhs ast.Expr) []genEvent {
	obj := analysis.WrittenField(w.pass.TypesInfo, lhs)
	if obj == nil {
		return nil
	}
	return w.fieldEvents(obj, lhs)
}

// fieldEvents builds the events for touching field obj through the
// access expression at expr.
func (w *walker) fieldEvents(obj types.Object, at ast.Expr) []genEvent {
	var evs []genEvent
	if w.counters[obj] {
		evs = append(evs, genEvent{kind: gevBump, counter: obj})
	}
	if pair, ok := w.pairs[obj]; ok {
		if muKey, ok := w.guardKey(at, pair.muName); ok {
			evs = append(evs, genEvent{kind: gevMutate, p: pending{
				muKey:   muKey,
				counter: pair.counter,
				pos:     at.Pos(),
				field:   obj.Name(),
				mu:      pair.muName,
			}})
		}
	}
	return evs
}

// guardKey renders the canonical key of the guard protecting the
// access at expr: the base path of the access plus the mutex name
// (s.m → "obj….mu" for `guarded by mu`).
func (w *walker) guardKey(expr ast.Expr, muName string) (string, bool) {
	base := baseOf(expr)
	if base == nil {
		return "", false
	}
	key, ok := analysis.ExprKey(w.pass.TypesInfo, base)
	if !ok {
		return "", false
	}
	return key + "." + muName, true
}

// baseOf strips the field selector / index off an access path,
// returning the expression the guard hangs off: s.m[k] → s, s.gen → s.
func baseOf(expr ast.Expr) ast.Expr {
	e := analysis.Unparen(expr)
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = analysis.Unparen(v.X)
		case *ast.StarExpr:
			e = analysis.Unparen(v.X)
		case *ast.SelectorExpr:
			return v.X
		default:
			return nil
		}
	}
}

// callEvents classifies a call: mutex ops, delete()/mutating methods
// on annotated fields, and helper calls credited with counter bumps.
func (w *walker) callEvents(call *ast.CallExpr) []genEvent {
	info := w.pass.TypesInfo
	if mu, _, release, ok := analysis.LockCall(info, call); ok {
		if key, keyOK := analysis.ExprKey(info, mu); keyOK {
			kind := gevAcquire
			if release {
				kind = gevRelease
			}
			return []genEvent{{kind: kind, key: key}}
		}
		return nil
	}
	var evs []genEvent
	// delete(s.f, k) and s.f.Insert(...) style mutations.
	if obj := analysis.MutatedField(info, call); obj != nil {
		var at ast.Expr
		switch fun := analysis.Unparen(call.Fun).(type) {
		case *ast.Ident: // delete builtin
			if len(call.Args) > 0 {
				at = call.Args[0]
			}
		case *ast.SelectorExpr:
			at = fun.X
		}
		if at != nil {
			evs = append(evs, w.fieldEvents(obj, at)...)
		}
	}
	// A helper called under the guard counts as a bump for every
	// counter it writes (interprocedural credit).
	if fs := w.summ.OfCall(info, call); fs != nil {
		for obj := range fs.FieldWrites {
			if w.counters[obj] {
				evs = append(evs, genEvent{kind: gevBump, counter: obj})
			}
		}
	}
	return evs
}
