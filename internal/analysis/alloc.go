package analysis

// Flow-insensitive allocation, boxing, and escape inference — the
// machinery behind the performance tier (hotalloc, aliascap).
//
// The inference answers three questions about each module function:
//
//  1. Which expressions perform hidden heap allocations?  (Allocs)
//  2. Which expressions box a concrete value into an interface?  (Boxes)
//  3. Which parameters leak — may be retained past the call — and which
//     return values alias a parameter or an arena buffer?  (LeaksParam,
//     ReturnsParam, ReturnsArena, ArenaParam)
//
// Like every summary in this package, the inference errs toward
// silence: an unresolvable call contributes nothing, a conversion is
// assumed to copy, and composite literals / closures only count as
// allocations when they provably escape (returned, stored into a field
// or global, sent on a channel, or passed to a module callee that
// leaks the parameter).  This deliberately mirrors the compiler's
// escape analysis: a non-capturing closure or a &T{} that stays local
// is stack-allocated and must not be flagged.
//
// Sites inside error-handling blocks (an if whose condition tests an
// error-typed value) are exempt everywhere: a hot path's steady state
// is the non-error path, and building an error is the right thing to
// do once something already went wrong.
//
// The escape hatch is `netmarkvet:allocok` (always with a reason): on
// a site's own line or the line directly above it suppresses that
// site; on a function's doc comment it excuses the whole function and
// the calls it makes.  A call on an allocok line also severs the
// hotpath traversal edge, so one annotated slow-path call excuses the
// whole subtree behind it.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocSite is one hidden-allocation (or boxing) site inside a
// function body.
type AllocSite struct {
	Pos  token.Pos
	What string
}

// CallEdge is one statically resolved same-module call, recorded for
// the hotpath transitive closure.  Calls excused by an allocok line do
// not produce edges.
type CallEdge struct {
	Pos    token.Pos
	Callee *types.Func
}

// stdlibAllocs lists standard-library calls that always allocate.
// Functions that merely *may* allocate (strings.ToLower on an already-
// lower string, strconv.Itoa on a cached small int) are left out: the
// inference errs toward silence.
var stdlibAllocs = map[string]string{
	"strings.NewReplacer": "builds a Replacer",
	"strings.NewReader":   "allocates a Reader",
	"strings.Repeat":      "builds a new string",
	"strings.Split":       "allocates the result slice",
	"strings.SplitN":      "allocates the result slice",
	"strings.SplitAfter":  "allocates the result slice",
	"strings.Fields":      "allocates the result slice",
	"strings.Join":        "builds a new string",
	"strings.Map":         "builds a new string",
	"bytes.NewBuffer":     "allocates a Buffer",
	"bytes.NewReader":     "allocates a Reader",
	"bytes.Split":         "allocates the result slice",
	"bytes.Fields":        "allocates the result slice",
	"bytes.Join":          "builds a new slice",
	"bytes.Repeat":        "builds a new slice",
	"sort.Slice":          "boxes its slice argument and allocates the closure",
	"sort.SliceStable":    "boxes its slice argument and allocates the closure",
	"regexp.Compile":      "compiles a machine",
	"regexp.MustCompile":  "compiles a machine",
	"io.ReadAll":          "grows a result buffer",
	"os.ReadFile":         "allocates the file contents",
}

// allocOKLines returns the set of source lines in fd's file excused by
// a netmarkvet:allocok comment: the comment's own line (trailing form)
// and the line after it (standalone form above the site).
func allocOKLines(pkg *Package, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "netmarkvet:allocok") {
				continue
			}
			// The marker excuses its own line (trailing comments) and
			// the line after its comment group (leading comments, which
			// may wrap across several lines before the code they excuse).
			lines[pkg.Fset.Position(c.Pos()).Line] = true
			lines[pkg.Fset.Position(cg.End()).Line+1] = true
		}
	}
	return lines
}

// fileOf returns the *ast.File containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// buildParents maps every node inside root to its parent node.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// errCondition reports whether an if condition tests an error-typed
// value — the gate for the error-path exemption.
func errCondition(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && tv.Value == nil && tv.Type != nil && isErrorType(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// errPathSpans returns the position ranges of error-path blocks: the
// body of `if err != nil`-shaped statements, and any if-body that
// fails out by returning a non-nil error (`if x < 0 { return
// errors.New(...) }`).  A hot path's steady state never enters them.
func errPathSpans(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IfStmt:
			if (st.Cond != nil && errCondition(info, st.Cond)) || failsOut(info, st.Body.List) {
				spans = append(spans, [2]token.Pos{st.Body.Pos(), st.Body.End()})
			}
		case *ast.CaseClause:
			// A switch case that fails out (default: return fmt.Errorf...)
			// is an error path like an if-body that does.
			if failsOut(info, st.Body) {
				spans = append(spans, [2]token.Pos{st.Colon, st.End()})
			}
		}
		return true
	})
	return spans
}

// failsOut reports whether a statement list ends with a return
// carrying a non-nil error value.
func failsOut(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	ret, ok := list[len(list)-1].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, r := range ret.Results {
		tv, ok := info.Types[r]
		if ok && tv.Type != nil && isErrorType(tv.Type) && !tv.IsNil() {
			return true
		}
	}
	return false
}

func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, sp := range spans {
		if pos >= sp[0] && pos <= sp[1] {
			return true
		}
	}
	return false
}

// pointerShaped reports whether a value of type t is represented as a
// single pointer word, so storing it in an interface needs no box
// allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// aliasable reports whether a value of type t can carry an alias of
// the memory it was derived from (pointers, slices, and aggregates
// containing them).  Plain scalars and strings cannot: copying them
// severs the alias (string contents are immutable and our conversions
// copy).
func aliasable(t types.Type) bool {
	return aliasableDepth(t, 0)
}

func aliasableDepth(t types.Type, depth int) bool {
	if depth > 6 {
		return true // give up conservatively on deep nesting
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasableDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliasableDepth(u.Elem(), depth+1)
	}
	return false
}

// isPkgLevelVar reports whether obj is a package-level variable.
func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// taintSet tracks which local objects may alias tainted memory.
type taintSet map[types.Object]bool

// seedFunc reports whether an expression is a direct taint source
// (e.g. a selector of an arena field, a call returning an arena
// alias).  nil means only the pre-seeded objects are sources.
type seedFunc func(e ast.Expr) bool

// exprTainted reports whether e may alias tainted memory under ts and
// seed.  Conversions are assumed to copy (string(b), []byte(s)) and
// sever taint — the documented bias toward silence.
func aliasTainted(info *types.Info, ts taintSet, seed seedFunc, s *Summaries, e ast.Expr) bool {
	if e == nil {
		return false
	}
	if seed != nil && seed(e) {
		return true
	}
	switch v := e.(type) {
	case *ast.Ident:
		return ts[info.ObjectOf(v)]
	case *ast.ParenExpr:
		return aliasTainted(info, ts, seed, s, v.X)
	case *ast.StarExpr:
		return aliasTainted(info, ts, seed, s, v.X)
	case *ast.SelectorExpr:
		// A field of a tainted struct aliases it.
		return aliasTainted(info, ts, seed, s, v.X)
	case *ast.IndexExpr:
		// An element of a tainted slice is an alias only if the element
		// type can carry one (buf[i] on []uint64 yields a value).
		if tv, ok := info.Types[e]; ok && tv.Type != nil && !aliasable(tv.Type) {
			return false
		}
		return aliasTainted(info, ts, seed, s, v.X)
	case *ast.SliceExpr:
		return aliasTainted(info, ts, seed, s, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			// &x[i] aliases x even when the element is a scalar.
			return addrBaseTainted(info, ts, seed, s, v.X)
		}
		return false
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if aliasTainted(info, ts, seed, s, el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
			return false // conversion: assumed to copy
		}
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && info.Uses[id] == nil && id.Name == "append" {
			// append result aliases arg 0; spread/element args only
			// taint it when the element type can carry an alias.
			if len(v.Args) > 0 && aliasTainted(info, ts, seed, s, v.Args[0]) {
				return true
			}
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !aliasable(sl.Elem()) {
					return false
				}
			}
			for _, a := range v.Args[1:] {
				if aliasTainted(info, ts, seed, s, a) {
					return true
				}
			}
			return false
		}
		if fs := s.Of(CalleeFunc(info, v)); fs != nil {
			if fs.ReturnsArena && seed != nil {
				return true
			}
			for i, a := range v.Args {
				if i < len(fs.ReturnsParam) && fs.ReturnsParam[i] && aliasTainted(info, ts, seed, s, a) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// addrBaseTainted is exprTainted for address-of operands, where even a
// scalar element carries the alias.
func addrBaseTainted(info *types.Info, ts taintSet, seed seedFunc, s *Summaries, e ast.Expr) bool {
	switch v := unparen(e).(type) {
	case *ast.IndexExpr:
		return aliasTainted(info, ts, seed, s, v.X) || addrBaseTainted(info, ts, seed, s, v.X)
	case *ast.SelectorExpr:
		return aliasTainted(info, ts, seed, s, v.X)
	}
	return aliasTainted(info, ts, seed, s, e)
}

// localTaint computes the fixed point of taint over fd's local
// variables, starting from the pre-seeded objects in ts and the seed
// predicate.  It mutates and returns ts.
func localTaint(pkg *Package, fd *ast.FuncDecl, ts taintSet, seed seedFunc, s *Summaries) taintSet {
	info := pkg.Info
	for iter := 0; iter < 8; iter++ {
		changed := false
		taintObj := func(obj types.Object) {
			if obj != nil && !ts[obj] && !isPkgLevelVar(obj) {
				ts[obj] = true
				changed = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					var rhs ast.Expr
					if len(v.Rhs) == len(v.Lhs) {
						rhs = v.Rhs[i]
					} else if len(v.Rhs) == 1 {
						rhs = v.Rhs[0]
					}
					if rhs == nil || !aliasTainted(info, ts, seed, s, rhs) {
						continue
					}
					switch l := unparen(lhs).(type) {
					case *ast.Ident:
						taintObj(info.ObjectOf(l))
					case *ast.IndexExpr:
						// Storing an alias into a local slice taints the
						// slice itself.
						if id, ok := unparen(l.X).(*ast.Ident); ok {
							taintObj(info.ObjectOf(id))
						}
					}
				}
			case *ast.RangeStmt:
				if aliasTainted(info, ts, seed, s, v.X) {
					if id, ok := v.Value.(*ast.Ident); ok && id.Name != "_" {
						if tv, ok := info.Types[v.X]; ok && tv.Type != nil {
							if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !aliasable(sl.Elem()) {
								break
							}
						}
						taintObj(info.ObjectOf(id))
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return ts
}

// sinkRec is one place a tainted value is retained past the function.
type sinkRec struct {
	Pos  token.Pos
	Desc string
}

// sinkOpts tunes findSinks per caller.
type sinkOpts struct {
	// allowArena permits stores back into arena-tagged fields (the
	// refill `it.buf = decode(...)` is the arena's purpose).
	allowArena bool
	// paramStores treats stores into parameter-reachable memory
	// (p[i] = x, *p = x) as sinks — used by aliascap, where handing an
	// alias to the caller's memory retains it.
	paramStores bool
}

// findSinks walks fd for places a tainted value escapes: stores into
// fields or globals, channel sends, passing to a module callee that
// leaks the parameter, and goroutines capturing tainted state.
// Returns are not sinks here — they propagate through ReturnsParam /
// ReturnsArena instead.
func findSinks(pkg *Package, fd *ast.FuncDecl, ts taintSet, seed seedFunc, s *Summaries, opts sinkOpts) []sinkRec {
	info := pkg.Info
	var sinks []sinkRec
	tainted := func(e ast.Expr) bool { return aliasTainted(info, ts, seed, s, e) }
	paramObjs := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				paramObjs[info.ObjectOf(name)] = true
			}
		}
	}
	sinkLHS := func(lhs ast.Expr) (string, bool) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(l); isPkgLevelVar(obj) {
				return "stored into package variable " + l.Name, true
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				if opts.allowArena && s.ArenaFields[sel.Obj()] {
					return "", false
				}
				return "stored into field " + sel.Obj().Name(), true
			}
			if obj := info.ObjectOf(l.Sel); isPkgLevelVar(obj) {
				return "stored into package variable " + l.Sel.Name, true
			}
		case *ast.IndexExpr:
			if obj := writtenField(info, l); obj != nil {
				if opts.allowArena && s.ArenaFields[obj] {
					return "", false
				}
				return "stored into field " + obj.Name(), true
			}
			if id, ok := unparen(l.X).(*ast.Ident); ok {
				obj := info.ObjectOf(id)
				if isPkgLevelVar(obj) {
					return "stored into package variable " + id.Name, true
				}
				if opts.paramStores && paramObjs[obj] {
					return "stored into caller-visible memory via parameter " + id.Name, true
				}
			}
		case *ast.StarExpr:
			if id, ok := unparen(l.X).(*ast.Ident); ok {
				obj := info.ObjectOf(id)
				if opts.paramStores && paramObjs[obj] {
					return "stored through pointer parameter " + id.Name, true
				}
			}
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				var rhs ast.Expr
				if len(v.Rhs) == len(v.Lhs) {
					rhs = v.Rhs[i]
				} else if len(v.Rhs) == 1 {
					rhs = v.Rhs[0]
				}
				if rhs == nil || !tainted(rhs) {
					continue
				}
				if desc, bad := sinkLHS(lhs); bad {
					sinks = append(sinks, sinkRec{Pos: v.Pos(), Desc: desc})
				}
			}
		case *ast.SendStmt:
			if tainted(v.Value) {
				sinks = append(sinks, sinkRec{Pos: v.Pos(), Desc: "sent on a channel"})
			}
		case *ast.CallExpr:
			fs := s.Of(CalleeFunc(info, v))
			if fs == nil {
				return true
			}
			sig := funcSig(fs.Fn)
			for i, a := range v.Args {
				if !tainted(a) {
					continue
				}
				pi := i
				if sig.Variadic() && pi >= sig.Params().Len()-1 {
					pi = sig.Params().Len() - 1
				}
				if pi < len(fs.LeaksParam) && fs.LeaksParam[pi] {
					sinks = append(sinks, sinkRec{Pos: a.Pos(), Desc: "passed to " + displayFuncName(fs.Fn) + ", which retains it"})
				}
			}
		case *ast.GoStmt:
			goTainted := false
			for _, a := range v.Call.Args {
				if tainted(a) {
					goTainted = true
				}
			}
			if fl, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && ts[info.Uses[id]] {
						goTainted = true
						return false
					}
					return true
				})
			}
			if goTainted {
				sinks = append(sinks, sinkRec{Pos: v.Pos(), Desc: "captured by a goroutine"})
			}
		}
		return true
	})
	return sinks
}

// returnsTainted reports whether any return statement in fd returns a
// tainted expression.
func returnsTainted(pkg *Package, fd *ast.FuncDecl, ts taintSet, seed seedFunc, s *Summaries) bool {
	info := pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok && fl != nil {
			return true // returns inside closures are the closure's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if aliasTainted(info, ts, seed, s, r) {
				found = true
			}
		}
		return true
	})
	return found
}

// paramSeeds returns a taint set holding fd's aliasable parameters
// selected by keep (by index).
func paramSeeds(pkg *Package, fd *ast.FuncDecl, keep func(i int) bool) taintSet {
	ts := make(taintSet)
	i := 0
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if keep(i) {
					if obj := pkg.Info.ObjectOf(name); obj != nil {
						ts[obj] = true
					}
				}
				i++
			}
		}
	}
	return ts
}

// arenaSeed builds the seed predicate for arena taint in fs: selectors
// of arena-tagged fields and parameters marked ArenaParam by callers.
func arenaSeed(fs *FuncSummary, s *Summaries) (taintSet, seedFunc, bool) {
	info := fs.Pkg.Info
	ts := make(taintSet)
	any := false
	params := funcSig(fs.Fn).Params()
	for i := 0; i < params.Len() && i < len(fs.ArenaParam); i++ {
		if fs.ArenaParam[i] {
			ts[params.At(i)] = true
			any = true
		}
	}
	seed := func(e ast.Expr) bool {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection, ok := info.Selections[sel]
		return ok && selection.Kind() == types.FieldVal && s.ArenaFields[selection.Obj()]
	}
	// Cheap pre-scan: does the body mention an arena source at all?
	if !any {
		ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
			if any {
				return false
			}
			if e, ok := n.(ast.Expr); ok && seed(e) {
				any = true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if cs := s.Of(CalleeFunc(info, call)); cs != nil && cs.ReturnsArena {
					any = true
				}
			}
			return true
		})
	}
	return ts, seed, any
}

// typeLabel formats t with bare package names (a.row, not the full
// import path) for readable diagnostics.
func typeLabel(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// DisplayName renders fn for diagnostics: "(*T).Method" or "Func".
func DisplayName(fn *types.Func) string { return displayFuncName(fn) }

// ArenaLeaks reports the places fs retains an alias derived from a
// netmarkvet:arena buffer (directly, through an arena-returning
// callee, or through a parameter some caller passes an arena alias
// in).  Sites on netmarkvet:allocok lines are excused.
func ArenaLeaks(fs *FuncSummary, s *Summaries) []AllocSite {
	if len(s.ArenaFields) == 0 || fs.AllocOK {
		return nil
	}
	ts, seed, any := arenaSeed(fs, s)
	if !any {
		return nil
	}
	localTaint(fs.Pkg, fs.Decl, ts, seed, s)
	file := fileOf(fs.Pkg, fs.Decl.Pos())
	var okLines map[int]bool
	if file != nil {
		okLines = allocOKLines(fs.Pkg, file)
	}
	var out []AllocSite
	for _, sk := range findSinks(fs.Pkg, fs.Decl, ts, seed, s, sinkOpts{allowArena: true, paramStores: true}) {
		if okLines[fs.Pkg.Fset.Position(sk.Pos).Line] {
			continue
		}
		out = append(out, AllocSite{Pos: sk.Pos, What: sk.Desc})
	}
	return out
}

// collectAllocFacts fills fs.Allocs, fs.Boxes, and fs.HotCalls from
// the function body.  Runs once, after the summary fixed point, so
// leak facts of callees are final.
func collectAllocFacts(fs *FuncSummary, s *Summaries) {
	pkg, info := fs.Pkg, fs.Pkg.Info
	if fs.AllocOK {
		return // function-level escape hatch: no sites, no edges
	}
	file := fileOf(pkg, fs.Decl.Pos())
	if file == nil {
		return
	}
	okLines := allocOKLines(pkg, file)
	excused := func(pos token.Pos) bool { return okLines[pkg.Fset.Position(pos).Line] }
	errSpans := errPathSpans(info, fs.Decl.Body)
	parents := buildParents(fs.Decl.Body)
	presized := presizedSlices(pkg, fs.Decl)
	skip := func(pos token.Pos) bool { return excused(pos) || inSpans(errSpans, pos) }
	addAlloc := func(pos token.Pos, what string) {
		if !skip(pos) {
			fs.Allocs = append(fs.Allocs, AllocSite{Pos: pos, What: what})
		}
	}
	addBox := func(pos token.Pos, what string) {
		if !skip(pos) {
			fs.Boxes = append(fs.Boxes, AllocSite{Pos: pos, What: what})
		}
	}

	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			collectCallFacts(fs, s, v, parents, presized, skip, addAlloc, addBox)
		case *ast.CompositeLit:
			tv, ok := info.Types[v]
			if !ok || tv.Type == nil {
				break
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				addAlloc(v.Pos(), "map literal allocates")
			case *types.Slice:
				addAlloc(v.Pos(), "slice literal allocates")
			case *types.Struct, *types.Array:
				// Value literal: only an alloc when its address escapes,
				// handled at the &T{} site.
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := unparen(v.X).(*ast.CompositeLit); ok {
					if escapes(fs, s, v, parents) {
						_ = cl
						addAlloc(v.Pos(), "escaping &composite literal allocates")
					}
				}
			}
		case *ast.FuncLit:
			if closureCaptures(pkg, fs.Decl, v) && escapes(fs, s, v, parents) {
				addAlloc(v.Pos(), "escaping capturing closure allocates")
			}
		case *ast.GoStmt:
			addAlloc(v.Pos(), "go statement allocates a goroutine")
		}
		if n != nil {
			collectBoxFacts(fs, s, n, addBox)
		}
		return true
	})
}

// collectCallFacts handles one call expression: builtins (make, new,
// append), conversions, stdlib allocators, fmt/errors, and module call
// edges for the hotpath closure.
func collectCallFacts(fs *FuncSummary, s *Summaries, call *ast.CallExpr, parents map[ast.Node]ast.Node,
	presized map[types.Object]bool, skip func(token.Pos) bool,
	addAlloc func(token.Pos, string), addBox func(token.Pos, string)) {
	info := fs.Pkg.Info

	// Conversions: string <-> []byte / []rune copy; conversions into an
	// interface type box.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) != 1 {
			return
		}
		from := info.Types[call.Args[0]].Type
		if types.IsInterface(to.Underlying()) {
			if from != nil && !types.IsInterface(from.Underlying()) && !pointerShaped(from) {
				addBox(call.Pos(), fmt.Sprintf("conversion of %s to interface boxes", typeLabel(from)))
			}
			return
		}
		if from == nil {
			return
		}
		if convCopies(from, to) {
			// m[string(b)] is elided by the compiler.
			if idx, ok := parents[call].(*ast.IndexExpr); ok && idx.Index == call {
				if btv, ok := info.Types[idx.X]; ok && btv.Type != nil {
					if _, isMap := btv.Type.Underlying().(*types.Map); isMap {
						return
					}
				}
			}
			addAlloc(call.Pos(), fmt.Sprintf("conversion %s -> %s copies", typeLabel(from), typeLabel(to)))
		}
		return
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				addAlloc(call.Pos(), "make allocates")
			case "new":
				if escapes(fs, s, call, parents) {
					addAlloc(call.Pos(), "escaping new(T) allocates")
				}
			case "append":
				if len(call.Args) > 0 && !appendPresized(info, call.Args[0], presized) {
					addAlloc(call.Pos(), "append beyond a provable pre-sized cap may grow")
				}
			}
			return
		}
	}

	fn := CalleeFunc(info, call)
	if fn == nil {
		return // function value / interface method: silence
	}
	if cs := s.Of(fn); cs != nil {
		if cs != fs && !skip(call.Pos()) {
			fs.HotCalls = append(fs.HotCalls, CallEdge{Pos: call.Pos(), Callee: fn})
		}
		return
	}
	name := stdlibFuncName(fn)
	if why, ok := stdlibAllocs[name]; ok {
		addAlloc(call.Pos(), "call to "+name+" allocates ("+why+")")
		return
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "errors":
			addAlloc(call.Pos(), "call to "+name+" allocates")
		}
	}
}

// convCopies reports whether a conversion from -> to copies memory:
// string <-> []byte / []rune.
func convCopies(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStr(to))
}

// collectBoxFacts records implicit concrete -> interface conversions:
// call arguments, assignments, variable declarations, returns, map
// stores, and channel sends.  Pointer-shaped values are exempt — they
// fit the interface word without allocating.
func collectBoxFacts(fs *FuncSummary, s *Summaries, n ast.Node, addBox func(token.Pos, string)) {
	info := fs.Pkg.Info
	boxed := func(pos token.Pos, to types.Type, from ast.Expr, ctx string) {
		if to == nil || !types.IsInterface(to.Underlying()) {
			return
		}
		ftv, ok := info.Types[from]
		if !ok || ftv.Type == nil {
			return
		}
		ft := ftv.Type
		if ftv.IsNil() || types.IsInterface(ft.Underlying()) || pointerShaped(ft) {
			return
		}
		addBox(pos, fmt.Sprintf("%s boxes %s into %s", ctx, typeLabel(ft), typeLabel(to)))
	}
	switch v := n.(type) {
	case *ast.CallExpr:
		if tv, ok := info.Types[v.Fun]; ok && (tv.IsType() || tv.Type == nil) {
			return // conversions handled in collectCallFacts
		}
		ftv, ok := info.Types[v.Fun]
		if !ok || ftv.Type == nil {
			return
		}
		sig, ok := ftv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		for i, a := range v.Args {
			pi := i
			if sig.Variadic() && pi >= sig.Params().Len()-1 {
				if v.Ellipsis != token.NoPos {
					continue // spread: no per-element boxing
				}
				pi = sig.Params().Len() - 1
			}
			if pi >= sig.Params().Len() {
				continue
			}
			pt := sig.Params().At(pi).Type()
			if sig.Variadic() && pi == sig.Params().Len()-1 {
				if sl, ok := pt.Underlying().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
			boxed(a.Pos(), pt, a, "argument")
		}
	case *ast.AssignStmt:
		if len(v.Lhs) != len(v.Rhs) {
			return
		}
		for i := range v.Lhs {
			ltv, ok := info.Types[v.Lhs[i]]
			if !ok {
				// := defines the LHS; no conversion happens.
				continue
			}
			boxed(v.Rhs[i].Pos(), ltv.Type, v.Rhs[i], "assignment")
		}
	case *ast.ValueSpec:
		if v.Type == nil {
			return
		}
		ttv, ok := info.Types[v.Type]
		if !ok {
			return
		}
		for _, val := range v.Values {
			boxed(val.Pos(), ttv.Type, val, "declaration")
		}
	case *ast.ReturnStmt:
		sig := funcSig(fs.Fn)
		if len(v.Results) != sig.Results().Len() {
			return
		}
		for i, r := range v.Results {
			boxed(r.Pos(), sig.Results().At(i).Type(), r, "return")
		}
	case *ast.SendStmt:
		if ctv, ok := info.Types[v.Chan]; ok && ctv.Type != nil {
			if ch, ok := ctv.Type.Underlying().(*types.Chan); ok {
				boxed(v.Value.Pos(), ch.Elem(), v.Value, "channel send")
			}
		}
	case *ast.IndexExpr:
		// Map stores are covered by the AssignStmt case via LHS types;
		// nothing to do here.
	}
}

// presizedSlices returns the local slice objects provably created with
// an explicit length or capacity in fd (append into them up to that
// cap does not grow).  Slice-typed parameters are included: their
// capacity is the caller's contract.
func presizedSlices(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	info := pkg.Info
	out := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				obj := info.ObjectOf(name)
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) < 2 {
				continue
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if lid, ok := unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.ObjectOf(lid); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// appendPresized reports whether the append base is a slice we can
// prove was pre-sized (a parameter or a local made with explicit
// len/cap).
func appendPresized(info *types.Info, base ast.Expr, presized map[types.Object]bool) bool {
	if id, ok := unparen(base).(*ast.Ident); ok {
		return presized[info.ObjectOf(id)]
	}
	return false
}

// closureCaptures reports whether fl references variables declared in
// the enclosing function (a capturing closure needs a heap cell when
// it escapes).
func closureCaptures(pkg *Package, fd *ast.FuncDecl, fl *ast.FuncLit) bool {
	info := pkg.Info
	captures := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || isPkgLevelVar(v) {
			return true
		}
		// Declared inside the enclosing function but outside the literal.
		if v.Pos() >= fd.Pos() && v.Pos() < fl.Pos() {
			captures = true
		}
		return true
	})
	return captures
}

// escapes decides whether the value created at expr outlives the
// function, by the expression's syntactic context.  Bias toward
// silence: unknown callees and untracked contexts do not escape.
func escapes(fs *FuncSummary, s *Summaries, expr ast.Expr, parents map[ast.Node]ast.Node) bool {
	pkg, info := fs.Pkg, fs.Pkg.Info
	node := ast.Node(expr)
	for depth := 0; depth < 12; depth++ {
		parent := parents[node]
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr, *ast.CompositeLit, *ast.UnaryExpr:
			node = parent
			continue
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return p.Value == node
		case *ast.GoStmt:
			return true
		case *ast.DeferStmt:
			return false
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != node {
					continue
				}
				var lhs ast.Expr
				if len(p.Lhs) == len(p.Rhs) {
					lhs = p.Lhs[i]
				} else if len(p.Lhs) > 0 {
					lhs = p.Lhs[0]
				}
				switch l := unparen(lhs).(type) {
				case *ast.Ident:
					obj := info.ObjectOf(l)
					if obj == nil || isPkgLevelVar(obj) {
						return true
					}
					// Local: escapes if the local has any retention sink.
					ts := taintSet{obj: true}
					localTaint(pkg, fs.Decl, ts, nil, s)
					if len(findSinks(pkg, fs.Decl, ts, nil, s, sinkOpts{})) > 0 {
						return true
					}
					return returnsTainted(pkg, fs.Decl, ts, nil, s)
				default:
					return true // field, index, star: stored away
				}
			}
			return false
		case *ast.CallExpr:
			if p.Fun == node {
				return false // immediately invoked
			}
			fn := CalleeFunc(info, p)
			if fn == nil {
				return false // function value: silence
			}
			if cs := s.Of(fn); cs != nil {
				sig := funcSig(fn)
				for i, a := range p.Args {
					if a != node {
						continue
					}
					pi := i
					if sig.Variadic() && pi >= sig.Params().Len()-1 {
						pi = sig.Params().Len() - 1
					}
					if pi < len(cs.LeaksParam) && cs.LeaksParam[pi] {
						return true
					}
				}
				return false
			}
			return false // stdlib: assumed non-retaining (sort.Search etc.)
		default:
			return false
		}
	}
	return false
}
