package analysis

// Interprocedural function summaries.  The dataflow analyzers need
// facts about callees — does this call commit the WAL, mutate the
// store, sink an error, write a success response — that a single
// function body cannot answer.  Summaries computes them module-wide by
// a bounded fixed point over the call graph: annotation seeds
// (netmarkvet:commit, netmarkvet:mutates, netmarkvet:errsink) plus
// primitive classification (os.Rename, *.Sync, table writes) propagate
// caller-ward until nothing changes.
//
// All summaries err toward silence: an unresolvable call (interface
// method, function value) contributes nothing.

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
	"sync"
)

// Module is a set of packages type-checked against one FileSet, the
// unit over which interprocedural summaries are computed.  Every
// Package loaded by LoadModule shares the Module; analysistest wraps a
// single package in a singleton Module.
type Module struct {
	Packages []*Package

	once sync.Once
	summ *Summaries
}

// FuncSummary is what the analyzers know about one module function.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Commits: the function may make prior writes durable (WAL
	// sync/commit).  Seeded by netmarkvet:commit, closed transitively.
	Commits bool
	// Mutates: the function may mutate persistent store state.  Seeded
	// by netmarkvet:mutates, closed transitively.
	Mutates bool
	// ErrSink: the function is an annotated error sink
	// (netmarkvet:errsink) — passing an error to it counts as handling
	// it, and errflow does not look inside.
	ErrSink bool
	// DurableErr: the function has an error result and touches a
	// durability primitive, so its callers' error handling is checked
	// by errflow.
	DurableErr bool
	// ConsumesErr reports, per parameter, whether an error passed in
	// that position reaches a return, a sink, or escapes (a bare log
	// does not count).
	ConsumesErr []bool
	// AcksParam reports, per parameter, whether the function writes a
	// success response to that writer parameter (http.ResponseWriter /
	// io.Writer) — directly or through callees.
	AcksParam []bool
}

// Summaries indexes FuncSummary by the function's types.Func identity.
type Summaries struct {
	byFunc map[*types.Func]*FuncSummary
}

// Of returns the summary for fn, or nil for functions outside the
// module (or without bodies).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byFunc[fn]
}

// OfCall resolves call's static callee and returns its summary, or nil.
func (s *Summaries) OfCall(info *types.Info, call *ast.CallExpr) *FuncSummary {
	return s.Of(CalleeFunc(info, call))
}

// Summaries computes (once) and returns the module's function
// summaries.
func (m *Module) Summaries() *Summaries {
	m.once.Do(func() { m.summ = computeSummaries(m) })
	return m.summ
}

// singleton wraps one package in its own Module; used when a package
// was loaded outside LoadModule (analysistest).
func singleton(pkg *Package) *Module {
	m := &Module{Packages: []*Package{pkg}}
	pkg.Mod = m
	return m
}

// CalleeFunc resolves a call expression to its static callee, or nil
// for calls through function values, interface methods the checker
// cannot devirtualize, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func computeSummaries(m *Module) *Summaries {
	s := &Summaries{byFunc: make(map[*types.Func]*FuncSummary)}
	// Seed pass: one summary per declared function, annotation bits set.
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				nparams := funcSig(fn).Params().Len()
				fs := &FuncSummary{
					Fn:          fn,
					Decl:        fd,
					Pkg:         pkg,
					ConsumesErr: make([]bool, nparams),
					AcksParam:   make([]bool, nparams),
				}
				if fd.Doc != nil {
					doc := fd.Doc.Text()
					fs.Commits = strings.Contains(doc, "netmarkvet:commit")
					fs.Mutates = strings.Contains(doc, "netmarkvet:mutates")
					fs.ErrSink = strings.Contains(doc, "netmarkvet:errsink")
				}
				if fs.ErrSink {
					// Handing an error to a sink in any position handles it.
					for i := range fs.ConsumesErr {
						fs.ConsumesErr[i] = true
					}
				}
				s.byFunc[fn] = fs
			}
		}
	}
	// Fixed point.  Each pass re-derives the transitive bits from the
	// current table; the module call graph is shallow, so this settles
	// in a handful of passes (bounded hard in case of cycles).
	for pass := 0; pass < 12; pass++ {
		changed := false
		for _, fs := range s.byFunc {
			if updateSummary(fs, s) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return s
}

// updateSummary re-derives fs's transitive facts, reporting whether
// anything changed.
func updateSummary(fs *FuncSummary, s *Summaries) bool {
	info := fs.Pkg.Info
	changed := false
	set := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	// Propagate Commits / Mutates through calls.
	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := s.OfCall(info, call); callee != nil && callee != fs {
				set(&fs.Commits, callee.Commits)
				set(&fs.Mutates, callee.Mutates)
			}
		}
		return true
	})
	// DurableErr: has an error result and touches durability.
	if !fs.DurableErr && funcReturnsError(fs.Fn) {
		found := false
		ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if _, dur := DurabilityCall(info, call, s); dur {
					found = true
				}
			}
			return true
		})
		set(&fs.DurableErr, found)
	}
	// ConsumesErr per error-typed parameter.
	params := funcSig(fs.Fn).Params()
	for i := 0; i < params.Len(); i++ {
		if fs.ConsumesErr[i] || !isErrorType(params.At(i).Type()) {
			continue
		}
		if paramErrConsumed(fs.Pkg, fs.Decl, params.At(i), s) {
			fs.ConsumesErr[i] = true
			changed = true
		}
	}
	// AcksParam per writer parameter.
	for i := 0; i < params.Len(); i++ {
		if fs.AcksParam[i] || !isWriterType(params.At(i).Type()) {
			continue
		}
		if paramAcked(fs.Pkg, fs.Decl, params.At(i), s) {
			fs.AcksParam[i] = true
			changed = true
		}
	}
	return changed
}

// StdlibWriterArg reports the index of the writer argument a standard-
// library helper writes a response body through (io.WriteString,
// fmt.Fprintf, http.ServeContent...).
func StdlibWriterArg(fn *types.Func) (int, bool) {
	i, ok := stdlibWriterArg[stdlibFuncName(fn)]
	return i, ok
}

// StdlibNonAck reports whether fn writes a response that must not be
// treated as a success ack (http.Error and friends).
func StdlibNonAck(fn *types.Func) bool {
	return stdlibNonAck[stdlibFuncName(fn)]
}

// IsResponseWriter reports whether t is net/http.ResponseWriter.
func IsResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// Unparen strips parentheses.
func Unparen(e ast.Expr) ast.Expr { return unparen(e) }

// DurabilityCall reports whether call is a durability operation whose
// error result must not be dropped: os.Rename, any Sync/SyncTo/Commit/
// writeSnapshot method, any function whose name contains "sync"
// (writeFileSync, syncDir), or a module function summarized DurableErr.
// The returned name labels the diagnostic.
func DurabilityCall(info *types.Info, call *ast.CallExpr, s *Summaries) (string, bool) {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if !funcReturnsError(fn) {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && name == "Rename" {
		return "os.Rename", true
	}
	recv := funcSig(fn).Recv()
	switch name {
	case "Sync", "SyncTo", "Commit", "writeSnapshot":
		if recv != nil {
			return displayFuncName(fn), true
		}
	}
	if strings.Contains(strings.ToLower(name), "sync") {
		return displayFuncName(fn), true
	}
	if fs := s.Of(fn); fs != nil && fs.DurableErr {
		return displayFuncName(fn), true
	}
	return "", false
}

func displayFuncName(fn *types.Func) string {
	if recv := funcSig(fn).Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + star + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}

func funcReturnsError(fn *types.Func) bool {
	res := funcSig(fn).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isWriterType reports whether t is net/http.ResponseWriter or
// io.Writer — the parameter types through which a handler helper can
// ack a request.
func isWriterType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "net/http.ResponseWriter", "io.Writer":
		return true
	}
	return false
}

// stdlibWriterArg maps standard-library helpers to the index of the
// writer argument they write a response body through.
var stdlibWriterArg = map[string]int{
	"io.WriteString":        0,
	"io.Copy":               0,
	"fmt.Fprint":            0,
	"fmt.Fprintf":           0,
	"fmt.Fprintln":          0,
	"net/http.ServeContent": 0,
	"net/http.ServeFile":    0,
}

// stdlibNonAck lists standard-library helpers that write a response we
// must NOT treat as a success ack (they set an error/redirect status
// before writing).
var stdlibNonAck = map[string]bool{
	"net/http.Error":    true,
	"net/http.NotFound": true,
	"net/http.Redirect": true,
}

func stdlibFuncName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// ConstStatusCode evaluates e as a compile-time integer (http.StatusOK,
// a literal 204, ...), reporting ok=false for dynamic values.
func ConstStatusCode(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return int(v), true
}

// paramAcked reports whether fn writes a success response through the
// given writer parameter: a Write/WriteString on it, a 2xx WriteHeader,
// or passing it to a callee that acks.  A WriteHeader with a dynamic or
// non-2xx status anywhere disqualifies the function (http.Error-style
// helpers are not acks).
func paramAcked(pkg *Package, fn *ast.FuncDecl, param *types.Var, s *Summaries) bool {
	info := pkg.Info
	acks, disqualified := false, false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(id) == param {
				switch sel.Sel.Name {
				case "Write", "WriteString":
					acks = true
				case "WriteHeader":
					if len(call.Args) == 1 {
						if code, isConst := ConstStatusCode(info, call.Args[0]); isConst && code >= 200 && code < 300 {
							acks = true
						} else {
							disqualified = true
						}
					}
				}
			}
		}
		callee := CalleeFunc(info, call)
		for i, arg := range call.Args {
			id, ok := unparen(arg).(*ast.Ident)
			if !ok || info.ObjectOf(id) != param {
				continue
			}
			name := stdlibFuncName(callee)
			if stdlibNonAck[name] {
				disqualified = true
				continue
			}
			if idx, ok := stdlibWriterArg[name]; ok && i == idx {
				acks = true
			}
			if fs := s.Of(callee); fs != nil && i < len(fs.AcksParam) && fs.AcksParam[i] {
				acks = true
			}
		}
		return true
	})
	return acks && !disqualified
}

// funcSig returns fn's *types.Signature.  (The (*types.Func).Signature
// accessor needs go1.23; the module language version is go1.21.)
func funcSig(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}
