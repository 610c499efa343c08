// Package lockcheck enforces the three mutex rules netmarkvet's lock
// annotations declare, in one walk of each function body:
//
//  1. An access to a `// guarded by <mu>` struct field must hold the
//     named sibling mutex on the path into the access.  Reads require
//     the mutex in any mode; writes require it exclusively (a write
//     under RLock is a data race the race detector only finds when two
//     goroutines actually collide — this pass finds it on every CI
//     run).
//  2. No blocking operation — file or network I/O, fsync, channel
//     send/receive/select, time.Sleep, WaitGroup.Wait — while a
//     `netmarkvet:hot` mutex is held.  Hot locks sit on the serving
//     path; one fsync under a hot lock turns a microsecond critical
//     section into a multi-millisecond stall for every reader.
//  3. `netmarkvet:lockorder <n>` mutexes must be acquired in ascending
//     rank within a function; taking a lower rank while holding a
//     higher one is the shape of every lock-inversion deadlock.
//
// The check is intra-procedural.  Three escapes keep rule 1 quiet on
// legitimate code, all documented in CONTRIBUTING.md:
//
//   - functions that create the struct value themselves (constructors)
//     are exempt for accesses rooted at the fresh value;
//   - functions whose name ends in "Locked" assert that their caller
//     holds the lock (rules 2 and 3 still apply inside them);
//   - single-goroutine setup paths carry an explicit
//     `// netmarkvet:ignore lockcheck — <why>` annotation.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"netmark/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "reports accesses to `guarded by` fields without the guarding mutex held, blocking calls under hot locks and out-of-order lock acquisition",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	facts := analysis.CollectFacts(pass)
	if len(facts.Guards) == 0 && len(facts.Hot) == 0 && len(facts.Order) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// A …Locked function's caller holds the lock, so its guarded
			// accesses pass unchecked; its own acquisitions and blocking
			// calls do not.
			checkFunc(pass, facts, fn, !strings.HasSuffix(fn.Name.Name, "Locked"))
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, facts *analysis.Facts, fn *ast.FuncDecl, guards bool) {
	info := pass.TypesInfo
	local := analysis.LocalRoots(info, fn)
	writes := writeTargets(fn)
	walker := &analysis.LockWalker{
		Info: info,
		OnNode: func(n ast.Node, held analysis.Held) {
			if hot := hotHeld(facts, held); hot != nil {
				if what := blockingOp(info, n); what != "" {
					pass.Reportf(n.Pos(), "%s while holding hot lock %s in %s",
						what, hot.Name(), analysis.FuncDisplayName(fn))
				}
			}
			if guards {
				checkGuarded(pass, facts, fn, local, writes, n, held)
			}
		},
		OnLock: func(ev analysis.LockEvent, held analysis.Held) {
			rank, ranked := facts.Order[ev.Obj]
			if !ranked {
				return
			}
			for _, h := range held {
				hr, ok := facts.Order[h.Obj]
				if ok && hr > rank {
					pass.Reportf(ev.Call.Pos(),
						"%s (lockorder %d) acquired while holding %s (lockorder %d) in %s — documented order is ascending",
						ev.Obj.Name(), rank, h.Obj.Name(), hr, analysis.FuncDisplayName(fn))
				}
			}
		},
	}
	walker.Walk(fn.Body)
}

// checkGuarded reports n if it is an access to a `guarded by` field
// made without its mutex held (or, for a write, held only for reading).
func checkGuarded(pass *analysis.Pass, facts *analysis.Facts, fn *ast.FuncDecl,
	local map[types.Object]bool, writes map[*ast.SelectorExpr]bool, n ast.Node, held analysis.Held) {
	info := pass.TypesInfo
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fieldObj := info.ObjectOf(sel.Sel)
	if fieldObj == nil {
		return
	}
	muName, guarded := facts.Guards[fieldObj]
	if !guarded {
		return
	}
	if root := analysis.RootIdent(sel.X); root != nil {
		if obj := info.ObjectOf(root); obj != nil && local[obj] {
			return // value created in this function; not shared yet
		}
	}
	baseKey, ok := analysis.ExprKey(info, sel.X)
	if !ok {
		return // no stable path to name the mutex through
	}
	muKey := baseKey + "." + muName
	isWrite := writes[sel]
	switch {
	case !held.Holds(muKey):
		pass.Reportf(sel.Sel.Pos(), "%s of %s.%s without %s held (guarded by %s) in %s",
			accessWord(isWrite), exprString(sel.X), sel.Sel.Name, muName, muName,
			analysis.FuncDisplayName(fn))
	case isWrite && !held.HoldsWrite(muKey):
		pass.Reportf(sel.Sel.Pos(), "write to %s.%s with %s held only for reading in %s",
			exprString(sel.X), sel.Sel.Name, muName, analysis.FuncDisplayName(fn))
	}
}

func accessWord(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// writeTargets marks every selector that is assigned to, incremented,
// or has its address taken — the accesses that need the guard held
// exclusively.
func writeTargets(fn *ast.FuncDecl) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		// x.f = v marks x.f; x.f[i] = v and x.f.g = v mark the inner
		// selector too — mutating through the field still needs the
		// exclusive guard.
		for {
			switch v := e.(type) {
			case *ast.SelectorExpr:
				out[v] = true
				return
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.ParenExpr:
				e = v.X
			default:
				return
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(v.X)
		case *ast.UnaryExpr:
			if v.Op.String() == "&" {
				mark(v.X)
			}
		}
		return true
	})
	return out
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	}
	return "expr"
}

// hotHeld returns the annotation object of a hot mutex currently held.
func hotHeld(facts *analysis.Facts, held analysis.Held) types.Object {
	for _, h := range held {
		if h.Obj != nil && facts.Hot[h.Obj] {
			return h.Obj
		}
	}
	return nil
}

// blockingPackages are stdlib packages whose exported calls block on
// I/O.  Calls to same-module helpers are not classified (the pass is
// intra-procedural); annotate the helper's callers hot-free or ignore.
var blockingPackages = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"os/exec":  true,
}

// nonBlockingOSFuncs are os-package calls that only touch process
// state, not the filesystem.
var nonBlockingOSFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Getpid": true,
	"Getuid": true, "Geteuid": true, "Hostname": true, "Getwd": true,
	"IsNotExist": true, "IsExist": true, "IsPermission": true, "Expand": true,
	"ExpandEnv": true, "Getpagesize": true, "UserHomeDir": true,
}

// vfsPackage holds vfs.File and vfs.FS, the interfaces every persistence
// package does its file I/O through: each of their methods is a file
// operation, so each blocks as an *os.File method does.
const vfsPackage = "netmark/internal/vfs"

// blockingOp classifies a node as a blocking operation and names it.
func blockingOp(info *types.Info, n ast.Node) string {
	switch v := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // has a default: non-blocking
			}
		}
		return "select"
	case *ast.UnaryExpr:
		if v.Op.String() == "<-" {
			return "channel receive"
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel"
			}
		}
	case *ast.CallExpr:
		return blockingCall(info, v)
	}
	return ""
}

func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// Package-level calls: os.*, net.*, time.Sleep, ...
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
			path := pkg.Imported().Path()
			name := sel.Sel.Name
			if path == "time" && name == "Sleep" {
				return "time.Sleep"
			}
			if blockingPackages[path] && !(path == "os" && nonBlockingOSFuncs[name]) {
				return path + "." + name
			}
			return ""
		}
	}
	// Method calls on blocking receivers: (*os.File).Sync/Write/...,
	// vfs.File and vfs.FS methods, net.Conn methods, sync.WaitGroup.Wait.
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch {
	case obj.Pkg().Path() == "os" && obj.Name() == "File":
		return "(*os.File)." + sel.Sel.Name
	case obj.Pkg().Path() == vfsPackage && (obj.Name() == "File" || obj.Name() == "FS"):
		return "vfs." + obj.Name() + "." + sel.Sel.Name
	case obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" && sel.Sel.Name == "Wait":
		return "WaitGroup.Wait"
	case blockingPackages[obj.Pkg().Path()]:
		return obj.Pkg().Path() + "." + obj.Name() + "." + sel.Sel.Name
	}
	return ""
}
