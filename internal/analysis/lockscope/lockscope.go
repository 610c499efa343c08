// Package lockscope enforces two scope rules on annotated mutexes:
//
//  1. No blocking operation — file or network I/O, fsync, channel
//     send/receive/select, time.Sleep, WaitGroup.Wait — while a
//     `netmarkvet:hot` mutex is held.  Hot locks sit on the serving
//     path; one fsync under a hot lock turns a microsecond critical
//     section into a multi-millisecond stall for every reader.
//  2. `netmarkvet:lockorder <n>` mutexes must be acquired in ascending
//     rank within a function.  The repo's documented order is
//     ckptMu(10) → table mu(20) → derived-index mus(30) → WAL
//     mu(40); taking a lower rank while holding a higher one is the
//     shape of every lock-inversion deadlock.
package lockscope

import (
	"go/ast"
	"go/types"

	"netmark/internal/analysis"
)

// Analyzer is the lockscope pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "reports blocking calls under hot locks and out-of-order lock acquisition",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	facts := analysis.CollectFacts(pass)
	if len(facts.Hot) == 0 && len(facts.Order) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, facts, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, facts *analysis.Facts, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	walker := &analysis.LockWalker{
		Info: info,
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
		OnNode: func(n ast.Node, held analysis.Held) {
			hot := hotHeld(facts, held)
			if hot == nil {
				return
			}
			if what := blockingOp(info, n); what != "" {
				pass.Reportf(n.Pos(), "%s while holding hot lock %s in %s",
					what, hot.Name(), analysis.FuncDisplayName(fn))
			}
		},
	}
	walker.Walk(fn.Body)
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
	// net.Conn methods, sync.WaitGroup.Wait.
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
	case obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" && sel.Sel.Name == "Wait":
		return "WaitGroup.Wait"
	case blockingPackages[obj.Pkg().Path()]:
		return obj.Pkg().Path() + "." + obj.Name() + "." + sel.Sel.Name
	}
	return ""
}
