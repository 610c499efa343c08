// Package errflow checks that errors produced on durability paths are
// never silently dropped.  A WAL append/commit, an fsync, a rename, or
// a snapshot write that fails and is discarded leaves the process
// believing data is durable when it is not — the worst class of
// storage bug, invisible until a crash.  Every call classified as a
// durability operation (os.Rename, Sync/SyncTo/Commit/
// writeSnapshot methods, *sync* helpers, and any module function
// transitively returning such an error) must have its error reach the
// enclosing function's error return, an annotated netmarkvet:errsink,
// or another sanctioned escape (panic, storage into a field, a
// consuming callee).  `_ =`, a bare call statement, and a bare log are
// findings.
//
// Functions annotated netmarkvet:errsink are themselves exempt: they
// ARE the sanctioned sink (the daemon's quarantine logger), and their
// internal handling is by design log-and-count.
package errflow

import (
	"go/ast"
	"go/types"

	"netmark/internal/analysis"
)

// Analyzer is the errflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "durability-path errors must reach the error return or an annotated sink",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	summ := pass.Mod.Summaries()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fs := summ.Of(funcOf(pass, fd)); fs != nil && fs.ErrSink {
				continue // the annotated sink's own handling is exempt
			}
			checkFunc(pass, summ, fd)
		}
	}
	return nil
}

func funcOf(pass *analysis.Pass, fd *ast.FuncDecl) *types.Func {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

func checkFunc(pass *analysis.Pass, summ *analysis.Summaries, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, dur := analysis.DurabilityCall(pass.TypesInfo, call, summ)
		if !dur {
			return true
		}
		if analysis.ErrFate(pass.Loaded, fd, call, summ) == analysis.FateDropped {
			pass.Reportf(call.Pos(),
				"error from durability call %s is dropped in %s: it must reach the error return or a netmarkvet:errsink",
				name, analysis.FuncDisplayName(fd))
		}
		return true
	})
}
