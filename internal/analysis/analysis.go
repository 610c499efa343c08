// Package analysis is netmarkvet's in-tree static-analysis framework:
// a deliberately small mirror of the golang.org/x/tools/go/analysis API
// built on nothing but the standard library's go/ast and go/types, so
// the repo's invariant checkers need no external module.  An Analyzer
// receives one fully type-checked package per Run call and reports
// Diagnostics; cmd/netmarkvet drives every registered analyzer over
// every package in the module and fails the build on any finding.
//
// The analyzers communicate with the code they check through comment
// annotations (see CONTRIBUTING.md for the full convention):
//
//	// guarded by <mu>            on a struct field: every access must
//	//                            hold the sibling mutex field <mu>
//	//                            (lockcheck)
//	// netmarkvet:hot             on a mutex field: no blocking calls
//	//                            (I/O, channels, sleeps) while held
//	//                            (lockcheck)
//	// netmarkvet:lockorder <n>   on a mutex field: acquisition rank;
//	//                            locks must be taken in ascending rank
//	//                            (lockcheck)
//	// netmarkvet:cow             on a slice field published to readers
//	//                            copy-on-write: never mutated in place
//	// netmarkvet:mutator         on a function: may reassign cow fields
//	// netmarkvet:persistence     on its own line in a package doc:
//	//                            fsyncrename and vfsonly apply (all
//	//                            file I/O through internal/vfs)
//	// netmarkvet:ignore <names>  on a function: suppress the named
//	//                            analyzers inside it (document why!)
//	// netmarkvet:commit          on a function: makes prior writes
//	//                            durable (WAL sync/commit) — ackorder
//	//                            seed
//	// netmarkvet:mutates         on a function: mutates persistent
//	//                            store state — ackorder seed
//	// netmarkvet:errsink         on a function: passing an error to it
//	//                            counts as handling it (errflow)
//	// netmarkvet:snap            on a field: must be referenced by both
//	//                            snapshot encode and decode (snapcover)
//	// netmarkvet:snap-encode     on a function: snapshot encode root
//	// netmarkvet:snap-decode     on a function: snapshot decode root
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// netmarkvet:ignore annotations.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run checks one package, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Loaded is the package being analyzed; Mod is the module it was
	// loaded with.  The dataflow analyzers reach interprocedural
	// summaries through pass.Mod.Summaries().
	Loaded *Package
	Mod    *Module
	// Report records one finding.  Findings inside a function annotated
	// "netmarkvet:ignore <analyzer>" are dropped by the driver.
	Report func(d Diagnostic)
}

// Reportf is the fmt-style convenience wrapper over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.  Analyzer is filled in by
// RunAnalyzers; Message carries the "analyzer: " prefix after the run
// so existing consumers (analysistest, the text printer) need no
// change.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// RunAnalyzers applies every analyzer to pkg and returns the surviving
// diagnostics sorted by position.  Findings positioned inside a
// function whose doc comment carries "netmarkvet:ignore <name>" (or a
// bare "netmarkvet:ignore") are suppressed — the escape hatch for
// single-goroutine setup paths the intra-procedural passes cannot see.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzersTimed(pkg, analyzers, nil)
}

// RunAnalyzersTimed is RunAnalyzers with a per-analyzer duration
// callback (nil to skip timing) — the driver's -v accounting.
func RunAnalyzersTimed(pkg *Package, analyzers []*Analyzer, timed func(name string, d time.Duration)) ([]Diagnostic, error) {
	ignores := collectIgnores(pkg)
	mod := pkg.Mod
	if mod == nil {
		mod = singleton(pkg)
	}
	var out []Diagnostic
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Loaded:    pkg,
			Mod:       mod,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		err := a.Run(pass)
		if timed != nil {
			timed(a.Name, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			if !ignores.covers(a.Name, d.Pos) {
				out = append(out, Diagnostic{Pos: d.Pos, Message: a.Name + ": " + d.Message, Analyzer: a.Name})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// ignoreSpan is one function body covered by a netmarkvet:ignore.
type ignoreSpan struct {
	start, end token.Pos
	names      map[string]bool // nil = all analyzers
}

type ignoreSet []ignoreSpan

func (s ignoreSet) covers(analyzer string, pos token.Pos) bool {
	for _, sp := range s {
		if pos >= sp.start && pos <= sp.end && (sp.names == nil || sp.names[analyzer]) {
			return true
		}
	}
	return false
}

func collectIgnores(pkg *Package) ignoreSet {
	var out ignoreSet
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			names := parseIgnore(fd.Doc.Text())
			if names == nil {
				continue
			}
			sp := ignoreSpan{start: fd.Pos(), end: fd.End()}
			if len(names) > 0 {
				sp.names = make(map[string]bool, len(names))
				for _, n := range names {
					sp.names[n] = true
				}
			}
			out = append(out, sp)
		}
	}
	return out
}
