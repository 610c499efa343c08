// Package hotalloc enforces the performance tier's core contract: a
// function tagged `netmarkvet:hotpath` — and every module function it
// transitively calls — must not perform hidden heap allocations or box
// concrete values into interfaces.  The repo's read paths (node-cache
// hits, posting-list iterator steps, FetchView row decodes, SGML
// serialization) earn their latency by staying allocation-free in steady
// state; one careless make, fmt call, or escaping closure silently
// re-adds a per-hit allocation that benchmarks only catch after the fact.
//
// What counts as a hidden allocation is decided by the inference in
// internal/analysis (FuncSummary.Allocs): make and map/slice literals,
// escaping &composites / new / capturing closures, string<->[]byte
// conversions, go statements, known-allocating stdlib calls, and
// fmt.*/errors.* off the error path, plus `append` past a provable
// pre-sized cap.
//
// Boxing (FuncSummary.Boxes) is the stealthiest allocation Go has: an
// innocent-looking call argument, assignment, return, map store, or
// channel send against an interface type heap-allocates a copy of the
// value — invisible in the source, visible in allocs/op.
// Pointer-shaped values (pointers, maps, chans, funcs) are exempt: they
// fit the interface data word without allocating.  Untyped nil and
// interface→interface conversions never box.
//
// Sites inside error-handling blocks are exempt, and `netmarkvet:allocok
// — <why>` (line or function doc) is the reasoned escape hatch; an
// allocok'd call also excuses the subtree behind it.
package hotalloc

import (
	"go/token"

	"netmark/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "reports hidden heap allocations and interface boxing in netmarkvet:hotpath functions and their module callees",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	summ := pass.Mod.Summaries()
	// Each site is reported once per kind, under the first root that
	// reaches it.
	allocs, boxes := make(map[token.Pos]bool), make(map[token.Pos]bool)
	report := func(reported map[token.Pos]bool, sites []analysis.AllocSite, format string, args ...any) {
		for _, site := range sites {
			if !reported[site.Pos] {
				reported[site.Pos] = true
				pass.Reportf(site.Pos, format, append(args, site.What)...)
			}
		}
	}
	for _, fs := range hotRoots(pass, summ) {
		root := analysis.DisplayName(fs.Fn)
		report(allocs, fs.Allocs, "hot path %s performs hidden allocation: %s", root)
		report(boxes, fs.Boxes, "hot path %s boxes: %s", root)
		walkHotCalls(summ, fs, make(map[*analysis.FuncSummary]bool), func(cs *analysis.FuncSummary) {
			callee := analysis.DisplayName(cs.Fn)
			report(allocs, cs.Allocs, "hidden allocation in %s, reached from hot path %s: %s", callee, root)
			report(boxes, cs.Boxes, "boxing in %s, reached from hot path %s: %s", callee, root)
		})
	}
	return nil
}

// hotRoots returns the hotpath-tagged functions declared in the
// package under analysis, in declaration order.
func hotRoots(pass *analysis.Pass, summ *analysis.Summaries) []*analysis.FuncSummary {
	var roots []*analysis.FuncSummary
	summ.Funcs(func(fs *analysis.FuncSummary) {
		if fs.HotPath && !fs.AllocOK && fs.Pkg == pass.Loaded {
			roots = append(roots, fs)
		}
	})
	sortSummaries(roots)
	return roots
}

func sortSummaries(roots []*analysis.FuncSummary) {
	for i := 1; i < len(roots); i++ {
		for j := i; j > 0 && roots[j].Decl.Pos() < roots[j-1].Decl.Pos(); j-- {
			roots[j], roots[j-1] = roots[j-1], roots[j]
		}
	}
}

// walkHotCalls closes over fs's statically resolved module calls,
// visiting each reached callee once.  Callees that are themselves
// hotpath roots are skipped (they report under their own name);
// allocok'd callees and severed (allocok'd call) edges are the escape
// hatch.
func walkHotCalls(summ *analysis.Summaries, fs *analysis.FuncSummary,
	seen map[*analysis.FuncSummary]bool, visit func(*analysis.FuncSummary)) {
	for _, edge := range fs.HotCalls {
		cs := summ.Of(edge.Callee)
		if cs == nil || cs.AllocOK || cs.HotPath || seen[cs] {
			continue
		}
		seen[cs] = true
		visit(cs)
		walkHotCalls(summ, cs, seen, visit)
	}
}
