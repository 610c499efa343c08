// Command netmarkvet is the repo's analyzer suite: it type-checks
// every package in the module once and runs the seven
// netmark-specific passes (lockcheck, fsyncrename, vfsonly, cowview,
// errflow, ackorder, snapcover) that encode our concurrency,
// crash-safety, durability-ordering, fault-injectability and
// snapshot-coverage invariants.  Invariants a test already proves —
// zero-allocation hot paths, cache generation bumps, atomics — are left
// to those tests (see CONTRIBUTING.md).  See internal/analysis for the
// annotation convention and CONTRIBUTING.md for the invariants
// themselves.
//
// Usage:
//
//	netmarkvet [-list] [-json] [-v] [-baseline file] [dir ...]
//
// With no arguments it analyzes every package under the current
// module.  Diagnostics are deterministic — sorted by file, line,
// column, analyzer — with paths relative to the module root, and
// findings reported by several analyzers at the same position are
// merged into one line carrying the analyzer list.  Text goes
// compiler-style to stderr; -json mirrors the findings as a JSON
// array on stdout for editors and CI annotations.  -v reports
// per-analyzer wall time.
//
// -baseline compares findings against a committed JSON baseline
// (ANALYZE_BASELINE.json): findings present in the baseline are
// reported but grandfathered — only *new* findings fail the run, so
// CI stays red on regressions while a known finding is worked off.
// Baseline entries that no longer fire are reported so the file can
// be pruned.
//
// Exit status is 1 if any (non-grandfathered) diagnostic is reported,
// 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"netmark/internal/analysis"
	"netmark/internal/analysis/ackorder"
	"netmark/internal/analysis/cowview"
	"netmark/internal/analysis/errflow"
	"netmark/internal/analysis/fsyncrename"
	"netmark/internal/analysis/lockcheck"
	"netmark/internal/analysis/snapcover"
	"netmark/internal/analysis/vfsonly"
)

var analyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	fsyncrename.Analyzer,
	vfsonly.Analyzer,
	cowview.Analyzer,
	errflow.Analyzer,
	ackorder.Analyzer,
	snapcover.Analyzer,
}

// finding is the -json wire form of one diagnostic.  After dedupe,
// Analyzer may carry a comma-joined list and Message the matching
// "; "-joined messages.  Baselined marks findings grandfathered by
// -baseline.
type finding struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Column    int    `json:"column"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined,omitempty"`
}

// dedupe merges findings reported by multiple analyzers at the same
// file:line:col into one entry, joining the analyzer names with ","
// and the messages with "; " in analyzer order.  Input must already
// be sorted by file, line, column, analyzer, message.
func dedupe(findings []finding) []finding {
	out := findings[:0]
	for _, f := range findings {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.File == f.File && prev.Line == f.Line && prev.Column == f.Column {
				prev.Analyzer += "," + f.Analyzer
				prev.Message += "; " + f.Message
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// baselineKey identifies a finding across line drift: unrelated edits
// move line numbers, so the baseline matches on file, analyzer list,
// and message only.
func baselineKey(f finding) string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

// applyBaseline marks findings present in the baseline file as
// grandfathered and returns the number of fresh (non-baselined)
// findings plus the baseline entries that no longer fire.
func applyBaseline(findings []finding, baseline []finding) (fresh int, stale []finding) {
	known := make(map[string]int)
	for _, b := range baseline {
		known[baselineKey(b)]++
	}
	for i := range findings {
		k := baselineKey(findings[i])
		if known[k] > 0 {
			known[k]--
			findings[i].Baselined = true
		} else {
			fresh++
		}
	}
	for _, b := range baseline {
		if known[baselineKey(b)] > 0 {
			known[baselineKey(b)]--
			stale = append(stale, b)
		}
	}
	return fresh, stale
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "write findings as JSON to stdout (text still goes to stderr)")
	verbose := flag.Bool("v", false, "report per-analyzer wall time")
	baselinePath := flag.String("baseline", "", "JSON findings baseline; only findings not in it fail the run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: netmarkvet [-list] [-json] [-v] [-baseline file] [dir ...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dirs := flag.Args()
	rootFrom := "."
	if len(dirs) > 0 {
		rootFrom = dirs[0]
	}
	root, err := moduleRoot(rootFrom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netmarkvet:", err)
		os.Exit(2)
	}
	if len(dirs) == 0 {
		dirs, err = packageDirs(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netmarkvet:", err)
			os.Exit(2)
		}
	}

	loader, err := analysis.NewLoader(dirs[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "netmarkvet:", err)
		os.Exit(2)
	}
	loadStart := time.Now()
	// One load for the whole module: every package is parsed and
	// type-checked exactly once and shared by every analyzer (and
	// by the interprocedural summaries, which need cross-package
	// bodies).
	mod, err := loader.LoadModule(dirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netmarkvet: %v\n", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)

	var diags []analysis.Diagnostic
	times := make(map[string]time.Duration)
	loadErrs := 0
	for _, pkg := range mod.Packages {
		ds, err := analysis.RunAnalyzersTimed(pkg, analyzers, func(name string, d time.Duration) {
			times[name] += d
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "netmarkvet: %s: %v\n", pkg.Dir, err)
			loadErrs++
			continue
		}
		diags = append(diags, ds...)
	}

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		file := pos.Filename
		// Module-relative paths: stable across checkouts, so the
		// committed baseline and CI artifacts stay comparable.
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, finding{
			File:     file,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  strings.TrimPrefix(d.Message, d.Analyzer+": "),
		})
	}
	// Deterministic output across packages: file, line, column,
	// analyzer, message.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	findings = dedupe(findings)

	fresh := len(findings)
	var stale []finding
	if *baselinePath != "" {
		baseline, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netmarkvet:", err)
			os.Exit(2)
		}
		fresh, stale = applyBaseline(findings, baseline)
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "netmarkvet: loaded %d packages in %v\n", len(mod.Packages), loadTime.Round(time.Millisecond))
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "netmarkvet: %-12s %8v\n", a.Name, times[a.Name].Round(time.Millisecond))
		}
	}
	// Compiler-style text on stderr so CI logs and humans see findings
	// even when stdout carries JSON.
	for _, f := range findings {
		suffix := ""
		if f.Baselined {
			suffix = " (baselined)"
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s%s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message, suffix)
	}
	for _, b := range stale {
		fmt.Fprintf(os.Stderr, "netmarkvet: baseline entry no longer fires (prune it): %s: %s: %s\n", b.File, b.Analyzer, b.Message)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "netmarkvet:", err)
			os.Exit(2)
		}
	}
	switch {
	case loadErrs > 0:
		os.Exit(2)
	case fresh > 0:
		fmt.Fprintf(os.Stderr, "netmarkvet: %d finding(s)\n", fresh)
		os.Exit(1)
	case len(findings) > 0:
		fmt.Fprintf(os.Stderr, "netmarkvet: %d baselined finding(s), none new\n", len(findings))
	}
}

// loadBaseline reads a JSON findings array written by a previous
// `netmarkvet -json` run (an empty array is a clean baseline).
func loadBaseline(path string) ([]finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var out []finding
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return out, nil
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
	}
}

// packageDirs lists every directory under root holding non-test .go
// files, skipping testdata, vendor, and dot directories.
func packageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
