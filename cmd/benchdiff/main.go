// Command benchdiff records `go test -bench` output as JSON, and compares
// two recordings, failing (exit 1) when any benchmark present in both
// regressed beyond a threshold — the CI bench-regression gate.
//
// -record converts benchmark output on stdin into a JSON record on
// stdout, keeping the raw benchmark lines (the format benchstat parses)
// beside the parsed per-benchmark numbers, so perf trajectories can be
// committed and diffed across PRs:
//
//	go test -run xxx -bench . -benchmem . | go run ./cmd/benchdiff -record > BENCH.json
//
// Without it, benchdiff compares two such records:
//
//	go run ./cmd/benchdiff -old BENCH_PR4.json -new BENCH_CI.json -threshold 2
//
// Only benchmarks matching -match are compared, so one noisy
// micro-benchmark cannot veto a merge.  ns/op is gated loosely (2x):
// committed baselines come from whatever machine recorded them, so it
// catches algorithmic regressions, not hardware skew.  The numbers that
// repeated run to run on one 2-CPU box are gated tightly: a rise of 5 %
// in allocs/op (-alloc-threshold), 10 % in B/op or 1 % in a
// deterministic ReportMetric (deterministicMetrics) fails.  `make
// bench-json` records at -cpu 2, so baselines and CI share GOMAXPROCS;
// whether the counts repeat on other hardware is not verified.
// A benchmark whose allocs/op spread by more than 1 % run to run is
// listed in looseAllocs and keeps the 2x bound on allocs/op and B/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole recorded document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw holds the verbatim benchmark lines; feed them to benchstat.
	Raw []string `json:"raw"`
}

// parseLine parses one result line:
//
//	BenchmarkX/case-8   100   123 ns/op   9 hits   456 B/op   7 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// record reads benchmark output from r and writes its JSON record to w.
func record(r io.Reader, w io.Writer) error {
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		rep.Raw = append(rep.Raw, line)
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// readReport loads a report -record wrote.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// defaultMatch covers the serving / cold-kernel / reopen / ingest /
// reconstruct trajectory benchmarks recorded in every BENCH_PR*.json.
const defaultMatch = "BenchmarkServeParallel|BenchmarkColdContentSearch|BenchmarkMixedWriteHeavy|BenchmarkReopen|BenchmarkIngestParallel|BenchmarkReconstruct"

// deterministicMetrics are the ReportMetric units that count work —
// bytes and rows stored or logged per byte, document or node, log
// appends, allocations per node, index bytes — so they repeat run to
// run and are gated at gate.metric.  Every other unit (MB/s, ns/node,
// hits, misses, evictions) follows time or scheduling and is recorded,
// not gated.  Lower is better for each of them.
var deterministicMetrics = []string{
	"heap-B/user-B", "wal-B/user-B", "rows/doc", "wal-appends/doc", "wal-appends/op",
	"allocs/node", "alloc-B/user-B", "index-bytes", "wal-B/node",
}

// looseAllocs are the gated benchmarks whose allocs/op spread by more
// than 1 % across three -count=3 runs of one tree on one 2-CPU box; every
// other gated benchmark stays within 0.5 %.  ServeParallel/mixed/cached
// keeps a fixed store size, yet read 121–125; what moves it is not yet
// found.  Their allocs/op and B/op keep looseAllocsBound.
var looseAllocs = []string{"BenchmarkServeParallel/mixed/cached"}

// looseAllocsBound is the allocs/op and B/op bound of a looseAllocs
// benchmark.
const looseAllocsBound = 2.0

// gate holds the bounds, each a ratio new/old at or above which a
// matched benchmark fails.  -threshold and -alloc-threshold set ns and
// allocs; the B/op and metric bounds are fixed.
type gate struct {
	ns, allocs, bytes, metric float64
}

var defaultGate = gate{ns: 2, allocs: 1.05, bytes: 1.10, metric: 1.01}

// finding is one number that rose beyond its bound.
type finding struct {
	unit     string
	old, new float64
	bound    float64
}

type row struct {
	name      string
	oldNs     float64
	newNs     float64
	ratio     float64
	regressed bool // ns/op grew beyond the time bound

	// findings are allocs/op, B/op and deterministic metrics that grew
	// beyond their bounds.
	findings []finding
}

// gomaxprocsSuffix is the "-N" the benchmark framework appends to every
// name.  Baselines are recorded on whatever machine the developer had,
// so pairing must ignore it — a 1-CPU recording says
// "BenchmarkMixedWriteHeavy" where a 4-vCPU CI runner says
// "BenchmarkMixedWriteHeavy-4".
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalizeName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// diff pairs benchmarks by GOMAXPROCS-normalised name and flags every
// matched one whose ns/op, allocs/op, B/op or deterministic metrics grew
// beyond g's bounds.  A number is only compared when both recordings
// report it (benchmarks without ReportAllocs leave allocs/op and B/op
// zero).
func diff(oldRep, newRep *Report, match *regexp.Regexp, g gate) []row {
	old := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		old[normalizeName(b.Name)] = b
	}
	var rows []row
	for _, nb := range newRep.Benchmarks {
		name := normalizeName(nb.Name)
		if !match.MatchString(name) {
			continue
		}
		ob, ok := old[name]
		if !ok || ob.NsPerOp <= 0 || nb.NsPerOp <= 0 {
			continue
		}
		r := row{
			name:  name,
			oldNs: ob.NsPerOp,
			newNs: nb.NsPerOp,
			ratio: nb.NsPerOp / ob.NsPerOp,
		}
		r.regressed = r.ratio >= g.ns
		allocs, bytes := g.allocs, g.bytes
		if slices.Contains(looseAllocs, name) {
			allocs, bytes = looseAllocsBound, looseAllocsBound
		}
		check := func(unit string, old, new, bound float64) {
			if old > 0 && new > 0 && new/old >= bound {
				r.findings = append(r.findings, finding{unit, old, new, bound})
			}
		}
		check("allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, allocs)
		check("B/op", ob.BytesPerOp, nb.BytesPerOp, bytes)
		for _, unit := range deterministicMetrics {
			check(unit, ob.Metrics[unit], nb.Metrics[unit], g.metric)
		}
		rows = append(rows, r)
	}
	return rows
}

func render(rows []row, g gate) (string, bool) {
	var sb strings.Builder
	regressed := false
	if len(rows) == 0 {
		// An empty overlap proves nothing, which for a gate means FAIL:
		// a renamed benchmark must come with a refreshed baseline, not a
		// silently green job.
		sb.WriteString("benchdiff: no comparable benchmarks (name overlap empty) — refresh the baseline\n")
		return sb.String(), true
	}
	for _, r := range rows {
		verdict := "ok"
		if r.regressed {
			verdict = fmt.Sprintf("REGRESSED (>= %.2gx)", g.ns)
			regressed = true
		}
		fmt.Fprintf(&sb, "%-60s %14.0f -> %14.0f ns/op  %5.2fx  %s\n",
			r.name, r.oldNs, r.newNs, r.ratio, verdict)
		for _, f := range r.findings {
			fmt.Fprintf(&sb, "%-60s %14.6g -> %14.6g %s  %+.1f%%  REGRESSED (>= %+.0f%%)\n",
				r.name, f.old, f.new, f.unit, 100*(f.new/f.old-1), 100*(f.bound-1))
			regressed = true
		}
	}
	return sb.String(), regressed
}

func main() {
	rec := flag.Bool("record", false, "record `go test -bench` output on stdin as JSON on stdout")
	oldPath := flag.String("old", "", "baseline record (e.g. newest committed BENCH_PR*.json)")
	newPath := flag.String("new", "", "candidate record (e.g. BENCH_CI.json)")
	g := defaultGate
	flag.Float64Var(&g.ns, "threshold", g.ns, "fail when new ns/op reaches old times this factor")
	flag.Float64Var(&g.allocs, "alloc-threshold", g.allocs, "fail when new allocs/op reaches old times this factor")
	match := flag.String("match", defaultMatch, "regexp of benchmark names to gate")
	flag.Parse()
	if *rec {
		if err := record(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -record < bench.txt > NEW.json | benchdiff -old OLD.json -new NEW.json [-threshold 2] [-alloc-threshold 1.05] [-match regexp]")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: bad -match:", err)
		os.Exit(2)
	}
	oldRep, err := readReport(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	out, regressed := render(diff(oldRep, newRep, re, g), g)
	fmt.Printf("benchdiff: %s (%s/%s) vs %s (%s/%s), bounds ns/op %.3gx, allocs/op %.3gx, B/op %.3gx, metrics %.3gx\n",
		*oldPath, oldRep.GOOS, oldRep.GoVersion, *newPath, newRep.GOOS, newRep.GoVersion, g.ns, g.allocs, g.bytes, g.metric)
	fmt.Print(out)
	if regressed {
		fmt.Println("benchdiff: FAIL — performance regression detected")
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}
