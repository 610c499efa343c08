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
// ns/op and allocs/op are compared, and only for benchmarks matching
// -match, so one noisy micro-benchmark cannot veto a merge.  Both
// thresholds are deliberately loose: committed baselines come from
// whatever machine recorded them, so the gate catches algorithmic
// regressions (2x and worse), not hardware skew.  Allocs/op barely
// varies across machines, but benchmarks whose op counts depend on
// cache hit rates still drift with CPU count, so the same 2x default
// applies.
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

type row struct {
	name      string
	oldNs     float64
	newNs     float64
	ratio     float64
	regressed bool // ns/op grew beyond the time threshold

	oldAllocs      float64
	newAllocs      float64
	allocRatio     float64 // 0 when either recording lacks allocs/op
	allocRegressed bool    // allocs/op grew beyond the alloc threshold
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
// matched one whose ns/op grew by more than threshold or whose
// allocs/op grew by more than allocThreshold.  Allocations are only
// compared when both recordings report them (benchmarks without
// ReportAllocs leave the field zero).
func diff(oldRep, newRep *Report, match *regexp.Regexp, threshold, allocThreshold float64) []row {
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
		r.regressed = r.ratio > threshold
		if ob.AllocsPerOp > 0 && nb.AllocsPerOp > 0 {
			r.oldAllocs = ob.AllocsPerOp
			r.newAllocs = nb.AllocsPerOp
			r.allocRatio = nb.AllocsPerOp / ob.AllocsPerOp
			r.allocRegressed = r.allocRatio > allocThreshold
		}
		rows = append(rows, r)
	}
	return rows
}

func render(rows []row, threshold float64) (string, bool) {
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
			verdict = fmt.Sprintf("REGRESSED (> %.2gx)", threshold)
			regressed = true
		}
		fmt.Fprintf(&sb, "%-60s %14.0f -> %14.0f ns/op  %5.2fx  %s\n",
			r.name, r.oldNs, r.newNs, r.ratio, verdict)
		if r.allocRegressed {
			fmt.Fprintf(&sb, "%-60s %14.0f -> %14.0f allocs/op  %5.2fx  ALLOCS REGRESSED\n",
				r.name, r.oldAllocs, r.newAllocs, r.allocRatio)
			regressed = true
		}
	}
	return sb.String(), regressed
}

func main() {
	rec := flag.Bool("record", false, "record `go test -bench` output on stdin as JSON on stdout")
	oldPath := flag.String("old", "", "baseline record (e.g. newest committed BENCH_PR*.json)")
	newPath := flag.String("new", "", "candidate record (e.g. BENCH_CI.json)")
	threshold := flag.Float64("threshold", 2.0, "fail when new ns/op exceeds old by more than this factor")
	allocThreshold := flag.Float64("alloc-threshold", 2.0, "fail when new allocs/op exceeds old by more than this factor")
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
		fmt.Fprintln(os.Stderr, "usage: benchdiff -record < bench.txt > NEW.json | benchdiff -old OLD.json -new NEW.json [-threshold 2] [-match regexp]")
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
	out, regressed := render(diff(oldRep, newRep, re, *threshold, *allocThreshold), *threshold)
	fmt.Printf("benchdiff: %s (%s/%s) vs %s (%s/%s), threshold %.2gx\n",
		*oldPath, oldRep.GOOS, oldRep.GoVersion, *newPath, newRep.GOOS, newRep.GoVersion, *threshold)
	fmt.Print(out)
	if regressed {
		fmt.Println("benchdiff: FAIL — performance regression detected")
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}
