package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func report(ns map[string]float64) *Report {
	rep := &Report{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64"}
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Runs: 10, NsPerOp: v})
	}
	return rep
}

// TestInjectedSlowdownFails is the gate's proof of life: a 2x+ slowdown
// on a gated benchmark must fail, a mild one must not.
func TestInjectedSlowdownFails(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	base := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-4": 6_400_000,
		"BenchmarkServeParallel/hot/cached-4":    50_000,
		"BenchmarkReopen/snapshot/docs=8-4":      2_000_000,
	})

	// Injected 2.5x regression on the cold kernel.
	slow := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-4": 16_000_000,
		"BenchmarkServeParallel/hot/cached-4":    50_000,
		"BenchmarkReopen/snapshot/docs=8-4":      2_000_000,
	})
	out, regressed := render(diff(base, slow, match, 2.0, 2.0), 2.0)
	if !regressed {
		t.Fatalf("2.5x slowdown not flagged:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "BenchmarkColdContentSearch/optimized") {
		t.Fatalf("regression not named:\n%s", out)
	}

	// 1.5x drift stays under the 2x gate (hardware skew tolerance).
	drift := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-4": 9_600_000,
		"BenchmarkServeParallel/hot/cached-4":    75_000,
		"BenchmarkReopen/snapshot/docs=8-4":      2_000_000,
	})
	if out, regressed := render(diff(base, drift, match, 2.0, 2.0), 2.0); regressed {
		t.Fatalf("1.5x drift wrongly flagged:\n%s", out)
	}
}

// TestUnmatchedBenchmarksIgnored: benchmarks outside -match, or missing
// from either recording, never gate the build.
func TestUnmatchedBenchmarksIgnored(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	base := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-4":        6_400_000,
		"BenchmarkColdContentSearch/optimized-serial-4": 7_200_000, // gated but deleted since
	})
	cand := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-4": 6_400_000,
		"BenchmarkAdd-4":                         9_999_999_999, // not gated
		"BenchmarkReopen/scan/docs=32-4":         5_000_000,     // gated but no baseline
	})
	rows := diff(base, cand, match, 2.0, 2.0)
	if len(rows) != 1 || rows[0].name != "BenchmarkColdContentSearch/optimized" {
		t.Fatalf("rows = %+v", rows)
	}
	if _, regressed := render(rows, 2.0); regressed {
		t.Fatal("unmatched benchmarks gated the build")
	}
}

// TestGomaxprocsSuffixPairing: a baseline recorded on a 1-CPU machine
// has no "-N" suffix while a multi-core CI runner emits one; pairing
// must still match, or the gate never compares anything.
func TestGomaxprocsSuffixPairing(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	base := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-serial": 6_000_000, // 1-CPU recording
		"BenchmarkMixedWriteHeavy":                    80_000,
	})
	ci := report(map[string]float64{
		"BenchmarkColdContentSearch/optimized-serial-4": 19_000_000, // 4-vCPU runner, 3.2x
		"BenchmarkMixedWriteHeavy-4":                    90_000,
	})
	rows := diff(base, ci, match, 2.0, 2.0)
	if len(rows) != 2 {
		t.Fatalf("suffix-skewed names not paired: %+v", rows)
	}
	out, regressed := render(rows, 2.0)
	if !regressed || !strings.Contains(out, "BenchmarkColdContentSearch/optimized-serial") {
		t.Fatalf("regression lost across suffix skew:\n%s", out)
	}
}

// TestEmptyOverlap: disjoint recordings must FAIL the gate — an empty
// comparison proves nothing, and a benchmark rename has to arrive with
// a refreshed baseline rather than a silently green job.
func TestEmptyOverlap(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	out, regressed := render(diff(report(nil), report(map[string]float64{
		"BenchmarkReopen/snapshot/docs=8-4": 1,
	}), match, 2.0, 2.0), 2.0)
	if !regressed || !strings.Contains(out, "no comparable benchmarks") {
		t.Fatalf("empty overlap mishandled: %v %q", regressed, out)
	}
}

func reportWithAllocs(vals map[string][2]float64) *Report {
	rep := &Report{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64"}
	for name, v := range vals {
		rep.Benchmarks = append(rep.Benchmarks,
			Benchmark{Name: name, Runs: 10, NsPerOp: v[0], AllocsPerOp: v[1]})
	}
	return rep
}

// TestInjectedAllocRegressionFails: a benchmark whose time holds steady
// but whose allocs/op more than doubles must fail the gate — allocation
// regressions show up as GC pressure in production long before they
// show up as wall time on an idle CI runner.
func TestInjectedAllocRegressionFails(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	base := reportWithAllocs(map[string][2]float64{
		"BenchmarkServeParallel/hot/cached-4": {50_000, 120},
		"BenchmarkReopen/snapshot/docs=8-4":   {2_000_000, 900},
	})
	// Same speed, 3x the allocations on the serving path.
	leaky := reportWithAllocs(map[string][2]float64{
		"BenchmarkServeParallel/hot/cached-4": {50_000, 360},
		"BenchmarkReopen/snapshot/docs=8-4":   {2_000_000, 900},
	})
	out, regressed := render(diff(base, leaky, match, 2.0, 2.0), 2.0)
	if !regressed {
		t.Fatalf("3x alloc regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "ALLOCS REGRESSED") || !strings.Contains(out, "BenchmarkServeParallel/hot/cached") {
		t.Fatalf("alloc regression not named:\n%s", out)
	}

	// Mild alloc drift passes.
	drift := reportWithAllocs(map[string][2]float64{
		"BenchmarkServeParallel/hot/cached-4": {50_000, 180},
		"BenchmarkReopen/snapshot/docs=8-4":   {2_000_000, 900},
	})
	if out, regressed := render(diff(base, drift, match, 2.0, 2.0), 2.0); regressed {
		t.Fatalf("1.5x alloc drift wrongly flagged:\n%s", out)
	}

	// Baselines without allocs/op never alloc-gate (old recordings).
	noAllocBase := report(map[string]float64{
		"BenchmarkServeParallel/hot/cached-4": 50_000,
	})
	if out, regressed := render(diff(noAllocBase, leaky, match, 2.0, 2.0), 2.0); regressed {
		t.Fatalf("alloc gate fired without a baseline:\n%s", out)
	}
}

// TestRecordReproducesCommittedFile: -record turns a committed record's
// raw lines back into that record byte for byte, given its toolchain
// header, so recordings stay diffable across the tool's history.
func TestRecordReproducesCommittedFile(t *testing.T) {
	const path = "../../BENCH_PR36.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	in := "goos: linux\nPASS\n" + strings.Join(committed.Raw, "\n") + "\nok  \tnetmark\t1.0s\n"
	var out bytes.Buffer
	if err := record(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	rep.GoVersion, rep.GOOS, rep.GOARCH = committed.GoVersion, committed.GOOS, committed.GOARCH
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("-record of %s's raw lines differs from the file", path)
	}
}
