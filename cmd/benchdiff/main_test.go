package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// twoX is the default gate with allocs/op loosened to 2x, as
// -alloc-threshold 2 sets it: the bounds the tests below were written for.
var twoX = func() gate { g := defaultGate; g.allocs = 2; return g }()

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
	out, regressed := render(diff(base, slow, match, twoX), twoX)
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
	if out, regressed := render(diff(base, drift, match, twoX), twoX); regressed {
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
	rows := diff(base, cand, match, twoX)
	if len(rows) != 1 || rows[0].name != "BenchmarkColdContentSearch/optimized" {
		t.Fatalf("rows = %+v", rows)
	}
	if _, regressed := render(rows, twoX); regressed {
		t.Fatal("unmatched benchmarks gated the build")
	}
}

// TestFig6AndDeleteGated: every recording carries the Fig 6 kernels and
// the document delete, so the gate covers them: a 10 % rise in either's
// allocs/op fails.
func TestFig6AndDeleteGated(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	for _, name := range []string{"BenchmarkFig6ContextSearch/docs=1000", "BenchmarkFig6ContentSearch", "BenchmarkDeleteDocument"} {
		if !match.MatchString(name) {
			t.Fatalf("%s is not gated", name)
		}
		base := &Report{Benchmarks: []Benchmark{{Name: name + "-2", NsPerOp: 1e6, AllocsPerOp: 2967}}}
		cand := &Report{Benchmarks: []Benchmark{{Name: name + "-2", NsPerOp: 1e6, AllocsPerOp: 3264}}}
		if _, regressed := render(diff(base, cand, match, defaultGate), defaultGate); !regressed {
			t.Fatalf("a 10 %% allocs/op rise in %s passed", name)
		}
	}
}

// TestWriteDocumentGated: the streamed document write is gated beside
// Reconstruct, and its allocs/node, which counts work, fails on a 1 %
// rise as Reconstruct's does.
func TestWriteDocumentGated(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	if !match.MatchString("BenchmarkWriteDocument") {
		t.Fatal("BenchmarkWriteDocument is not gated")
	}
	bench := func(allocsPerNode float64) *Report {
		return &Report{Benchmarks: []Benchmark{{Name: "BenchmarkWriteDocument-2", NsPerOp: 8e7, AllocsPerOp: 19600,
			Metrics: map[string]float64{"ns/node": 330, "allocs/node": allocsPerNode}}}}
	}
	if out, regressed := render(diff(bench(0.0798), bench(0.0799), match, defaultGate), defaultGate); regressed {
		t.Fatalf("an unchanged allocs/node failed:\n%s", out)
	}
	out, regressed := render(diff(bench(0.0798), bench(0.0820), match, defaultGate), defaultGate)
	if !regressed || !strings.Contains(out, "allocs/node") {
		t.Fatalf("a 3 %% allocs/node rise in BenchmarkWriteDocument passed:\n%s", out)
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
	rows := diff(base, ci, match, twoX)
	if len(rows) != 2 {
		t.Fatalf("suffix-skewed names not paired: %+v", rows)
	}
	out, regressed := render(rows, twoX)
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
	}), match, twoX), twoX)
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
	out, regressed := render(diff(base, leaky, match, twoX), twoX)
	if !regressed {
		t.Fatalf("3x alloc regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "allocs/op  +200.0%  REGRESSED") || !strings.Contains(out, "BenchmarkServeParallel/hot/cached") {
		t.Fatalf("alloc regression not named:\n%s", out)
	}

	// Mild alloc drift passes.
	drift := reportWithAllocs(map[string][2]float64{
		"BenchmarkServeParallel/hot/cached-4": {50_000, 180},
		"BenchmarkReopen/snapshot/docs=8-4":   {2_000_000, 900},
	})
	if out, regressed := render(diff(base, drift, match, twoX), twoX); regressed {
		t.Fatalf("1.5x alloc drift wrongly flagged:\n%s", out)
	}

	// Baselines without allocs/op never alloc-gate (old recordings).
	noAllocBase := report(map[string]float64{
		"BenchmarkServeParallel/hot/cached-4": 50_000,
	})
	if out, regressed := render(diff(noAllocBase, leaky, match, twoX), twoX); regressed {
		t.Fatalf("alloc gate fired without a baseline:\n%s", out)
	}
}

func reportWith(name string, b Benchmark) *Report {
	b.Name, b.Runs = name, 10
	return &Report{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", Benchmarks: []Benchmark{b}}
}

// TestDefaultGateSeesDrift: under the default bounds a +5 % rise in
// allocs/op, +10 % in B/op or +1 % in a deterministic metric fails, and
// a smaller rise — or any rise in a metric not declared deterministic —
// passes.
func TestDefaultGateSeesDrift(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	const name = "BenchmarkIngestParallel/durable-2"
	base := Benchmark{NsPerOp: 26_000_000, BytesPerOp: 100_000, AllocsPerOp: 100,
		Metrics: map[string]float64{"wal-B/user-B": 1, "MB/s": 6.8, "hits": 10}}
	cases := []struct {
		what   string
		change func(*Benchmark)
		fails  bool
	}{
		{"allocs/op +5%", func(b *Benchmark) { b.AllocsPerOp = 105 }, true},
		{"allocs/op +4%", func(b *Benchmark) { b.AllocsPerOp = 104 }, false},
		{"B/op +10%", func(b *Benchmark) { b.BytesPerOp = 110_000 }, true},
		{"B/op +9%", func(b *Benchmark) { b.BytesPerOp = 109_000 }, false},
		{"wal-B/user-B +1%", func(b *Benchmark) { b.Metrics["wal-B/user-B"] = 1.01 }, true},
		{"wal-B/user-B +0.9%", func(b *Benchmark) { b.Metrics["wal-B/user-B"] = 1.009 }, false},
		{"MB/s and hits halved", func(b *Benchmark) { b.Metrics["MB/s"], b.Metrics["hits"] = 3.4, 5 }, false},
		{"ns/op +90%", func(b *Benchmark) { b.NsPerOp = 49_400_000 }, false},
	}
	for _, c := range cases {
		nb := base
		nb.Metrics = map[string]float64{}
		for k, v := range base.Metrics {
			nb.Metrics[k] = v
		}
		c.change(&nb)
		out, regressed := render(diff(reportWith(name, base), reportWith(name, nb), match, defaultGate), defaultGate)
		if regressed != c.fails {
			t.Errorf("%s: regressed = %v, want %v:\n%s", c.what, regressed, c.fails, out)
		}
	}
}

// TestLooseAllocsKeepsLooseBound: a benchmark whose allocs/op spread run
// to run is held to 2x on allocs/op and B/op, so mixed/cached's 121 ->
// 125 passes and a doubling still fails, while MixedWriteHeavy, which
// keeps a fixed store size, is held to +5 %.
func TestLooseAllocsKeepsLooseBound(t *testing.T) {
	match := regexp.MustCompile(defaultMatch)
	for _, c := range []struct {
		name        string
		old, allocs float64
		fails       bool
	}{
		{"BenchmarkServeParallel/mixed/cached-2", 121, 125, false},
		{"BenchmarkServeParallel/mixed/cached-2", 121, 242, true},
		{"BenchmarkMixedWriteHeavy-2", 48, 49, false},
		{"BenchmarkMixedWriteHeavy-2", 48, 51, true},
	} {
		base := Benchmark{NsPerOp: 35_000, BytesPerOp: 67_000, AllocsPerOp: c.old}
		nb := base
		nb.AllocsPerOp = c.allocs
		out, regressed := render(diff(reportWith(c.name, base), reportWith(c.name, nb), match, defaultGate), defaultGate)
		if regressed != c.fails {
			t.Errorf("%s %g -> %g allocs/op: regressed = %v, want %v:\n%s", c.name, c.old, c.allocs, regressed, c.fails, out)
		}
	}
}

// TestCommittedMachineSwapPasses: BENCH_PR35.json was recorded on a VM
// about 1.7x slower than BENCH_PR34.json.  Its allocs/op moved between
// -24 % and +2.2 % and no deterministic metric moved 1 %, so the tight
// bounds raise nothing on it.
func TestCommittedMachineSwapPasses(t *testing.T) {
	oldRep, err := readReport("../../BENCH_PR34.json")
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := readReport("../../BENCH_PR35.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := diff(oldRep, newRep, regexp.MustCompile(defaultMatch), defaultGate)
	if len(rows) == 0 {
		t.Fatal("no benchmark paired")
	}
	for _, r := range rows {
		for _, f := range r.findings {
			t.Errorf("%s: %s %g -> %g flagged", r.name, f.unit, f.old, f.new)
		}
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
