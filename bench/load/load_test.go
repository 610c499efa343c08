package load

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netmark"
)

func TestPercentiles(t *testing.T) {
	s := Samples{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {99, 5}, {100, 5}, {1, 1}} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (Samples{}).Median(); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if s[0] != 5 {
		t.Error("Percentile reordered its receiver")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 100], n=4)
	// -> [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
	q1, q2, q3 = Quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("Quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tnetmarkd\nVmPeak:\t 1234567 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	got, err := ParseVmHWM(strings.NewReader(status))
	if err != nil || got != 200 {
		t.Errorf("ParseVmHWM = %v, %v; want 200 MiB", got, err)
	}
	if _, err := ParseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("no VmHWM line accepted")
	}
}

func TestStatsParsingAndDelta(t *testing.T) {
	const a = `{"documents": 10, "nodes": 300, "docs_ingested": 10,
		"wal": {"appends": 100, "syncs": 2}, "pool": {"hits": 50, "misses": 5, "evictions": 0},
		"cache": {"enabled": true, "hits": 0, "misses": 4, "stale": 0, "bytes": 10},
		"node_cache": {"hits": 10, "misses": 10, "evictions": 0, "bytes": 99},
		"textindex": {"dead_ids": 1, "bytes": 1000, "compression_ratio": 3.5},
		"snapshot": {"loaded": true}}`
	const b = `{"documents": 14, "nodes": 420, "docs_ingested": 14,
		"wal": {"appends": 420, "syncs": 4}, "pool": {"hits": 150, "misses": 5, "evictions": 0},
		"cache": {"enabled": true, "hits": 99, "misses": 5, "stale": 1, "bytes": 20},
		"node_cache": {"hits": 40, "misses": 20, "evictions": 7, "bytes": 199},
		"textindex": {"dead_ids": 3, "bytes": 2000, "compression_ratio": 3.25},
		"snapshot": {"loaded": true}}`
	sa, err := ParseServerStats(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseServerStats(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if sb.Documents != 14 || sb.DocsIngested != 14 || !sb.Snapshot.Loaded || sb.WAL.Appends != 420 {
		t.Errorf("parsed %+v", sb)
	}
	d := StatsDelta(sa, sb)
	for name, want := range map[string]float64{
		"xdb.cache_hit_ratio":          0.99,
		"xdb.cache_stale":              1,
		"xdb.cache_bytes":              20,
		"xmlstore.nodecache_hit_ratio": 0.75,
		"xmlstore.nodecache_evictions": 7,
		"ordbms.pool_misses":           0,
		"ordbms.pool_hit_ratio":        1,
		"ordbms.wal_syncs":             2,
		"ordbms.wal_appends_per_doc":   80,
		"ordbms.wal_appends_per_sync":  160,
		"textindex.dead_ids":           3,
		"textindex.compression_ratio":  3.25,
	} {
		if got := d[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseServerStats(strings.NewReader("<html>")); err == nil {
		t.Error("non-JSON /stats accepted")
	}
}

// TestPacerDueTimes drives the open-loop pacer with a fake clock: due
// times advance by the schedule alone, a tick that overruns makes the
// next one late without a sleep, and the schedule catches up afterwards.
func TestPacerDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	var slept []time.Duration
	p := NewPacer(t0, []float64{0.1, 0.1, 0.1, 0.1})
	p.now = func() time.Time { return now }
	p.sleep = func(d time.Duration) { slept = append(slept, d); now = now.Add(d + time.Millisecond) }

	// Tick 1: generator idle, wakes 1 ms late.
	due, late, idle, ok := p.Next()
	if !ok || !idle || !due.Equal(t0.Add(100*time.Millisecond)) || late != time.Millisecond {
		t.Fatalf("tick 1: due %v late %v idle %v", due.Sub(t0), late, idle)
	}
	// Its work takes 250 ms: ticks 2 and 3 are already past due.
	now = now.Add(250 * time.Millisecond)
	due, late, idle, _ = p.Next()
	if idle || !due.Equal(t0.Add(200*time.Millisecond)) || late != 151*time.Millisecond {
		t.Fatalf("tick 2: due %v late %v idle %v", due.Sub(t0), late, idle)
	}
	due, late, idle, _ = p.Next()
	if idle || !due.Equal(t0.Add(300*time.Millisecond)) || late != 51*time.Millisecond {
		t.Fatalf("tick 3: due %v late %v idle %v", due.Sub(t0), late, idle)
	}
	// Tick 4 is in the future again: the pacer sleeps the remainder.
	due, late, idle, _ = p.Next()
	if !idle || !due.Equal(t0.Add(400*time.Millisecond)) || late != time.Millisecond {
		t.Fatalf("tick 4: due %v late %v idle %v", due.Sub(t0), late, idle)
	}
	if len(slept) != 2 || slept[0] != 100*time.Millisecond || slept[1] != 49*time.Millisecond {
		t.Errorf("slept %v, want [100ms 49ms]", slept)
	}
	if _, _, _, ok := p.Next(); ok {
		t.Error("schedule did not end")
	}
}

func TestScheduleIsNormalised(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		gaps := Schedule(seed, 8, 0.2)
		var sum float64
		for _, g := range gaps {
			sum += g
			if g <= 0 {
				t.Errorf("seed %d: gap %v", seed, g)
			}
		}
		if len(gaps) != 40 || math.Abs(sum-8) > 1e-9 {
			t.Errorf("seed %d: %d gaps summing to %v, want 40 summing to 8", seed, len(gaps), sum)
		}
	}
}

func TestLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	seen := []obs{{at(0), 10}, {at(100), 10}, {at(200), 12}, {at(300), 13}, {at(600), 313}}
	// Base 10: acks at 50, 60 and 250 ms are first counted by the
	// readings at 200, 200 and 300 ms.
	got := lags([]time.Time{at(250), at(50), at(60)}, seen, 10)
	if len(got) != 3 || got[0] != 150 || got[1] != 140 || got[2] != 50 {
		t.Errorf("lags = %v, want [150 140 50]", got)
	}
}

func TestCheckBody(t *testing.T) {
	q := &PoolQuery{Raw: "content=x", Marker: "<result ", Want: 2}
	good := "<results count=\"2\">\n  <result doc=\"a\"/>\n  <result doc=\"b\"/>\n</results>\n"
	if err := CheckBody([]byte(good), q); err != nil {
		t.Errorf("good body rejected: %v", err)
	}
	for name, body := range map[string]string{
		"one item short": "<results count=\"2\">\n  <result doc=\"a\"/>\n</results>\n",
		"wrong count":    "<results count=\"3\">\n  <result doc=\"a\"/>\n  <result doc=\"b\"/>\n</results>\n",
		"truncated":      "<results count=\"2\">\n  <result doc=\"a\"/>\n  <result doc=\"b\"/>\n",
	} {
		if CheckBody([]byte(body), q) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	pinned := *q
	pinned.CRC = 1
	if CheckBody([]byte(good), &pinned) == nil {
		t.Error("body with the wrong CRC accepted")
	}
}

// inputs builds a small workload's inputs and oracle in-process.
func inputs(t *testing.T, name string, seed int64) (*Workload, Inputs) {
	t.Helper()
	w, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	in := w.BuildInputs(seed, 0.02, 1)
	or, err := answers(w, &in, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	in.Pool = or.pool
	return w, in
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range Workloads {
		_, a := inputs(t, w.Name, 7)
		_, b := inputs(t, w.Name, 7)
		_, c := inputs(t, w.Name, 8)
		ha, hb, hc := a.Hash(w, 7, 2), b.Hash(w, 7, 2), c.Hash(w, 8, 2)
		if ha != hb {
			t.Errorf("%s: seed 7 hashed to %x then %x", w.Name, ha, hb)
		}
		if ha == hc {
			t.Errorf("%s: seeds 7 and 8 both hash to %x", w.Name, ha)
		}
		if len(a.Pool) < 8 || len(a.Pool) > w.PoolSize {
			t.Errorf("%s: pool of %d, want 8 to %d", w.Name, len(a.Pool), w.PoolSize)
		}
	}
}

// TestOracleAgainstBruteForce checks the in-process oracle the pool
// trusts: for sixteen single terms, the documents a content query
// returns are the documents whose bytes hold the term as a word.
func TestOracleAgainstBruteForce(t *testing.T) {
	w, _ := Lookup("serve_cold")
	docs, _ := w.BuildDocs(0.2, 1)
	nm, err := netmark.Open(netmark.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	if _, err := ingestAll(nm, docs); err != nil {
		t.Fatal(err)
	}
	terms, _ := vocabulary(docs)
	checked := 0
	for _, term := range terms {
		if checked == 16 {
			break
		}
		markup := false
		want := 0
		for _, d := range docs {
			if strings.Contains(string(d.Data), "<"+term) {
				markup = true
			}
			hit := false
			words(d.Data, func(word string, _ bool) {
				if word == term {
					hit = true
				}
			})
			if hit {
				want++
			}
		}
		if markup {
			continue // an element name, not text
		}
		res, err := nm.Query("content=" + term + "&scope=document")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Errorf("content=%s: oracle finds %d documents, brute force %d", term, res.Len(), want)
		}
		checked++
	}
	if checked < 16 {
		t.Errorf("only %d terms checked", checked)
	}
}

// TestBenchmarkJSONInSync compares the file at the repository root with
// what the tables in this package say.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := Describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -describe > BENCHMARK.json`")
	}
	for _, w := range Workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

var netmarkd string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nmload-test")
	if err != nil {
		panic(err)
	}
	netmarkd = filepath.Join(dir, "netmarkd")
	out, err := exec.Command("go", "build", "-o", netmarkd, "netmark/cmd/netmarkd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build netmarkd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeAllWorkloads runs every workload end to end against a real
// netmarkd at one fiftieth of the size with a one-second phase.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := Run(Options{
				Workload: w.Name, Seed: 5, Seconds: 1, Conns: 2, Scale: 0.02, Repeats: 1,
				Netmarkd: netmarkd, WorkDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || len(rep.Invalid) != 0 {
				t.Errorf("failed=%d (%v) invalid=%v", rep.Failed, rep.FirstErr, rep.Invalid)
			}
			if rep.Attempted < 100 {
				t.Errorf("only %d operations attempted", rep.Attempted)
			}
			// The gated metrics and the demoted ones, which head RunLayer.
			for _, m := range append(append([]Metric(nil), EndToEnd...), RunLayer[:7]...) {
				if v, ok := rep.Values[m.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v", m.Name, v)
				}
			}
			if _, err := rep.ResultLine(EndToEnd); err != nil {
				t.Error(err)
			}
		})
	}
}
