package load

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Options selects one run.
type Options struct {
	Workload string
	// Seed drives the traffic: draw order, upload order, delete targets,
	// writer schedule.
	Seed int64
	// Seconds is how long the measured phases last in total.
	Seconds float64
	// Conns is the number of load connections; the run refuses more
	// than nproc.
	Conns int
	// Netmarkd is the path of the netmarkd binary under test.
	Netmarkd string
	// WorkDir is where store and drop directories are made; it must be
	// on a real disk, since fsync cost is part of what is measured.
	WorkDir string
	// Scale shrinks the corpora for smoke tests; 1 is the benchmark.
	Scale float64
	// Repeats is how many cycles (set-up to verification) the run makes
	// and pools.  Zero means DefaultRepeats.
	Repeats int
	// Log receives the human-readable progress and report lines.
	Log io.Writer
}

// DefaultRepeats is how many cycles an end-to-end run makes.
const DefaultRepeats = 3

// Timing constants of the load loops.
const (
	pollEvery   = 20 * time.Millisecond  // control connection's /stats period during writes
	rampUp      = 300 * time.Millisecond // closed loop runs this long before the window opens
	visibleWait = 2 * time.Minute        // give up waiting for PUT documents to be ingested
	lateLimitMs = 20.0                   // generator lateness above this invalidates mixed_rw
	docSamples  = 64                     // GET /doc/{id} checks after the reopen
)

// Run performs one benchmark run: Repeats cycles, each a full set-up, the
// workload's measured phases against a live netmarkd, a clean shutdown,
// restarts on the closed store and verification of what it holds.  The
// cycles spread every metric's samples over the whole run.
func Run(o Options) (*Report, error) {
	w, err := Lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	if o.Conns > nproc {
		return nil, fmt.Errorf("%d connections on %d processors: the generator would measure the scheduler", o.Conns, nproc)
	}
	if o.Conns < 1 || (w.Concurrent && o.Conns < 2) {
		return nil, fmt.Errorf("workload %s needs more than %d connections", w.Name, o.Conns)
	}
	if nproc >= 2 {
		runtime.GOMAXPROCS(2)
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Repeats == 0 {
		o.Repeats = DefaultRepeats
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	rep := &Report{Env: CurrentEnv(o.WorkDir), Values: map[string]float64{}, Samples: map[string]int{}}
	rep.Env.Workload, rep.Env.Seed = w.Name, o.Seed

	// Each cycle gets its share of the run's seconds.
	co := o
	co.Seconds /= float64(o.Repeats)
	in := w.BuildInputs(o.Seed, o.Scale, co.Seconds)
	or, err := answers(w, &in, o.Scale)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var all cycle // every cycle's samples, pooled
	var last *cycle
	for i := 0; i < o.Repeats; i++ {
		c, err := runCycle(w, co, i, or)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i+1, err)
		}
		fmt.Fprintf(o.Log, "cycle %d: set-up %.3fs; %d preloaded, %d PUT, %d deleted, pool of %d; %d queries in window\n",
			i+1, c.setupS[0], len(c.in.Preload), len(c.in.Puts), len(c.deleteMs), len(c.in.Pool), len(c.latMs))
		all.merge(c)
		last = c
	}
	rep.Env.NetmarkdFlags = last.flags
	rep.Inputs = &last.in
	rep.InputHash = last.in.Hash(w, o.Seed, o.Conns)
	rep.Attempted, rep.Failed, rep.FirstErr = all.attempted, all.failed, all.firstErr
	rep.Invalid = all.invalid

	v, n := rep.Values, rep.Samples
	v["setup_s"], n["setup_s"] = all.setupS.Median(), len(all.setupS)
	v["query_p50_ms"], n["query_p50_ms"] = all.latMs.Median(), len(all.latMs)
	v["ingest_mb_per_s"] = per(all.putBytes/1e6, all.putS)
	v["delete_p50_ms"], n["delete_p50_ms"] = all.deleteMs.Median(), len(all.deleteMs)
	v["wal_bytes_per_user_byte"] = all.walRatio.Median()
	v["disk_bytes_per_user_byte"] = all.diskRatio.Median()
	v["reopen_s"], n["reopen_s"] = all.reopenS.Median(), len(all.reopenS)
	v["mem_mb"] = all.memMB.Median()

	// Per-layer, from outside.  Counters come from the last cycle; tails
	// and lags from every cycle's samples.
	for name, val := range last.layer {
		v[name] = val
	}
	v["query_qps"] = per(float64(len(all.latMs)), all.windowS)
	v["query_p99_ms"], n["query_p99_ms"] = all.latMs.Percentile(99), len(all.latMs)
	v["webdav.resp_bytes_p50"] = all.sizes.Median()
	v["daemon.visible_lag_p50_ms"], n["daemon.visible_lag_p50_ms"] = all.lagMs.Median(), len(all.lagMs)
	// A run's hundred-odd writer ticks leave ten beyond a p90; their p99
	// would be the one worst wake-up on a shared machine.
	late := all.lateMs.Percentile(90)
	v["gen.late_p90_ms"], n["gen.late_p90_ms"] = late, len(all.lateMs)
	if w.Concurrent {
		fmt.Fprintf(o.Log, "open-loop writer: %d ticks, %d started behind an overrunning tick, latest wake-up %.2f ms\n",
			o.Repeats*len(last.in.Gaps), all.overruns, all.lateMs.Percentile(100))
		// A smoke run has a handful of ticks and shares the machine with
		// other tests.
		if late > lateLimitMs && o.Scale >= 1 {
			rep.Invalid = append(rep.Invalid, fmt.Sprintf(
				"gen.late_p90_ms = %.2f on %s, want <= %v: the generator fell behind its schedule",
				late, w.Name, lateLimitMs))
		}
	}
	return rep, nil
}
