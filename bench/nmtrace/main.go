// Command nmtrace is the benchmark's traced run: the per-layer ladder.
// It first makes an ordinary, untraced run against a netmarkd child (for
// the /stats-derived layer metrics and the untraced latency), then
// re-hosts the same stack in this process and times calls into each
// layer's public functions from the benchmark's own files.  No product
// code is instrumented.  The last line of standard output carries every
// per-layer metric.
//
//	nmtrace -workload serve_cold -seed 7 -seconds 8 -trace 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"netmark/bench/load"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nmtrace: ")
	var o load.Options
	load.Flags(&o)
	flag.Int("trace", 1, "accepted for symmetry with nmload; this command is the traced run")
	flag.Parse()
	workRoot := o.WorkDir
	if err := load.Defaults(&o, "nmtrace"); err != nil {
		log.Fatal(err)
	}
	if workRoot == "" {
		workRoot = filepath.Dir(o.WorkDir)
	}
	o.Log = os.Stdout
	o.Repeats = 1 // set-up and reopen times are end-to-end metrics; not reported here

	rep, err := run(o, filepath.Join(workRoot, fmt.Sprintf("spans-%s-%d.jsonl", o.Workload, o.Seed)))
	os.RemoveAll(o.WorkDir)
	if err != nil {
		log.Fatal(err)
	}
	rep.Print(os.Stdout, load.PerLayer())
	line, err := rep.ResultLine(load.PerLayer())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(line)
	if len(rep.Invalid) > 0 {
		os.Exit(2)
	}
}

// run makes the untraced run, then the traced one on the same inputs.
func run(o load.Options, spans string) (*load.Report, error) {
	rep, err := load.Run(o)
	if err != nil {
		return nil, err
	}
	w, err := load.Lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	if err := trace(o, w, rep.Inputs, spans, rep.Values); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	fmt.Fprintf(o.Log, "spans written to %s\n", spans)
	v := rep.Values
	// Traced over untraced median latency, both through HTTP with the
	// workload's own cache setting.  It is far from 1 by construction
	// (the traced server shares this process and replays one query at a
	// time), which is the point: no end-to-end number comes from here.
	v["overhead.tracing_x"] = v["ladder.as_run_rtt_p50_us"] / 1000 / v["query_p50_ms"]
	return rep, nil
}
