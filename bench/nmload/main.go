// Command nmload is the over-the-wire benchmark for netmarkd.  It
// builds a store through the public netmark API, starts the real
// netmarkd binary on it as a child process, drives it over loopback
// HTTP, verifies every response against an in-process oracle, and
// prints every end-to-end metric by name and unit.  The last line of
// standard output is the machine-readable result.
//
//	nmload -workload serve_cold -seed 7 -seconds 8
//	nmload -aa 5            # A/A: two sets of five runs of every workload
//
// The per-layer ladder is the separate traced run, cmd nmtrace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"netmark/bench/load"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nmload: ")
	var o load.Options
	load.Flags(&o)
	trace := flag.Int("trace", 0, "must be 0: the traced run is nmtrace")
	aa := flag.Int("aa", 0, "A/A mode: run two back-to-back sets of N runs of every workload and compare")
	describe := flag.Bool("describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *describe {
		out, err := load.Describe()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	if *trace != 0 {
		log.Fatal(fmt.Errorf("nmload measures end to end; run nmtrace for -trace 1"))
	}
	if err := load.Defaults(&o, "nmload"); err != nil {
		log.Fatal(err)
	}
	o.Log = os.Stdout

	if *aa > 0 {
		ok, err := load.AA(o, *aa, os.Stdout)
		os.RemoveAll(o.WorkDir)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(2)
		}
		return
	}
	rep, err := load.Run(o)
	os.RemoveAll(o.WorkDir)
	if err != nil {
		log.Fatal(err)
	}
	rep.Print(os.Stdout, load.EndToEnd, load.RunLayer)
	line, err := rep.ResultLine(load.EndToEnd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(line)
	if len(rep.Invalid) > 0 {
		os.Exit(2)
	}
}
