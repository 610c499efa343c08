package main

import (
	"reflect"
	"testing"
)

func TestDedupeMergesSamePosition(t *testing.T) {
	in := []finding{
		{File: "a.go", Line: 3, Column: 2, Analyzer: "ackorder", Message: "ack before commit"},
		{File: "a.go", Line: 3, Column: 2, Analyzer: "errflow", Message: "error dropped"},
		{File: "a.go", Line: 9, Column: 1, Analyzer: "errflow", Message: "error dropped"},
		{File: "b.go", Line: 3, Column: 2, Analyzer: "lockcheck", Message: "not held"},
	}
	got := dedupe(in)
	want := []finding{
		{File: "a.go", Line: 3, Column: 2, Analyzer: "ackorder,errflow", Message: "ack before commit; error dropped"},
		{File: "a.go", Line: 9, Column: 1, Analyzer: "errflow", Message: "error dropped"},
		{File: "b.go", Line: 3, Column: 2, Analyzer: "lockcheck", Message: "not held"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupe:\n got %+v\nwant %+v", got, want)
	}
}

func TestDedupeKeepsDistinctPositions(t *testing.T) {
	in := []finding{
		{File: "a.go", Line: 3, Column: 2, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 3, Column: 7, Analyzer: "x", Message: "m"},
	}
	if got := dedupe(in); len(got) != 2 {
		t.Fatalf("dedupe merged distinct columns: %+v", got)
	}
}

func TestApplyBaseline(t *testing.T) {
	findings := []finding{
		{File: "a.go", Line: 10, Analyzer: "lockcheck", Message: "read of s.n without mu held"},
		{File: "b.go", Line: 5, Analyzer: "lockcheck", Message: "channel send while holding hot lock mu"},
	}
	baseline := []finding{
		// Same file/analyzer/message at a drifted line still matches.
		{File: "a.go", Line: 99, Analyzer: "lockcheck", Message: "read of s.n without mu held"},
		// A worked-off entry that no longer fires.
		{File: "c.go", Line: 1, Analyzer: "errflow", Message: "gone"},
	}
	fresh, stale := applyBaseline(findings, baseline)
	if fresh != 1 {
		t.Fatalf("fresh = %d, want 1", fresh)
	}
	if !findings[0].Baselined || findings[1].Baselined {
		t.Fatalf("baselined flags wrong: %+v", findings)
	}
	if len(stale) != 1 || stale[0].File != "c.go" {
		t.Fatalf("stale = %+v", stale)
	}
}

func TestApplyBaselineCountsDuplicates(t *testing.T) {
	findings := []finding{
		{File: "a.go", Line: 1, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 2, Analyzer: "x", Message: "m"},
	}
	baseline := []finding{{File: "a.go", Line: 1, Analyzer: "x", Message: "m"}}
	fresh, stale := applyBaseline(findings, baseline)
	if fresh != 1 || len(stale) != 0 {
		t.Fatalf("fresh = %d stale = %v, want 1 fresh (one duplicate grandfathered)", fresh, stale)
	}
}
