package textindex

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// buildIndex fills an index with a small synthetic corpus, including a
// multi-call id and removed ids.
func buildIndex() *Index {
	ix := New()
	docs := []string{
		"the liquid oxygen turbopump showed cryogenic stress fractures",
		"budget request for the cryogenic test stand",
		"turbine blade review: cryogenic turbopump redesign",
		"the quick brown fox jumps over the lazy dog",
		"liquid hydrogen feed line pressure anomaly",
	}
	for i, d := range docs {
		ix.Add(uint64(1000+i*7), d)
	}
	ix.Add(1000, "appendix: turbopump cavitation margins") // second Add, same id
	remove(ix, 1021, docs[3])                              // fox doc vanishes
	return ix
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix := buildIndex()
	buf := ix.AppendSnapshot([]byte("prefix"))
	if !bytes.HasPrefix(buf, []byte("prefix")) {
		t.Fatal("AppendSnapshot must extend the given buffer")
	}
	tail := []byte("trailing-bytes")
	got, n, err := LoadSnapshot(append(buf[len("prefix"):], tail...))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-len("prefix") {
		t.Fatalf("consumed %d bytes, want %d (must stop before trailing data)", n, len(buf)-len("prefix"))
	}

	if got.Stats().Postings != ix.Stats().Postings || got.Terms() != ix.Terms() {
		t.Fatalf("postings/terms = %d/%d, want %d/%d", got.Stats().Postings, got.Terms(), ix.Stats().Postings, ix.Terms())
	}
	for _, q := range []string{"cryogenic", "turbopump", "liquid", "fox", "absent"} {
		if !reflect.DeepEqual(drain(got.LookupIter(q)), drain(ix.LookupIter(q))) {
			t.Fatalf("Lookup(%q) diverges: %v vs %v", q, drain(got.LookupIter(q)), drain(ix.LookupIter(q)))
		}
		if got.DF(q) != ix.DF(q) {
			t.Fatalf("DF(%q) diverges", q)
		}
	}
	for _, q := range []string{"cryogenic turbopump", "liquid oxygen", "budget request"} {
		if !reflect.DeepEqual(drain(got.AndIter(q)), drain(ix.AndIter(q))) {
			t.Fatalf("And(%q) diverges", q)
		}
	}

	// Generations are process-local and not part of the encoding: a loaded
	// term has a generation that the next posting change moves.  A term the
	// index does not hold folds the index's counter, so a term that appears
	// and vanishes again does not bring its key back.
	const offset64, prime64 = 14695981039346656037, 1099511628211 // FNV-1a
	absent := got.QueryGen("nosuchterm")
	if absent != (offset64^got.genCounter)*prime64 {
		t.Fatal("an absent term must fold the index's generation counter")
	}
	for _, mutate := range []func(){
		func() { got.AddTokens(7000, Tokenize("cryogenic nosuchterm")) },
		func() { remove(got, 7000, "cryogenic nosuchterm") },
	} {
		before := got.QueryGen("cryogenic")
		mutate()
		if got.QueryGen("cryogenic") == before {
			t.Fatal("a posting change left a loaded term's generation where it was")
		}
	}
	if got.QueryGen("nosuchterm") == absent {
		t.Fatal("the key of a term that appeared and vanished came back")
	}

	// The loaded index must keep evolving identically: same mutation on
	// both sides yields the same lookups and a working RemoveTokens, which
	// finds each posting in the loaded lists themselves.
	ix.Add(5000, "cryogenic margins")
	got.Add(5000, "cryogenic margins")
	if !reflect.DeepEqual(drain(got.LookupIter("cryogenic")), drain(ix.LookupIter("cryogenic"))) {
		t.Fatal("post-load Add diverges")
	}
	for _, x := range []*Index{ix, got} {
		remove(x, 1000, "the liquid oxygen turbopump showed cryogenic stress fractures", "appendix: turbopump cavitation margins")
	}
	if !reflect.DeepEqual(drain(got.LookupIter("turbopump")), drain(ix.LookupIter("turbopump"))) {
		t.Fatal("post-load Remove diverges")
	}
	if got.Stats().Postings != ix.Stats().Postings {
		t.Fatalf("post-mutation postings = %d, want %d", got.Stats().Postings, ix.Stats().Postings)
	}
}

func TestSnapshotTruncated(t *testing.T) {
	ix := buildIndex()
	buf := ix.AppendSnapshot(nil)
	for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if _, _, err := LoadSnapshot(buf[:cut]); err == nil && cut < len(buf) {
			// A short prefix can only decode cleanly if it happens to end
			// exactly on a record boundary covering the whole term count —
			// impossible for a strict prefix of a valid snapshot.
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	buf := New().AppendSnapshot(nil)
	got, n, err := LoadSnapshot(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("empty round trip: %v (n=%d)", err, n)
	}
	if got.Stats().Postings != 0 || got.Terms() != 0 {
		t.Fatal("empty index not empty after round trip")
	}
	if drain(got.LookupIter("anything")) != nil {
		t.Fatal("lookup on empty loaded index")
	}
}

// TestSnapshotCorruptBlocksError: mangled v2 payloads must surface as
// decode errors (the store falls back to its scan rebuild), never as
// panics — the file-level CRC upstream does not protect against a
// writer bug producing internally inconsistent blocks.
func TestSnapshotCorruptBlocksError(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 400; id++ {
		ix.Add(id, "alpha beta")
	}
	if ix.Stats().Blocks == 0 {
		t.Fatal("setup: no sealed blocks")
	}
	buf := ix.AppendSnapshot(nil)
	for cut := 0; cut < len(buf); cut += 7 {
		mangled := append([]byte(nil), buf...)
		mangled[cut] ^= 0x55
		got, _, err := LoadSnapshot(mangled) // must not panic
		if err != nil {
			continue
		}
		// A flip that decodes cleanly (e.g. inside a tail delta) must still
		// yield a structurally sound index.
		if got.Stats().Postings < 0 || got.Terms() < 0 {
			t.Fatalf("corrupt load at byte %d produced broken index", cut)
		}
		drain(got.LookupIter("alpha"))
		drain(got.AndIter("alpha beta"))
	}
	// Truncations through the block region must error, not panic.
	for cut := 1; cut < len(buf); cut += 13 {
		if _, _, err := LoadSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}

	// A block-length varint >= 2^63 wraps negative as an int: the bounds
	// check must compare in uint64 and reject it, not slice-panic.
	crafted := binary.AppendUvarint(nil, 1)    // nterms
	crafted = binary.AppendUvarint(crafted, 1) // len("a")
	crafted = append(crafted, 'a')
	crafted = binary.AppendUvarint(crafted, 1)     // nblocks
	crafted = binary.AppendUvarint(crafted, 1)     // n
	crafted = binary.AppendUvarint(crafted, 1)     // maxID
	crafted = binary.AppendUvarint(crafted, 1<<63) // dlen: wraps int negative
	if _, _, err := LoadSnapshot(crafted); err == nil {
		t.Fatal("2^63 block length decoded cleanly")
	}
}

// Loading a snapshot copies each list's blocks and builds the term tree,
// and reads no posting one at a time: its allocations do not grow with
// the ids a term holds.
func TestLoadSnapshotAllocs(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 20000; id++ {
		ix.Add(id, "alpha beta")
	}
	buf := ix.AppendSnapshot(nil)
	if n := testing.AllocsPerRun(5, func() {
		if _, _, err := LoadSnapshot(buf); err != nil {
			t.Fatal(err)
		}
	}); n >= 100 {
		t.Fatalf("LoadSnapshot of 2 terms x 20000 ids = %.0f allocs, want fewer than 100", n)
	}
}
