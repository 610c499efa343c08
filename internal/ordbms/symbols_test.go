package ordbms

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// proseWords is the vocabulary prose draws from.
var proseWords = strings.Fields("the cryogenic turbine was tested during the review of propulsion " +
	"systems and the budget request for avionics assessment of risk with corrective action")

// prose returns n sentences of proseWords, the same for the same seed.
func prose(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		words := make([]string, 3+rng.Intn(12))
		for j := range words {
			words[j] = proseWords[rng.Intn(len(proseWords))]
		}
		out[i] = strings.Join(words, " ") + "."
	}
	return out
}

// codeAndBack codes s under st with room to spare, checks the codes
// decode to s, and returns how many bytes they took.
func codeAndBack(t testing.TB, st *SymbolTable, s string) int {
	t.Helper()
	codes, ok := st.appendCodes(nil, s, 2*len(s)+1)
	if !ok {
		t.Fatalf("%q does not code in %d bytes", s, 2*len(s)+1)
	}
	if back, ok := st.decode(codes); !ok || back != s {
		t.Fatalf("%q codes as %x, which decodes to %q, %v", s, codes, back, ok)
	}
	if n := st.decodedLen(codes); n != len(s) {
		t.Fatalf("%q: decodedLen %d", s, n)
	}
	return len(codes)
}

// A table trained on prose codes prose, seen or not, in well under half
// its bytes, and codes anything else back exactly; the same sample trains
// the same table, which survives its own serialisation.
func TestSymbolTableCodesWhatItWasTrainedOn(t *testing.T) {
	sample := prose(1, 400)
	st := trainSymbols(sample)
	if st.n == 0 || st.n > maxSymbols {
		t.Fatalf("trained %d symbols", st.n)
	}
	if again := trainSymbols(prose(1, 400)); !bytes.Equal(again.appendBinary(nil), st.appendBinary(nil)) {
		t.Fatal("the same sample trained two different tables")
	}
	parsed, err := ParseSymbols(st.appendBinary(nil))
	if err != nil || !bytes.Equal(parsed.appendBinary(nil), st.appendBinary(nil)) {
		t.Fatalf("table does not survive serialisation: %v", err)
	}
	raw, coded := 0, 0
	for _, s := range prose(2, 200) {
		raw += len(s)
		coded += codeAndBack(t, parsed, s)
	}
	if coded*2 > raw {
		t.Fatalf("unseen prose codes %d bytes into %d", raw, coded)
	}
	for _, s := range []string{"", "x", "\x00\xff\xfe", "ÜBER-naïve ✓", strings.Repeat("z", 300)} {
		codeAndBack(t, st, s)
	}
	// A value the codes would not shorten is refused: the record keeps it raw.
	if _, ok := st.appendCodes(nil, "\x01\x02\x03", 3); ok {
		t.Fatal("three escaped bytes coded in fewer than three bytes")
	}
	if _, ok := trainSymbols(nil).appendCodes(nil, "the", 3); ok {
		t.Fatal("an empty table coded a string")
	}
	if rec := MustSchema(Column{"s", TypeString}).WithSymbols(st).Encode(Row{S("")}); !bytes.Equal(rec, []byte{0, 0}) {
		t.Fatalf("the empty string is stored as %x, want it raw", rec)
	}
}

// Hostile tables are refused by ParseSymbols, and hostile codes by the
// decoder: an escape with nothing after it, a code past the table, any
// code at all without a table.
func TestSymbolCodesRefused(t *testing.T) {
	for _, b := range [][]byte{nil, {0xff}, {1}, {1, 0}, {1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {1, 2, 'a'}, {1, 1, 'a', 'b'}} {
		if _, err := ParseSymbols(b); err == nil {
			t.Errorf("table %x parsed", b)
		}
	}
	st, err := ParseSymbols([]byte{2, 1, 'h', 2, 'h', 'i'})
	if err != nil {
		t.Fatal(err)
	}
	for _, codes := range [][]byte{{escapeCode}, {0, escapeCode}, {2}, {1, 254}} {
		if s, ok := st.decode(codes); ok {
			t.Errorf("codes %x decode to %q", codes, s)
		}
	}
	var none *SymbolTable
	if s, ok := none.decode([]byte{0}); ok {
		t.Errorf("codes decode to %q with no table", s)
	}
	schema := MustSchema(Column{"s", TypeString})
	rec := schema.WithSymbols(st).Encode(Row{S("hihi")})
	if want := []byte{0, 2<<1 | 1, 1, 1}; !bytes.Equal(rec, want) {
		t.Fatalf("coded record %x, want %x", rec, want)
	}
	if _, err := DecodeRow(schema, RowID{Page: 1}, rec); err == nil {
		t.Fatal("a coded string decoded with no symbol table")
	}
	if row, err := DecodeRow(schema.WithSymbols(st), RowID{Page: 1}, rec); err != nil || row[0].Str != "hihi" {
		t.Fatalf("coded record decodes to %v, %v", row, err)
	}
}

// A table trains its symbol table at the first commit past the sample,
// logs it before the first record coded with it, and a crash anywhere
// around that point loses nothing: the log is cut before walSymbols,
// between it and the first coded run, after that run, and not at all,
// and each cut opens with every committed row readable, its index on the
// STRING column whole, and the table's symbol table exactly when the cut
// kept it.  The crash comes once with the table, its index and its first
// rows in the catalog, and once with all of them in the log alone: either
// way the index is logged or saved before walSymbols, and is built only
// once the table has it.  A cut that lost it trains again at the next
// commit, and, since training reads the same rows in the same order, to
// the same table.  A clean close then drops the log, and the store opens
// from the catalog alone.
func TestTrainingSurvivesLogCuts(t *testing.T) {
	for _, withCatalog := range []bool{false, true} {
		name := "log only"
		if withCatalog {
			name = "catalog and log"
		}
		t.Run(name, func(t *testing.T) { testTrainingSurvivesLogCuts(t, withCatalog) })
	}
}

func testTrainingSurvivesLogCuts(t *testing.T, withCatalog bool) {
	schema := MustSchema(Column{"n", TypeInt}, Column{"s", TypeString})
	src := t.TempDir()
	db, err := Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("s"); err != nil {
		t.Fatal(err)
	}
	texts := prose(3, 602) // the last two go in after each cut
	var st *SymbolTable
	saved := 0 // rows the checkpoint put in the catalog's pages
	for i := 0; i < len(texts)-2; {
		for end := i + 25; i < end; i++ {
			if _, err := tbl.Insert(Row{I(int64(i)), S(texts[i])}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if withCatalog && saved == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			saved = i
		}
		if st == nil {
			st = tbl.Schema().Symbols()
			if st != nil && saved == i {
				t.Fatal("trained before the checkpoint")
			}
		}
	}
	if st == nil {
		t.Fatalf("no symbol table after %d rows", len(texts))
	}
	raw, stored, tables := db.StringStats()
	if tables != 1 || stored >= raw-raw/4 {
		t.Fatalf("string stats: raw %d, stored %d, %d coded tables", raw, stored, tables)
	}
	db.CloseDiscard()
	log, err := os.ReadFile(filepath.Join(src, "wal.nmlog"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := ReadLog(log)
	if err != nil {
		t.Fatal(err)
	}
	types, ends := img.Types, img.Ends
	sym := bytes.IndexByte(types, walSymbols)
	if sym < 1 || bytes.Count(types, []byte{walSymbols}) != 1 || types[sym-1] != walInsertRun {
		t.Fatalf("log record types %v: want one walSymbols, after a run", types)
	}
	if ix := bytes.IndexByte(types, walCreateIndex); withCatalog != (ix < 0) || ix > sym {
		t.Fatalf("log record types %v: want walCreateIndex before walSymbols, in the log only without a catalog", types)
	}
	coded := sym + 1 // the first run coded with the table
	for types[coded] != walInsertRun {
		coded++
	}
	// Rows inserted before each record ends: one a run.
	rowsAt := func(end int) (n int) {
		for k, e := range ends {
			if e <= end && types[k] == walInsertRun {
				n++
			}
		}
		return saved + n
	}
	check := func(name string, tbl *Table, rows int) {
		t.Helper()
		got := 0
		if err := tbl.Scan(func(rid RowID, row Row) bool {
			if row[0].Int != int64(got) || row[1].Str != texts[got] {
				t.Fatalf("%s: row %d is %v", name, got, row)
			}
			got++
			return true
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != rows {
			t.Fatalf("%s: %d rows, want %d", name, got, rows)
		}
		ix := tbl.Index("s")
		if ix == nil || ix.Len() != rows {
			t.Fatalf("%s: index on s is %v, want %d rows", name, ix, rows)
		}
		for _, k := range []int{0, rows - 1} {
			if rids := ix.Lookup(S(texts[k])); len(rids) == 0 {
				t.Fatalf("%s: the index has no row %d", name, k)
			}
		}
	}
	// Each cut is a log of exactly the records before it.
	for _, cut := range []struct {
		name string
		kept int // records
	}{
		{"before walSymbols", sym},
		{"between walSymbols and the first coded run", sym + 1},
		{"after the first coded run", coded + 1},
		{"whole log", len(types)},
	} {
		end := ends[cut.kept-1]
		dir := t.TempDir()
		files, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(src, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if f.Name() == "wal.nmlog" && cut.kept < len(types) {
				b = img.Framed(cut.kept)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", cut.name, err)
		}
		tbl := db.Table("t")
		kept := tbl.Schema().Symbols()
		if (kept != nil) != (end >= ends[sym]) || (kept != nil && !bytes.Equal(kept.appendBinary(nil), st.appendBinary(nil))) {
			t.Fatalf("%s: symbol table %v after the cut", cut.name, kept)
		}
		rows := rowsAt(end)
		check(cut.name, tbl, rows)
		// The next commit trains the table if the cut lost it.
		if _, err := tbl.Insert(Row{I(int64(rows)), S(texts[rows])}); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if again := tbl.Schema().Symbols(); again == nil || !bytes.Equal(again.appendBinary(nil), st.appendBinary(nil)) {
			t.Fatalf("%s: trained again to a different table", cut.name)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(filepath.Join(dir, "wal.nmlog")); err != nil || fi.Size() != walHeaderSize {
			t.Fatalf("%s: log after a clean close: %v, %v", cut.name, fi, err)
		}
		db, err = Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Table("t").Schema().Symbols(); got == nil || !bytes.Equal(got.appendBinary(nil), st.appendBinary(nil)) {
			t.Fatalf("%s: the catalog lost the symbol table", cut.name)
		}
		check(fmt.Sprintf("%s, reopened from the catalog", cut.name), db.Table("t"), rows+1)
		// A row logged past the checkpoint makes the next open scan.
		if _, err := db.Table("t").Insert(Row{I(int64(rows + 1)), S(texts[rows+1])}); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		db.CloseDiscard()
		if db, err = Open(Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s, reopened by scan", cut.name), db.Table("t"), rows+2)
		db.CloseDiscard()
	}
}
