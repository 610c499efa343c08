package ordbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"id", TypeInt},
		Column{"name", TypeString},
		Column{"score", TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDBCreateInsertFetch(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("people", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tbl.Insert(Row{I(1), S("ada"), F(99.5)})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Str != "ada" || row[2].Float != 99.5 {
		t.Fatalf("row = %v", row)
	}
}

func TestDBSchemaValidation(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t", testSchema(t))
	if _, err := tbl.Insert(Row{I(1), S("x")}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := tbl.Insert(Row{S("wrong"), S("x"), F(1)}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := tbl.Insert(Row{Null(), Null(), Null()}); err != nil {
		t.Fatalf("all-null row rejected: %v", err)
	}
}

func TestDBDuplicateTable(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if _, err := db.CreateTable("t", testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", testSchema(t)); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestDBIndexLookup(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t", testSchema(t))
	for i := 0; i < 100; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		if _, err := tbl.Insert(Row{I(int64(i)), S(name), F(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	rids, err := tbl.Lookup("name", S("even"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 50 {
		t.Fatalf("lookup returned %d rows", len(rids))
	}
	for _, rid := range rids {
		row, err := tbl.Fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int%2 != 0 {
			t.Fatalf("index returned odd row %v", row)
		}
	}
	// Index maintained on subsequent inserts.
	if _, err := tbl.Insert(Row{I(1000), S("even"), F(0)}); err != nil {
		t.Fatal(err)
	}
	rids, _ = tbl.Lookup("name", S("even"))
	if len(rids) != 51 {
		t.Fatalf("index not maintained: %d", len(rids))
	}
}

func TestDBIndexDeleteMaintenance(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t", testSchema(t))
	tbl.CreateIndex("name")
	rid, _ := tbl.Insert(Row{I(1), S("gone"), F(0)})
	tbl.Insert(Row{I(2), S("kept"), F(0)})
	if err := tbl.Delete(rid); err != nil {
		t.Fatal(err)
	}
	rids, _ := tbl.Lookup("name", S("gone"))
	if len(rids) != 0 {
		t.Fatalf("deleted row still indexed: %v", rids)
	}
	rids, _ = tbl.Lookup("name", S("kept"))
	if len(rids) != 1 {
		t.Fatalf("kept row lost: %v", rids)
	}
}

func TestDBIndexRangeAndPrefix(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t", testSchema(t))
	tbl.CreateIndex("id")
	tbl.CreateIndex("name")
	names := []string{"apple", "apricot", "banana", "application"}
	for i, n := range names {
		tbl.Insert(Row{I(int64(i * 10)), S(n), F(0)})
	}
	got := tbl.Index("id").Range(I(5), I(25))
	if len(got) != 2 {
		t.Fatalf("range [5,25] returned %d", len(got))
	}
	pre := tbl.Index("name").Prefix("app")
	if len(pre) != 2 { // apple, application
		t.Fatalf("prefix app returned %d", len(pre))
	}
}

func TestDBPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("docs", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var rids []RowID
	for i := 0; i < 500; i++ {
		rid, err := tbl.Insert(Row{I(int64(i)), S("doc"), F(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Replayed != 0 {
		t.Fatalf("clean shutdown should replay nothing, replayed %d", db2.Replayed)
	}
	tbl2 := db2.Table("docs")
	if tbl2 == nil {
		t.Fatal("table lost across reopen")
	}
	if tbl2.Rows() != 500 {
		t.Fatalf("rows = %d", tbl2.Rows())
	}
	// RowIDs remain valid across restart (physical addressing).
	row, err := tbl2.Fetch(rids[123])
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 123 {
		t.Fatalf("rid 123 returned %v", row)
	}
	// Index was rebuilt.
	got, err := tbl2.Lookup("id", I(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rebuilt index lookup: %v", got)
	}
}

// TestDBCrashRecovery simulates a crash: mutations are committed to the
// WAL but pages never flushed; reopening must replay the log.
func TestDBCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", testSchema(t))
	var rids []RowID
	for i := 0; i < 200; i++ {
		rid, err := tbl.Insert(Row{I(int64(i)), S("v"), F(0)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tbl.Delete(rids[7]); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil { // WAL synced...
		t.Fatal(err)
	}
	// ...but we "crash" without Close: pages and catalog never written.
	// Save the catalog by hand so the table definition survives (the
	// catalog is metadata; the paper's stores are long-lived).
	db.mu.Lock()
	if err := db.saveCatalogLocked(db.catalogGen + 1); err != nil {
		t.Fatal(err)
	}
	db.mu.Unlock()
	// Abandon db without flushing pages.

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Replayed == 0 {
		t.Fatal("expected WAL replay after crash")
	}
	tbl2 := db2.Table("t")
	if tbl2 == nil {
		t.Fatal("table missing after recovery")
	}
	if tbl2.Rows() != 199 {
		t.Fatalf("rows after recovery = %d, want 199", tbl2.Rows())
	}
	row, err := tbl2.Fetch(rids[100])
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 100 {
		t.Fatalf("recovered row = %v", row)
	}
	if _, err := tbl2.Fetch(rids[7]); err != ErrRecordDeleted {
		t.Fatalf("deleted row resurrected: %v", err)
	}
}

// TestDBCrashRecoveryIdempotent crashes again right after recovery.
func TestDBCrashRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	tbl, _ := db.CreateTable("t", testSchema(t))
	for i := 0; i < 50; i++ {
		tbl.Insert(Row{I(int64(i)), S("v"), F(0)})
	}
	db.Commit()
	db.mu.Lock()
	db.saveCatalogLocked(db.catalogGen + 1)
	db.mu.Unlock()
	// crash 1
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery checkpointed; crash again immediately.
	db3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Replayed != 0 {
		t.Fatalf("second recovery replayed %d records; checkpoint failed", db3.Replayed)
	}
	if db3.Table("t").Rows() != 50 {
		t.Fatalf("rows = %d", db3.Table("t").Rows())
	}
	_ = db2
}

func TestDBScan(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tbl, _ := db.CreateTable("t", testSchema(t))
	for i := 0; i < 25; i++ {
		tbl.Insert(Row{I(int64(i)), S("r"), F(0)})
	}
	sum := int64(0)
	if err := tbl.Scan(func(_ RowID, row Row) bool {
		sum += row[0].Int
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 300 { // 0+..+24
		t.Fatalf("sum = %d", sum)
	}
}

func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	tbl, _ := db.CreateTable("t", testSchema(t))
	for i := 0; i < 100; i++ {
		tbl.Insert(Row{I(int64(i)), S("v"), F(0)})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint, the WAL should be empty (header only).
	fi, err := filepath.Glob(filepath.Join(dir, "wal.nmlog"))
	if err != nil || len(fi) != 1 {
		t.Fatalf("wal file: %v %v", fi, err)
	}
	st, err := os.Stat(fi[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > walHeaderSize {
		t.Fatalf("wal not truncated: %d bytes", st.Size())
	}
	db.Close()
}

func TestTableNamesSorted(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		db.CreateTable(n, testSchema(t))
	}
	names := db.TableNames()
	if names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestDropTable(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.CreateTable("t", testSchema(t))
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if db.Table("t") != nil {
		t.Fatal("table still visible")
	}
	if err := db.DropTable("t"); err == nil {
		t.Fatal("double drop accepted")
	}
}

// ViewPage yields exactly the slots LiveRecords does, with the page's
// slot count, dead slots included, and reports a corrupt directory.
func TestViewPageYieldsLiveRecords(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var rids []RowID
	for i := 0; i < 40; i++ {
		rid, err := tbl.Insert(Row{I(int64(i)), S(fmt.Sprintf("row %d", i)), F(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < len(rids); i += 3 {
		if err := tbl.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	no := rids[0].Page
	type rec struct {
		slot int
		data string
	}
	var want []rec
	f, err := tbl.heap.pool.Fetch(no)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := f.Page.NumSlots()
	if err := f.Page.LiveRecords(func(slot int, b []byte) bool {
		want = append(want, rec{slot, string(b)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var got []rec
	gotSlots := -1
	err = tbl.ViewPage(no, func(sch Schema, slots int, live func(func(int, []byte) bool) error) error {
		if len(sch.Columns) != 3 {
			t.Errorf("schema has %d columns, want 3", len(sch.Columns))
		}
		gotSlots = slots
		return live(func(slot int, b []byte) bool {
			got = append(got, rec{slot, string(b)})
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotSlots != wantSlots || wantSlots != len(rids) {
		t.Errorf("slots = %d, page has %d, rows inserted %d", gotSlots, wantSlots, len(rids))
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(rids)-(len(rids)+2)/3 {
		t.Errorf("ViewPage yielded %d records, LiveRecords %d", len(got), len(want))
	}

	binary.LittleEndian.PutUint16(f.Page.Data(), maxSlots+1)
	f.dirty = true
	tbl.heap.pool.Unpin(f)
	called := false
	err = tbl.ViewPage(no, func(Schema, int, func(func(int, []byte) bool) error) error {
		called = true
		return nil
	})
	if !errors.Is(err, errCorruptPage) || called {
		t.Fatalf("ViewPage of a corrupt directory = %v (fn called: %v), want a corrupt-page error", err, called)
	}
}
