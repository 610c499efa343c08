package ordbms

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"netmark/internal/vfs"
)

// renameHookFS runs hook once, just before the first rename onto name.
type renameHookFS struct {
	vfs.FS
	name string
	hook func()
}

func (h *renameHookFS) Rename(oldpath, newpath string) error {
	if h.hook != nil && filepath.Base(newpath) == h.name {
		hook := h.hook
		h.hook = nil
		hook()
	}
	return h.FS.Rename(oldpath, newpath)
}

// Between handing the checkpoint its page map and the catalog's rename,
// writers go on and pages are evicted; none of them may land in an
// extent that map names, since the catalog about to be committed does.
// In that window rows are deleted from every page the checkpoint wrote,
// and more inserted, so a small pool evicts page after page, each
// smaller than the version the map names; then the process crashes,
// every byte of the data file the committed map does not name is
// overwritten, and every row that was not deleted reads back.
func TestCommitWindowKeepsItsExtents(t *testing.T) {
	dir := t.TempDir()
	fsys := &renameHookFS{FS: vfs.OS, name: catalogName}
	db, err := Open(Options{Dir: dir, FS: fsys, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"n", TypeInt}, Column{"s", TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 3000)
	for i, p := range prose(4, 8*len(rows)) {
		rows[i/8] += p
	}
	rids := make([]RowID, len(rows))
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if rids[i], err = tbl.Insert(Row{I(int64(i)), S(rows[i])}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := db.Commit(); err != nil {
			t.Error(err)
		}
	}
	insert(0, 1000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(1000, 2000)
	_, _, before := db.Pool().Stats()
	deleted := make(map[int64]bool)
	fsys.hook = func() {
		for i := 1000; i < 2000; i += 2 {
			if err := tbl.Delete(rids[i]); err != nil {
				t.Error(err)
			}
			deleted[int64(i)] = true
		}
		insert(2000, 3000)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, after := db.Pool().Stats(); after == before {
		t.Fatal("nothing was evicted in the commit window")
	}
	db.CloseDiscard() // the crash

	b, err := os.ReadFile(filepath.Join(dir, catalogName))
	if err != nil {
		t.Fatal(err)
	}
	var cf catalogFile
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "data.nmdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]bool, len(data))
	for _, e := range cf.Extents {
		for i := e[1]; i < e[1]+e[2]; i++ {
			named[i] = true
		}
	}
	for i := len(diskMagic); i < len(data); i++ {
		if !named[i] {
			data[i] = 0xee
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDiscard()
	n := 0
	err = db.Table("t").Scan(func(_ RowID, row Row) bool {
		if i := row[0].Int; row[1].Str != rows[i] || deleted[i] {
			t.Errorf("row %d reads %q, deleted %v", i, row[1].Str, deleted[i])
		}
		n++
		return true
	})
	if err != nil || n != len(rows)-len(deleted) {
		t.Fatalf("scan after the crash: %d rows, %v; want %d", n, err, len(rows)-len(deleted))
	}
}

// Writers, readers and checkpoints share the data file: a writer inserts
// and commits, a reader scans the table over and over, so a small pool
// evicts on both sides, and checkpoints commit page map after page map
// between them.  A crash at the end loses no committed row.
func TestDataFileConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"n", TypeInt}, Column{"s", TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	rows := prose(6, 2000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := tbl.Scan(func(RowID, Row) bool { return true }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, text := range rows {
		if _, err := tbl.Insert(Row{I(int64(i)), S(text)}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	db.CloseDiscard() // the crash

	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDiscard()
	n := 0
	err = db.Table("t").Scan(func(_ RowID, row Row) bool {
		if i := row[0].Int; row[1].Str != rows[i] {
			t.Errorf("row %d reads %q", i, row[1].Str)
		}
		n++
		return true
	})
	if err != nil || n != len(rows) {
		t.Fatalf("scan after the crash: %d rows, %v; want %d", n, err, len(rows))
	}
}
