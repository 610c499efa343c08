package ordbms

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// A store in any format older than this version's — a catalog with no
// "format" field (format 1) or an older "format", a log that starts
// NMWALv1 to NMWALv14 — is refused by name, and refusing it
// writes nothing: the directory is byte-identical afterwards, so the
// version that wrote it can still open it.
func TestOpenRefusesOlderFormats(t *testing.T) {
	oldLog := func(version string) []byte {
		magic := [8]byte{'N', 'M', 'W', 'A', 'L', 'v'}
		copy(magic[6:], version)
		log := append(magic[:], make([]byte, 8)...)
		// A committed row insert (type 1) behind the header: replaying it
		// under this version's codec would misread every column.
		body := []byte{1, 2, 0, 0, 0, 0, 0, 2, 1, 42}
		log = binary.LittleEndian.AppendUint32(log, uint32(len(body)))
		log = binary.LittleEndian.AppendUint32(log, 0xdeadbeef)
		return append(log, body...)
	}
	v1Log, v2Log, v3Log, v4Log, v5Log, v6Log, v7Log, v8Log, v9Log := oldLog("1"), oldLog("2"), oldLog("3"), oldLog("4"), oldLog("5"), oldLog("6"), oldLog("7"), oldLog("8"), oldLog("9")
	// Format 10 has this version's tables, pages and log records; only
	// its strings are never coded, and their lengths are not shifted by
	// the coded bit.  Its log holds a committed run whose row is the
	// string "hi", which this version would misread as the one byte "h".
	//
	// Formats 10 to 12 wrote their records straight to the file, each
	// framed as the record stream frames it now; rawLog is such a log of
	// one record.
	rawLog := func(magic string, body []byte) []byte {
		log := append([]byte(magic), make([]byte, 8)...)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(body)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
		return append(log, body...)
	}
	v10Run := []byte{9, 1, 0, 0, 0, 0, 0, 1, 0, 4, 0x00, 0x02, 'h', 'i'}
	v10Log := rawLog("NMWALv10", v10Run)
	// Format 11 has this version's codec, tables, pages and log records;
	// only its catalog keeps no heap metadata, which sat in a second file.
	// Its log holds a committed run, so opening it would replay.
	v11Log := rawLog("NMWALv11", v10Run)
	// Format 12 has this version's codec, tables, pages, records and
	// catalog; only its log is not deflated.  Its log holds a committed
	// run, whose bytes this version would read as a frame.
	v12Run := []byte{9, 1, 0, 0, 0, 0, 0, 1, 0, 4, 0x00, 0x04, 'h', 'i'}
	v12Log := rawLog("NMWALv12", v12Run)
	// Format 13 has this version's codec, tables, records, catalog and
	// log; only its data file holds every page raw at page number times
	// the page size, and its catalog has no page map.  Its log holds a
	// committed run in a frame, which would replay onto pages this version
	// reads as zeros.
	var fw frameWriter
	v13Rec := binary.LittleEndian.AppendUint32(nil, uint32(len(v12Run)))
	v13Rec = binary.LittleEndian.AppendUint32(v13Rec, crc32.ChecksumIEEE(v12Run))
	v13Log := append(append([]byte("NMWALv13"), make([]byte, 8)...), fw.frame(append(v13Rec, v12Run...))...)
	// Format 14 has this version's codec, tables, records, log, catalog
	// and page map; only its data file has no dictionary, and its log and
	// data file say 14 and v2.  Its log holds the same committed run.
	v14Log := append(append([]byte("NMWALv14"), make([]byte, 8)...), fw.frame(append(v13Rec, v12Run...))...)
	v14Data := []byte("NETMARKDB v2\x00\x00\x00\x00")
	fw.release()
	v13Data := append([]byte("NETMARKDB v1\x00\x00\x00\x00"), make([]byte, 2*PageSize-16)...)
	v1Catalog := []byte(`{"generation": 3, "tables": [{"name": "XML", "columns": [{"name": "nodeid", "type": 1}], "pages": [1], "indexes": []}]}`)
	v2Catalog := []byte(`{"format":2,"generation":3,"tables":[{"name":"XML","columns":[{"name":"nodeid","type":1}],"pages":[1],"indexes":[]}]}`)
	// Format 3 has this version's columns; only its links are all far.
	v3Catalog := []byte(`{"format":3,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"parentrowid","type":6}],"pages":[1],"indexes":null}]}`)
	// Format 4 has this version's codec; only its XML rows spell out their
	// nodetype and nodename.
	v4Catalog := []byte(`{"format":4,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"nodetype","type":1},{"name":"nodename","type":3}],"pages":[1],"indexes":null}]}`)
	// Format 5 has this version's tables and rows; only its pages spend
	// four bytes a slot, and its log four a row.
	v5Catalog := []byte(`{"format":5,"generation":3,"tables":[{"name":"TAG","columns":[{"name":"tag","type":1},{"name":"nodetype","type":1},{"name":"nodename","type":3}],"pages":[1],"indexes":null}]}`)
	// Format 6 has this version's pages and tables; only its XML rows all
	// carry a docid, and its log deletes a row a record.
	v6Catalog := []byte(`{"format":6,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1}],"pages":[1],"indexes":null}]}`)
	// Format 7 has this version's tables, pages and log; only its near
	// links are two-byte slots, not one-byte slot distances.
	v7Catalog := []byte(`{"format":7,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"parentrowid","type":6}],"pages":[1],"indexes":null}]}`)
	// Format 8 has this version's codec, tables, pages and log; only its
	// headings keep a text child that repeats their nodedata.
	v8Catalog := []byte(`{"format":8,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6}],"pages":[1],"indexes":null}]}`)
	// Format 9 has this version's codec, tables, pages and log; only its
	// elements keep a lone text child, and its roots repeat DOC.title.
	v9Catalog := []byte(`{"format":9,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null}]}`)
	v10Catalog := []byte(`{"format":10,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null}]}`)
	v11Catalog := []byte(`{"format":11,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null}]}`)
	v12Catalog := []byte(`{"format":12,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null,"rows":1,"free":[[1,8000]]}]}`)
	v13Catalog := []byte(`{"format":13,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null,"rows":1,"free":[[1,8000]]}]}`)
	v14Catalog := []byte(`{"format":14,"generation":3,"tables":[{"name":"XML","columns":[{"name":"docid","type":1},{"name":"tag","type":1},{"name":"nodedata","type":3},{"name":"childrowid","type":6},{"name":"attrs","type":3}],"pages":[1],"indexes":null,"rows":0}],"pagecount":2,"extents":null}`)
	stores := map[string]map[string][]byte{
		"catalog without format":  {"catalog.json": v1Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv1 log":             {"wal.nmlog": v1Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v1 catalog and v1 log":   {"catalog.json": v1Catalog, "wal.nmlog": v1Log},
		"format 2 catalog":        {"catalog.json": v2Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv2 log":             {"wal.nmlog": v2Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v2 catalog and v2 log":   {"catalog.json": v2Catalog, "wal.nmlog": v2Log},
		"format 3 catalog":        {"catalog.json": v3Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv3 log":             {"wal.nmlog": v3Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v3 catalog and v3 log":   {"catalog.json": v3Catalog, "wal.nmlog": v3Log},
		"format 4 catalog":        {"catalog.json": v4Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv4 log":             {"wal.nmlog": v4Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v4 catalog and v4 log":   {"catalog.json": v4Catalog, "wal.nmlog": v4Log},
		"format 5 catalog":        {"catalog.json": v5Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv5 log":             {"wal.nmlog": v5Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v5 catalog and v5 log":   {"catalog.json": v5Catalog, "wal.nmlog": v5Log},
		"format 6 catalog":        {"catalog.json": v6Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv6 log":             {"wal.nmlog": v6Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v6 catalog and v6 log":   {"catalog.json": v6Catalog, "wal.nmlog": v6Log},
		"format 7 catalog":        {"catalog.json": v7Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv7 log":             {"wal.nmlog": v7Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v7 catalog and v7 log":   {"catalog.json": v7Catalog, "wal.nmlog": v7Log},
		"format 8 catalog":        {"catalog.json": v8Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv8 log":             {"wal.nmlog": v8Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v8 catalog and v8 log":   {"catalog.json": v8Catalog, "wal.nmlog": v8Log},
		"format 9 catalog":        {"catalog.json": v9Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv9 log":             {"wal.nmlog": v9Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v9 catalog and v9 log":   {"catalog.json": v9Catalog, "wal.nmlog": v9Log},
		"format 10 catalog":       {"catalog.json": v10Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv10 log":            {"wal.nmlog": v10Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v10 catalog and v10 log": {"catalog.json": v10Catalog, "wal.nmlog": v10Log},
		"format 11 catalog":       {"catalog.json": v11Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv11 log":            {"wal.nmlog": v11Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v11 catalog and v11 log": {"catalog.json": v11Catalog, "wal.nmlog": v11Log},
		"format 12 catalog":       {"catalog.json": v12Catalog, "data.nmdb": make([]byte, 2*PageSize+100)},
		"NMWALv12 log":            {"wal.nmlog": v12Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v12 catalog and v12 log": {"catalog.json": v12Catalog, "wal.nmlog": v12Log},
		"format 13 catalog":       {"catalog.json": v13Catalog, "data.nmdb": v13Data},
		"NMWALv13 log":            {"wal.nmlog": v13Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v13 store":               {"catalog.json": v13Catalog, "wal.nmlog": v13Log, "data.nmdb": v13Data},
		"format 14 catalog":       {"catalog.json": v14Catalog, "data.nmdb": v14Data},
		"NMWALv14 log":            {"wal.nmlog": v14Log, "wal.nmlog.ckpt": []byte("half-built successor")},
		"v14 store":               {"catalog.json": v14Catalog, "wal.nmlog": v14Log, "data.nmdb": v14Data},
	}
	for name, files := range stores {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, data := range files {
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirDigest(t, dir)
			db, err := Open(Options{Dir: dir})
			if !errors.Is(err, ErrStoreFormat) {
				if err == nil {
					db.CloseDiscard()
				}
				t.Fatalf("Open = %v, want ErrStoreFormat", err)
			}
			// A log with no catalog is refused by the whole magic this
			// version wants.
			if files["catalog.json"] == nil && !strings.Contains(err.Error(), `"NMWALv15"`) {
				t.Fatalf("Open = %v, want it to name NMWALv15", err)
			}
			if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refusing the store changed it:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// The catalog this version writes says which format it is in, on one
// line, and reopens.
func TestCatalogCarriesFormat(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", MustSchema(Column{"v", TypeInt}, Column{"at", TypeRowID}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // several pages, so the page list is long
		if _, err := tbl.Insert(Row{I(int64(i)), R(RowID{Page: uint32(i), Slot: 1})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := os.ReadFile(filepath.Join(dir, catalogName))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"format":15,"tables":`; string(cat[:len(want)]) != want {
		t.Fatalf("catalog starts %q, want %q", cat[:len(want)], want)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, err := db2.Table("t").Fetch(RowID{Page: db2.Table("t").heap.Pages()[0], Slot: 0})
	if err != nil || row[1].RowID() != (RowID{Page: 0, Slot: 1}) || db2.Table("t").Schema().Columns[1].Type != TypeRowID {
		t.Fatalf("first row after reopen = %v, %v", row, err)
	}
}

// A catalog whose page lists or heap metadata no checkpoint could have
// written is refused as corrupt before anything is written: in
// particular a free-space map naming another table's page, which an
// insert would otherwise write into.
func TestOpenRefusesBadHeapMeta(t *testing.T) {
	src := t.TempDir()
	db, err := Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		tbl, err := db.CreateTable(name, MustSchema(Column{"s", TypeString}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // three rows of 3000 bytes: two pages, both with room
			if _, err := tbl.Insert(Row{S(strings.Repeat(name, 3000))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(src, catalogName))
	if err != nil {
		t.Fatal(err)
	}
	var cf catalogFile
	if err := json.Unmarshal(good, &cf); err != nil {
		t.Fatal(err)
	}
	a, b := &cf.Tables[0], &cf.Tables[1]
	if a.Name != "a" || len(a.Pages) != 2 || len(a.Free) != 2 || a.Rows != 3 || len(b.Free) != 2 {
		t.Fatalf("catalog tables %+v", cf.Tables)
	}
	for name, edit := range map[string]func(a, b *catalogTable){
		"another table's page": func(a, b *catalogTable) { a.Free = [][2]uint32{{b.Pages[0], 100}} },
		"pages out of order":   func(a, b *catalogTable) { a.Free = [][2]uint32{{a.Pages[1], 100}, {a.Pages[0], 100}} },
		"a page twice":         func(a, b *catalogTable) { a.Free = [][2]uint32{{a.Pages[0], 100}, {a.Pages[0], 100}} },
		"no free bytes":        func(a, b *catalogTable) { a.Free[0][1] = 0 },
		"more than a page":     func(a, b *catalogTable) { a.Free[0][1] = PageSize + 1 },
		"negative rows":        func(a, b *catalogTable) { a.Rows = -1 },
		"a page in two tables": func(a, b *catalogTable) { a.Pages = append(a.Pages, b.Pages[0]) },
		"a page listed twice":  func(a, b *catalogTable) { a.Pages = append(a.Pages, a.Pages[0]) },
		"the reserved page":    func(a, b *catalogTable) { a.Pages = append(a.Pages, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := cf
			bad.Tables = []catalogTable{*a, *b}
			bad.Tables[0].Pages = append([]uint32(nil), a.Pages...)
			bad.Tables[0].Free = append([][2]uint32(nil), a.Free...)
			edit(&bad.Tables[0], &bad.Tables[1])
			cat, err := json.Marshal(&bad)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, file := range []string{"data.nmdb", "wal.nmlog"} {
				data, err := os.ReadFile(filepath.Join(src, file))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, catalogName), cat, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirDigest(t, dir)
			db, err := Open(Options{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), "corrupt catalog") {
				if err == nil {
					db.CloseDiscard()
				}
				t.Fatalf("Open = %v, want a corrupt catalog", err)
			}
			if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refusing the catalog changed the store:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
	// The catalog as written opens.
	db, err = Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	db.CloseDiscard()
}

// A catalog whose page map no checkpoint could have written is refused
// as corrupt before anything is written: extents that overlap, an extent
// past the data file's end, a page at or past the page count, a page
// listed twice; and so is one whose dictionary overlaps a page's extent
// or the header, runs past the file's end or is longer than dictMax.
func TestOpenRefusesBadPageMap(t *testing.T) {
	src := t.TempDir()
	db, err := Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("a", MustSchema(Column{"s", TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range prose(2, 12000) { // past dictTrainPages pages
		if _, err := tbl.Insert(Row{S(text)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(src, catalogName))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.Stat(filepath.Join(src, "data.nmdb"))
	if err != nil {
		t.Fatal(err)
	}
	var cf catalogFile
	if err := json.Unmarshal(good, &cf); err != nil {
		t.Fatal(err)
	}
	if len(cf.Extents) < dictTrainPages || cf.PageCount != uint32(len(cf.Extents))+1 || cf.Dict == nil {
		t.Fatalf("page map of %d pages, %d extents, dictionary %v", cf.PageCount, len(cf.Extents), cf.Dict)
	}
	for name, edit := range map[string]func(m [][3]int64, d *[2]int64) [][3]int64{
		"overlapping extents": func(m [][3]int64, _ *[2]int64) [][3]int64 { m[1][1] = m[0][1] + m[0][2] - 1; return m },
		"past the file's end": func(m [][3]int64, _ *[2]int64) [][3]int64 { m[2][1] = data.Size() - m[2][2] + 1; return m },
		"past any file's end": func(m [][3]int64, _ *[2]int64) [][3]int64 { m[2][1] = math.MaxInt64 - 1; return m },
		"past the page count": func(m [][3]int64, _ *[2]int64) [][3]int64 { m[len(m)-1][0] = int64(cf.PageCount); return m },
		"a page twice":        func(m [][3]int64, _ *[2]int64) [][3]int64 { return append(m[:2:2], m[1:]...) },
		"the reserved page":   func(m [][3]int64, _ *[2]int64) [][3]int64 { m[0][0] = 0; return m },
		"the header":          func(m [][3]int64, _ *[2]int64) [][3]int64 { m[0][1] = 0; return m },
		"more than a page":    func(m [][3]int64, _ *[2]int64) [][3]int64 { m[0][2] = PageSize + 1; return m },
		"dictionary over a page": func(m [][3]int64, d *[2]int64) [][3]int64 {
			d[0] = m[3][1] + m[3][2] - 1
			return m
		},
		"dictionary over the header":     func(m [][3]int64, d *[2]int64) [][3]int64 { d[0] = 0; return m },
		"dictionary past the file's end": func(m [][3]int64, d *[2]int64) [][3]int64 { d[0] = data.Size() - d[1] + 1; return m },
		"dictionary past any file's end": func(m [][3]int64, d *[2]int64) [][3]int64 { d[0] = math.MaxInt64 - 1; return m },
		"dictionary too long":            func(m [][3]int64, d *[2]int64) [][3]int64 { d[1] = dictMax + 1; return m },
		"dictionary of no bytes":         func(m [][3]int64, d *[2]int64) [][3]int64 { d[1] = 0; return m },
	} {
		t.Run(name, func(t *testing.T) {
			bad := cf
			bad.Dict = new([2]int64)
			*bad.Dict = *cf.Dict
			bad.Extents = edit(slices.Clone(cf.Extents), bad.Dict)
			cat, err := json.Marshal(&bad)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, file := range []string{"data.nmdb", "wal.nmlog"} {
				data, err := os.ReadFile(filepath.Join(src, file))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, catalogName), cat, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirDigest(t, dir)
			db, err := Open(Options{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), "corrupt catalog") {
				if err == nil {
					db.CloseDiscard()
				}
				t.Fatalf("Open = %v, want a corrupt catalog", err)
			}
			if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refusing the page map changed the store:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
	db, err = Open(Options{Dir: src})
	if err != nil {
		t.Fatalf("the page map as written: %v", err)
	}
	db.CloseDiscard()
}
