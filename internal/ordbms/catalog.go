package ordbms

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"netmark/internal/vfs"
)

// The catalog records table metadata: schemas, heap page lists, each
// heap's live-row count and free-space map, which indexes to build on
// open, and each table's symbol table.  It is persisted as JSON next to
// the data file at every checkpoint — the simple, inspectable choice for
// a reproduction (a production engine would self-host it in pages) —
// and it is the engine's only checkpoint file: secondary indexes are
// derived state, rebuilt by a heap scan on every open.

// storeFormat is the on-disk format version: the record codec, the WAL
// record set and the log's framing (see walMagic, which carries the same
// number), the catalog itself and the schemas of the tables the XML
// store keeps in it.  There is one codec and no second reader, so the
// policy is: any change to what a page, a log record or frame, the
// catalog or a stored row means bumps it, and Open refuses every other
// value.  Format 13 deflates the log: the same records, in frames;
// format 14 compresses the data file's pages behind the catalog's page
// map; format 15 codes them against a store dictionary the catalog
// names.
const storeFormat = 15

// ErrStoreFormat reports a store directory written in a format this
// version does not read.  Open refuses it without writing anything.
var ErrStoreFormat = fmt.Errorf("ordbms: store is not in on-disk format %d; re-ingest with this version", storeFormat)

type catalogFile struct {
	Format int            `json:"format"`
	Tables []catalogTable `json:"tables"`
	// PageCount and Extents are the data file's page map (see fileDisk):
	// how many pages are allocated, page 0 among them, and where each
	// page that has been written lies, as [page, offset, length] in page
	// order.  A page with no extent reads as zeros.
	PageCount uint32     `json:"pagecount"`
	Extents   [][3]int64 `json:"extents"`
	// Dict is the store dictionary's extent, [offset, length], absent
	// until the store has trained one (see DB.trainDict).
	Dict *[2]int64 `json:"dict,omitempty"`
}

type catalogTable struct {
	Name    string          `json:"name"`
	Columns []catalogColumn `json:"columns"`
	Pages   []uint32        `json:"pages"`
	Indexes []string        `json:"indexes"`
	// Rows and Free are the heap's live-row count and free-space map —
	// [page, free bytes] pairs in ascending page order — as the
	// checkpoint found them.  Open trusts them only when the log holds no
	// record (see loadCatalog); otherwise it scans the pages.
	Rows int64       `json:"rows"`
	Free [][2]uint32 `json:"free,omitempty"`
	// Symbols is the table's symbol table as walSymbols logs it, absent
	// until the table has trained one.
	Symbols []byte `json:"symbols,omitempty"`
}

type catalogColumn struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

const catalogName = "catalog.json"

// saveCatalogLocked persists the catalog.  The write is crash-durable:
// temp file, fsync, rename, directory fsync.  Without the fsync a crash
// right after DB.Checkpoint truncates the WAL could lose the catalog
// while the log that could have reconstructed the table layout is
// already gone.  Caller holds db.mu; each table is read under its read
// lock, so its page list, row count and free-space map agree with each
// other.  A writer racing the checkpoint logs past the cut, and the
// reopen that finds its record scans instead.
//
// netmarkvet:snap-encode
func (db *DB) saveCatalogLocked() error {
	cf := catalogFile{Format: storeFormat}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		t.mu.RLock()
		ct := catalogTable{Name: t.name}
		ct.Pages, ct.Rows, ct.Free = t.heap.meta()
		if st := t.syms.Load(); st != nil {
			ct.Symbols = st.appendBinary(nil)
		}
		for _, c := range t.schema.Columns {
			ct.Columns = append(ct.Columns, catalogColumn{Name: c.Name, Type: uint8(c.Type)})
		}
		for col := range t.indexes {
			ct.Indexes = append(ct.Indexes, col)
		}
		slices.Sort(ct.Indexes) // one catalog for one store, whatever the map's order
		t.mu.RUnlock()
		cf.Tables = append(cf.Tables, ct)
	}
	count, m, dict, err := db.file.pageMap()
	if err != nil {
		return err
	}
	// The log goes out before the map is committed: every page the map
	// names holds only changes appended before the map was taken, since a
	// writer appends its record before it lets go of the page's latch.
	// Those past the checkpoint's cut may still be in the buffer, and a
	// crash between this commit and the log's swap must find them.
	if err := db.wal.Flush(db.wal.NextLSN()); err != nil {
		return err
	}
	cf.PageCount = count
	if dict.n > 0 {
		cf.Dict = &[2]int64{dict.off, dict.n}
	}
	for no, e := range m {
		cf.Extents = append(cf.Extents, [3]int64{int64(no), e.off, e.n})
	}
	slices.SortFunc(cf.Extents, func(a, b [3]int64) int { return cmp.Compare(a[0], b[0]) })
	b, err := json.Marshal(&cf)
	if err != nil {
		return err
	}
	if err := db.commitFile(catalogName, b); err != nil {
		return err
	}
	return db.file.commit(m)
}

// writeFileSync writes data to path through fsys and fsyncs it before
// returning.
func writeFileSync(fsys vfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
func syncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCatalog reads and parses the on-disk catalog; nil means a fresh
// store.  A catalog of another format version is ErrStoreFormat, and one
// whose page lists or heap metadata no checkpoint writes is corrupt.
func (db *DB) readCatalog() (*catalogFile, error) {
	b, err := db.fs.ReadFile(filepath.Join(db.dir, catalogName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cf catalogFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return nil, fmt.Errorf("ordbms: corrupt catalog: %w", err)
	}
	if cf.Format != storeFormat {
		return nil, fmt.Errorf("%w (catalog says %d)", ErrStoreFormat, cf.Format)
	}
	if err := cf.check(); err != nil {
		return nil, fmt.Errorf("ordbms: corrupt catalog: %w", err)
	}
	return &cf, nil
}

// check refuses page lists, heap metadata and page maps no checkpoint
// writes: the reserved page 0 or a page at or past the page count, a page
// listed twice, in one table or two, a negative row count, a free-space
// map that is out of page order, names a page its table does not own or
// gives a page no room or more than a page, a page map out of page
// order or giving a page an extent of no bytes or more than a page, or a
// dictionary of no bytes or more than dictMax.  Extents that overlap or
// pass the data file's end are openFileDisk's to refuse.
func (cf *catalogFile) check() error {
	if cf.PageCount == 0 {
		return fmt.Errorf("no page count")
	}
	if d := cf.Dict; d != nil && (d[0] < 0 || d[1] <= 0 || d[1] > dictMax) {
		return fmt.Errorf("a dictionary of %d bytes at %d", d[1], d[0])
	}
	for k, e := range cf.Extents {
		switch {
		case e[0] <= 0 || e[0] >= int64(cf.PageCount):
			return fmt.Errorf("page map: page %d is the reserved page or past the page count %d", e[0], cf.PageCount)
		case k > 0 && e[0] <= cf.Extents[k-1][0]:
			return fmt.Errorf("page map: page %d out of page order or listed twice", e[0])
		case e[1] < 0 || e[2] <= 0 || e[2] > PageSize:
			return fmt.Errorf("page map: page %d has an extent of %d bytes at %d", e[0], e[2], e[1])
		}
	}
	owner := make(map[uint32]int) // page → 1 + the index of the table listing it
	for i, ct := range cf.Tables {
		for _, p := range ct.Pages {
			if p == 0 || p >= cf.PageCount || owner[p] != 0 {
				return fmt.Errorf("table %s: page %d is the reserved page, past the page count or listed twice", ct.Name, p)
			}
			owner[p] = i + 1
		}
		if ct.Rows < 0 {
			return fmt.Errorf("table %s: %d rows", ct.Name, ct.Rows)
		}
		for k, pf := range ct.Free {
			switch {
			case k > 0 && pf[0] <= ct.Free[k-1][0]:
				return fmt.Errorf("table %s: free-space map out of page order at page %d", ct.Name, pf[0])
			case owner[pf[0]] != i+1:
				return fmt.Errorf("table %s: free-space map names page %d, not the table's", ct.Name, pf[0])
			case pf[1] == 0 || pf[1] > PageSize:
				return fmt.Errorf("table %s: free-space map gives page %d %d free bytes", ct.Name, pf[0], pf[1])
			}
		}
	}
	return nil
}

// loadCatalog rebuilds the table set from the catalog readCatalog
// returned, during Open, before the DB is shared with any other goroutine.
// A heap takes its row count and free-space map from the catalog when
// trusted says the log added nothing to the checkpoint that wrote it, and
// nothing was adopted for the table since; otherwise it scans its pages.
// It returns every index the catalog names: Open builds them once the
// log has given every table its symbol table.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
// netmarkvet:snap-decode
func (db *DB) loadCatalog(cf *catalogFile, trusted bool) (builds []indexBuild, err error) {
	if cf == nil {
		return nil, nil // fresh store
	}
	for _, ct := range cf.Tables {
		cols := make([]Column, len(ct.Columns))
		for i, c := range ct.Columns {
			cols[i] = Column{Name: c.Name, Type: Type(c.Type)}
		}
		schema, err := NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		var syms *SymbolTable
		if ct.Symbols != nil {
			if syms, err = ParseSymbols(ct.Symbols); err != nil {
				return nil, fmt.Errorf("ordbms: corrupt catalog: table %s: %w", ct.Name, err)
			}
		}
		// Adopt pages the WAL allocated to this table after the catalog
		// was last saved — the catalog only learns about pages at
		// checkpoints, so after a crash the log is the page-ownership
		// truth for the gap.
		grew := false
		known := make(map[uint32]bool, len(ct.Pages))
		for _, p := range ct.Pages {
			known[p] = true
		}
		for _, p := range db.walAllocs[ct.Name] {
			if !known[p] {
				known[p] = true
				ct.Pages = append(ct.Pages, p)
				grew = true
				db.allocsGrew = true
			}
		}
		var heap *HeapFile
		if trusted && !grew {
			heap = openHeapFileWithMeta(db.pool, db.wal, ct.Pages, ct.Rows, ct.Free)
		} else if heap, err = OpenHeapFile(db.pool, db.wal, ct.Pages); err != nil {
			return nil, err
		}
		heap.tag = ct.Name
		t := &Table{db: db, name: ct.Name, schema: schema, heap: heap, indexes: make(map[string]*Index)}
		t.syms.Store(syms)
		for _, col := range ct.Indexes {
			builds = append(builds, indexBuild{t, col})
		}
		db.tables[ct.Name] = t
	}
	return builds, nil
}
