package ordbms

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

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
// record set (see walMagic, which carries the same number), the catalog
// itself and the schemas of the tables the XML store keeps in it.  There
// is one codec and no second reader, so the policy is: any change to what
// a page, a log record, the catalog or a stored row means bumps it, and
// Open refuses every other value.
const storeFormat = 12

// ErrStoreFormat reports a store directory written in a format this
// version does not read.  Open refuses it without writing anything.
var ErrStoreFormat = fmt.Errorf("ordbms: store is not in on-disk format %d; re-ingest with this version", storeFormat)

type catalogFile struct {
	Format int `json:"format"`
	// Generation counts catalog saves.  A store-level snapshot written by
	// a pre-checkpoint hook (see WriteSnapshotFile) is stamped with the
	// generation it was written under; a snapshot whose stamp does not
	// match the catalog on disk is from a different checkpoint and must
	// be ignored.
	Generation uint64         `json:"generation"`
	Tables     []catalogTable `json:"tables"`
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

// saveCatalogLocked persists the catalog under the given generation.
// The write is crash-durable: temp file, fsync, rename, directory fsync.
// Without the fsync a crash right after DB.Checkpoint truncates the WAL
// could lose the catalog while the log that could have reconstructed the
// table layout is already gone.  Caller holds db.mu; each table is read
// under its read lock, so its page list, row count and free-space map
// agree with each other.  A writer racing the checkpoint logs past the
// cut, and the reopen that finds its record scans instead.
//
// netmarkvet:snap-encode
func (db *DB) saveCatalogLocked(gen uint64) error {
	if db.dir == "" {
		return nil
	}
	cf := catalogFile{Format: storeFormat, Generation: gen}
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
		t.mu.RUnlock()
		cf.Tables = append(cf.Tables, ct)
	}
	b, err := json.Marshal(&cf)
	if err != nil {
		return err
	}
	ci := CheckpointInfo{Dir: db.dir, FS: db.fs}
	return ci.commitFile(catalogName, b)
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

// check refuses page lists and heap metadata no checkpoint writes: the
// reserved page 0, a page listed twice, in one table or two, a negative
// row count, or a free-space map that is out of page order, names a page
// its table does not own or gives a page no room or more than a page.
func (cf *catalogFile) check() error {
	owner := make(map[uint32]int) // page → 1 + the index of the table listing it
	for i, ct := range cf.Tables {
		for _, p := range ct.Pages {
			if p == 0 || owner[p] != 0 {
				return fmt.Errorf("table %s: page %d is the reserved page or listed twice", ct.Name, p)
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
	db.catalogGen = cf.Generation
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
