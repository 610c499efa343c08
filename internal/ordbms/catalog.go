package ordbms

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"netmark/internal/vfs"
)

// The catalog records table metadata: schemas, heap page lists, which
// indexes to rebuild on open, and each table's symbol table.  It is
// persisted as JSON next to the data file at every checkpoint — the
// simple, inspectable choice for a reproduction (a production engine
// would self-host it in pages).

// storeFormat is the on-disk format version: the record codec, the WAL
// record set (see walMagic, which carries the same number), the catalog
// itself and the schemas of the tables the XML store keeps in it.  There
// is one codec and no second reader, so the policy is: any change to what
// a page, a log record, the catalog or a stored row means bumps it, and
// Open refuses every other value.
const storeFormat = 11

// ErrStoreFormat reports a store directory written in a format this
// version does not read.  Open refuses it without writing anything.
var ErrStoreFormat = fmt.Errorf("ordbms: store is not in on-disk format %d; re-ingest with this version", storeFormat)

type catalogFile struct {
	Format int `json:"format"`
	// Generation counts catalog saves.  Derived-state snapshots (the
	// engine's own index/heap-meta snapshot and any store-level snapshot
	// written by a pre-checkpoint hook) are stamped with the generation
	// they were written under; a snapshot whose stamp does not match the
	// catalog on disk is from a different checkpoint and must be ignored.
	Generation uint64         `json:"generation"`
	Tables     []catalogTable `json:"tables"`
}

type catalogTable struct {
	Name    string          `json:"name"`
	Columns []catalogColumn `json:"columns"`
	Pages   []uint32        `json:"pages"`
	Indexes []string        `json:"indexes"`
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
// table layout is already gone.
func (db *DB) saveCatalogLocked(gen uint64) error {
	if db.dir == "" {
		return nil
	}
	cf := catalogFile{Format: storeFormat, Generation: gen}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		ct := catalogTable{Name: t.name, Pages: t.heap.Pages()}
		if st := t.syms.Load(); st != nil {
			ct.Symbols = st.appendBinary(nil)
		}
		for _, c := range t.schema.Columns {
			ct.Columns = append(ct.Columns, catalogColumn{Name: c.Name, Type: uint8(c.Type)})
		}
		for col := range t.indexes {
			ct.Indexes = append(ct.Indexes, col)
		}
		cf.Tables = append(cf.Tables, ct)
	}
	b, err := json.Marshal(&cf)
	if err != nil {
		return err
	}
	ci := CheckpointInfo{Dir: db.dir, FS: db.fs, Fault: db.ckptFault}
	return ci.commitFile(catalogName, b, "catalog")
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
// store.  A catalog of another format version is ErrStoreFormat.
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
	return &cf, nil
}

// loadCatalog rebuilds the table set from the catalog readCatalog
// returned, during Open, before the DB is shared with any other goroutine.
// It returns the secondary indexes the derived snapshot did not load: Open
// builds them once the log has given every table its symbol table.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (db *DB) loadCatalog(cf *catalogFile) (builds []indexBuild, err error) {
	if cf == nil {
		return nil, nil // fresh store
	}
	db.catalogGen = cf.Generation
	// A valid derived snapshot replaces the per-table heap scans (row
	// count, free-space map, secondary index rebuilds) with direct loads.
	der := db.loadDerivedSnapshot()
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
		if der != nil && !grew {
			if t, ok := der.openTable(db, ct, schema); ok {
				t.heap.tag = ct.Name
				t.syms.Store(syms)
				db.tables[ct.Name] = t
				db.DerivedLoads++
				continue
			}
		}
		heap, err := OpenHeapFile(db.pool, db.wal, ct.Pages)
		if err != nil {
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
