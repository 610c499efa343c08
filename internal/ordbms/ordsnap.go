package ordbms

// The derived snapshot (derived.nmds) persists the engine's own derived
// state — per-heap row counts and free-space maps, and the full contents
// of every secondary index — so reopening a store does not pay a heap
// scan per table.  The heap pages stay the durable truth: the snapshot
// is written only at checkpoints, stamped with the catalog generation
// and the WAL LSN the checkpoint truncates through, and is trusted on
// open only when those stamps still match and recovery replayed nothing.
// Any mismatch (crash mid-checkpoint, mutations after the checkpoint,
// corruption, version skew) silently falls back to the scan rebuild.
//
// The file is framed and stamped by CheckpointInfo.WriteSnapshotFile.  The
// payload is varint-packed, tables and index columns in
// sorted order, index keys in tree order.  Within one index, keys ascend
// and so, mostly, do the rows they point at, so both are written as
// zigzag deltas: an integer key as its distance from the previous key, a
// rid as its distance from the previous rid (within and across keys).

import (
	"encoding/binary"
	"math"
	"sort"

	"netmark/internal/btree"
)

const (
	derivedName    = "derived.nmds"
	derivedVersion = 2
)

var derivedMagic = [8]byte{'N', 'M', 'D', 'E', 'R', 'V', '1', 0}

// saveDerivedLocked serialises heap metadata and index contents for all
// tables and writes the snapshot under the checkpoint's stamps.  Caller
// holds db.mu; each table's read lock is taken while
// that table is serialised, so writers racing the checkpoint append WAL
// records past the cut LSN and invalidate the snapshot rather than
// tearing it.
//
// netmarkvet:snap-encode
func (db *DB) saveDerivedLocked(ci CheckpointInfo) error {
	buf := make([]byte, 0, 1<<16)
	names := db.tableNamesLocked()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		t := db.tables[name]
		t.mu.RLock()
		buf = appendSnapString(buf, name)
		rows, hints := t.heap.meta()
		buf = binary.AppendUvarint(buf, uint64(rows))
		buf = binary.AppendUvarint(buf, uint64(len(hints)))
		for _, pf := range hints {
			buf = binary.AppendUvarint(buf, uint64(pf.page))
			buf = binary.AppendUvarint(buf, uint64(pf.free))
		}
		cols := make([]string, 0, len(t.indexes))
		for c := range t.indexes {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		buf = binary.AppendUvarint(buf, uint64(len(cols)))
		for _, c := range cols {
			ix := t.indexes[c]
			buf = appendSnapString(buf, c)
			buf = binary.AppendUvarint(buf, uint64(ix.tree.Keys()))
			var prevKey, prevRID int64
			ix.tree.Ascend(func(v Value, rids []RowID) bool {
				buf = appendSnapValue(buf, v, &prevKey)
				buf = binary.AppendUvarint(buf, uint64(len(rids)))
				for _, rid := range rids {
					packed := int64(rid.Uint64())
					buf = binary.AppendVarint(buf, packed-prevRID)
					prevRID = packed
				}
				return true
			})
		}
		t.mu.RUnlock()
	}
	return ci.WriteSnapshotFile(derivedName, derivedMagic, derivedVersion, buf, "derived")
}

// derivedSnapshot is the decoded snapshot, keyed by table name.
type derivedSnapshot struct {
	tables map[string]*derivedTable
}

type derivedTable struct {
	rows    int64
	hints   []pageFree
	indexes map[string][]derivedKey
}

type derivedKey struct {
	v    Value
	rids []RowID
}

// loadDerivedSnapshot decodes the snapshot.  It returns nil — caller
// falls back to heap scans — when snapshots are disabled or
// ReadSnapshotFile gives a reason not to trust the file.
//
// netmarkvet:snap-decode
func (db *DB) loadDerivedSnapshot() *derivedSnapshot {
	if db.opts.NoDerivedSnapshot {
		return nil
	}
	payload, reason := db.ReadSnapshotFile(derivedName, derivedMagic, derivedVersion)
	if reason != "" {
		return nil
	}
	r := &snapReader{b: payload}
	ds := &derivedSnapshot{tables: make(map[string]*derivedTable)}
	for nt := r.uvarint(); nt > 0; nt-- {
		name := r.str()
		dt := &derivedTable{indexes: make(map[string][]derivedKey)}
		dt.rows = int64(r.uvarint())
		for nf := r.uvarint(); nf > 0 && !r.failed; nf-- {
			pf := pageFree{page: uint32(r.uvarint()), free: int32(r.uvarint())}
			if n := len(dt.hints); n > 0 && pf.page <= dt.hints[n-1].page {
				return nil // the map is kept in ascending page order
			}
			dt.hints = append(dt.hints, pf)
		}
		for nc := r.uvarint(); nc > 0; nc-- {
			col := r.str()
			nk := r.uvarint()
			if nk > uint64(len(r.b)) { // every key costs >= 1 byte
				return nil
			}
			keys := make([]derivedKey, 0, nk)
			var prevKey, prevRID int64
			for ; nk > 0; nk-- {
				var dk derivedKey
				dk.v = r.value(&prevKey)
				n := r.uvarint()
				if n > uint64(len(r.b)) {
					return nil
				}
				dk.rids = make([]RowID, n)
				for i := range dk.rids {
					prevRID += r.varint()
					dk.rids[i] = RowIDFromUint64(uint64(prevRID))
				}
				keys = append(keys, dk)
			}
			dt.indexes[col] = keys
		}
		if r.failed {
			return nil
		}
		ds.tables[name] = dt
	}
	if r.failed || r.off != len(r.b) {
		return nil
	}
	return ds
}

// openTable builds a Table from the snapshot, or reports false when the
// snapshot does not cover this table (caller falls back to scans).
//
// netmarkvet:snap-decode
func (ds *derivedSnapshot) openTable(db *DB, ct catalogTable, schema Schema) (*Table, bool) {
	dt, ok := ds.tables[ct.Name]
	if !ok {
		return nil, false
	}
	for _, col := range ct.Indexes {
		if _, ok := dt.indexes[col]; !ok {
			return nil, false
		}
	}
	t := &Table{
		db:      db,
		name:    ct.Name,
		schema:  schema,
		heap:    openHeapFileWithMeta(db.pool, db.wal, ct.Pages, dt.rows, dt.hints),
		indexes: make(map[string]*Index),
	}
	for _, col := range ct.Indexes {
		ci := schema.ColIndex(col)
		if ci < 0 {
			return nil, false
		}
		// Keys were serialised in tree order, so the O(n) bulk builder
		// replaces n log n re-insertion.
		b := btree.NewBuilder[Value, RowID](func(a, b Value) int { return a.Compare(b) }, btree.DefaultOrder)
		for _, dk := range dt.indexes[col] {
			b.Append(dk.v, dk.rids)
		}
		t.indexes[col] = &Index{Column: col, colIdx: ci, tree: b.Tree()}
	}
	return t, true
}

// appendSnapString appends a length-prefixed string.
func appendSnapString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendSnapValue appends a type-tagged index key.  Integer keys (and
// ROWIDs, which are carried as integers) are written as their distance
// from *prev, the previous such key of the index, which it updates.
func appendSnapValue(buf []byte, v Value, prev *int64) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TypeInt, TypeRowID:
		buf = binary.AppendVarint(buf, v.Int-*prev)
		*prev = v.Int
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
	case TypeString:
		buf = appendSnapString(buf, v.Str)
	case TypeBytes:
		buf = binary.AppendUvarint(buf, uint64(len(v.Bytes)))
		buf = append(buf, v.Bytes...)
	case TypeBool:
		if v.Bool {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// snapReader is a cursor over a snapshot payload.  Any decode past the
// end or malformed varint sets failed; callers check it once at the end
// (the CRC makes mid-payload corruption vanishingly unlikely, so the
// flag mostly guards against version-skew bugs).
type snapReader struct {
	b      []byte
	off    int
	failed bool
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) byte() byte {
	if r.off >= len(r.b) {
		r.failed = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *snapReader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.failed = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *snapReader) str() string {
	return string(r.take(int(r.uvarint())))
}

// value reads a key written by appendSnapValue; prev mirrors the writer's.
func (r *snapReader) value(prev *int64) Value {
	switch t := Type(r.byte()); t {
	case TypeNull:
		return Null()
	case TypeInt, TypeRowID:
		*prev += r.varint()
		return Value{Type: t, Int: *prev}
	case TypeFloat:
		return F(math.Float64frombits(r.u64()))
	case TypeString:
		return S(r.str())
	case TypeBytes:
		return B(append([]byte(nil), r.take(int(r.uvarint()))...))
	case TypeBool:
		return Bl(r.byte() != 0)
	default:
		r.failed = true
		return Null()
	}
}
