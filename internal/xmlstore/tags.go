package xmlstore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
)

// The TAG table is the store's name dictionary.  Fig 5 gives every XML
// row its own NODETYPE and NODENAME, so every row repeats its element
// name in full, yet a corpus uses a handful of names.  Here each distinct
// (nodetype, nodename) pair the store has seen is one TAG row with a
// small integer code, 0, 1, 2, … in order of first use, and an XML row
// stores the code: one byte for the first 64 pairs.
//
// TAG rows are never deleted, so a code, once assigned, means its pair
// for the life of the store.  The pairs a document is the first to use
// are inserted as one TAG run — and so logged — before the document's XML
// run: a log prefix that recovers a row recovers its tag.

// Column order of the TAG table.
const (
	tagColTag = iota
	tagColNodeType
	tagColNodeName
)

var tagSchema = ordbms.MustSchema(
	ordbms.Column{Name: "tag", Type: ordbms.TypeInt},
	ordbms.Column{Name: "nodetype", Type: ordbms.TypeInt},
	ordbms.Column{Name: "nodename", Type: ordbms.TypeString},
)

// tagPair is what a tag code stands for.  A text node's name is "".
type tagPair struct {
	class sgml.NodeClass
	name  string
}

// tagDict is the in-memory copy of the TAG table.  Readers index the
// published slice without a lock; a writer appends past the published
// length and publishes the longer slice, so no reader ever sees an entry
// change and the dictionary is copied only when append outgrows it.
type tagDict struct {
	// mu serialises code assignment: the lookup, the TAG rows' insert
	// and the publication happen as one step, so no other writer can use
	// a code before its row is logged.  It is held across the insert (a
	// table write), never by readers.  netmarkvet:lockorder 15
	mu    sync.Mutex
	codes map[tagPair]int64 // guarded by mu

	view atomic.Pointer[[]tagPair] // view[code] is the pair code stands for
}

// pair maps a code to its pair; ok is false for a code the store never
// assigned — a corrupt record.
func (d *tagDict) pair(code int64) (p tagPair, ok bool) {
	v := *d.view.Load() // installed by Open
	if code < 0 || code >= int64(len(v)) {
		return tagPair{}, false
	}
	return v[code], true
}

// known returns the code of a pair the dictionary already holds.
func (d *tagDict) known(p tagPair) (int64, bool) {
	d.mu.Lock()
	code, ok := d.codes[p]
	d.mu.Unlock()
	return code, ok
}

// install replaces the dictionary with pairs, code i standing for
// pairs[i].  Runs during OpenWith, before the store is shared.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (d *tagDict) install(pairs []tagPair) {
	d.codes = make(map[tagPair]int64, len(pairs))
	for i, p := range pairs {
		d.codes[p] = int64(i)
	}
	d.view.Store(&pairs)
}

// tagCodes returns the code of each pair, assigning the next ones, in
// order, to pairs the dictionary does not hold.  Their TAG rows go in as
// one run, and only once it is logged do the new codes exist for anyone.
func (s *Store) tagCodes(pairs []tagPair) ([]int64, error) {
	d := &s.tags
	d.mu.Lock()
	defer d.mu.Unlock()
	v := *d.view.Load() // installed by Open
	published := len(v)
	codes := make([]int64, len(pairs))
	for i, p := range pairs {
		code, ok := d.codes[p]
		if !ok {
			// The name may be a slice of a whole parsed document; the
			// dictionary keeps only the name.
			p.name = strings.Clone(p.name)
			code = int64(len(v))
			v = append(v, p) // past every published length: no reader looks there
			d.codes[p] = code
		}
		codes[i] = code
	}
	added := v[published:]
	if len(added) == 0 {
		return codes, nil
	}
	recs := make([][]byte, len(added))
	schema := s.tag.Schema()
	raw, stored := 0, 0
	var err error
	for i, p := range added {
		row := ordbms.Row{ordbms.I(int64(published + i)), ordbms.I(int64(p.class)), optString(p.name)}
		if err = schema.Validate(row); err != nil {
			break
		}
		var r, st int
		recs[i], r, st = schema.EncodeOffsets(nil, nil, row, ordbms.ZeroRowID, 0)
		raw, stored = raw+r, stored+st
	}
	if err == nil {
		_, err = s.tag.InsertRun(recs, raw, stored, nil)
	}
	if err != nil {
		for _, p := range added {
			delete(d.codes, p)
		}
		return nil, fmt.Errorf("xmlstore: insert %d TAG rows: %w", len(added), err)
	}
	d.view.Store(&v)
	return codes, nil
}

// loadTags reads the TAG table into the dictionary.
func (s *Store) loadTags() error {
	var rows []ordbms.Row
	err := s.tag.Scan(func(_ ordbms.RowID, row ordbms.Row) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return err
	}
	pairs, err := tagPairs(rows)
	if err != nil {
		return err
	}
	s.tags.install(pairs)
	return nil
}

// tagPairs orders TAG rows by code.  The codes must be exactly 0 … n-1,
// each naming a different pair of a node class and a name; anything else
// means the table cannot be trusted to decode a single XML row.
func tagPairs(rows []ordbms.Row) ([]tagPair, error) {
	pairs := make([]tagPair, len(rows))
	filled := make([]bool, len(rows))
	seen := make(map[tagPair]bool, len(rows))
	for _, row := range rows {
		code, class := row[tagColTag], row[tagColNodeType]
		if code.IsNull() || code.Int < 0 || code.Int >= int64(len(rows)) || filled[code.Int] {
			return nil, fmt.Errorf("xmlstore: TAG holds code %v; its %d codes must be 0 to %d, each once", code, len(rows), len(rows)-1)
		}
		if class.Int < int64(sgml.ClassElement) || class.Int > int64(sgml.ClassSimulation) {
			return nil, fmt.Errorf("xmlstore: TAG code %d has nodetype %v, not a node class", code.Int, class)
		}
		p := tagPair{class: sgml.NodeClass(class.Int), name: row[tagColNodeName].Str}
		if seen[p] {
			return nil, fmt.Errorf("xmlstore: TAG names %v %q twice", p.class, p.name)
		}
		seen[p], filled[code.Int], pairs[code.Int] = true, true, p
	}
	return pairs, nil
}
