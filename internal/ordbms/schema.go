package ordbms

import "fmt"

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns, and the symbol table its
// STRING payloads are coded with (none until the table trains one; see
// Table.Schema).
type Schema struct {
	Columns []Column
	byName  map[string]int
	syms    *SymbolTable
}

// WithSymbols returns s coding its strings with st; nil codes none.
func (s Schema) WithSymbols(st *SymbolTable) Schema {
	s.syms = st
	return s
}

// Symbols returns the symbol table s codes its strings with, or nil.
func (s Schema) Symbols() *SymbolTable { return s.syms }

// NewSchema builds a schema, validating that column names are unique.
func NewSchema(cols ...Column) (Schema, error) {
	s := Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("ordbms: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return Schema{}, fmt.Errorf("ordbms: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics; for statically known schemas.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	if s.byName == nil {
		for i, c := range s.Columns {
			if c.Name == name {
				return i
			}
		}
		return -1
	}
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// Validate checks a row against the schema.  NULL is allowed in any
// column; otherwise value types must match exactly, and a ROWID's slot
// must leave the top bit clear (it marks a far payload; see RowIDSize).
func (s Schema) Validate(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("ordbms: row arity %d != schema arity %d", len(r), len(s.Columns))
	}
	for i := range r {
		v := &r[i]
		if v.Type == TypeNull {
			continue
		}
		if v.Type != s.Columns[i].Type {
			return fmt.Errorf("ordbms: column %q expects %v, got %v", s.Columns[i].Name, s.Columns[i].Type, v.Type)
		}
		if v.Type == TypeRowID && v.RowID().Slot&farBit != 0 {
			return fmt.Errorf("ordbms: column %q holds %v, a slot no page has", s.Columns[i].Name, v.RowID())
		}
	}
	return nil
}
