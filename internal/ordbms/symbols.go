package ordbms

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// A table codes its strings with a symbol table, after FSST (Boncz,
// Neumann & Leis, "FSST: Fast Random Access String Compression", PVLDB
// 13(11), 2020): up to 255 symbols of 1 to 8 bytes, each written as its
// one-byte code, and code 255 an escape that writes the byte after it
// literally.  Every value decodes on its own, so a row still decodes
// from its record alone, and the codes never cross a value's end.
//
// Each table trains its symbol table once, on the first sampleBytes of
// STRING values it stored, in RowID order (see Table.train), logs it as
// a walSymbols record before any record coded with it, and keeps it in
// the catalog from the next checkpoint on.  Rows stored before that stay
// as they were.
const (
	maxSymbols   = 255
	maxSymbolLen = 8
	escapeCode   = 255
	// sampleBytes is how much of its strings a table is trained on.
	sampleBytes = 16 << 10
)

// SymbolTable is a table's string codec.  It never changes once built,
// so any number of goroutines may code and decode with it.
type SymbolTable struct {
	n    int
	sym  [maxSymbols]uint64 // symbol i, little-endian, zero above its length
	slen [maxSymbols]uint8
	text [maxSymbols][maxSymbolLen]byte // sym as bytes, for the decoder
	// order lists the codes by first byte, longest symbol first: the
	// codes of the symbols that begin with byte b are
	// order[start[b]:start[b+1]], so the first that matches is the
	// longest match.
	order [maxSymbols]uint8
	start [257]uint16
}

// newSymbolTable builds the table whose code i is syms[i]; each symbol
// is 1 to 8 bytes, and there are at most 255.
func newSymbolTable(syms []symbol) *SymbolTable {
	st := &SymbolTable{n: len(syms)}
	for i, s := range syms {
		st.sym[i], st.slen[i] = s.v, s.n
		binary.LittleEndian.PutUint64(st.text[i][:], s.v)
		st.order[i] = uint8(i)
	}
	order := st.order[:st.n]
	slices.SortStableFunc(order, func(a, b uint8) int {
		if c := cmp.Compare(uint8(st.sym[a]), uint8(st.sym[b])); c != 0 {
			return c
		}
		return cmp.Compare(st.slen[b], st.slen[a])
	})
	for _, c := range order {
		st.start[uint8(st.sym[c])+1]++
	}
	for b := 1; b < len(st.start); b++ {
		st.start[b] += st.start[b-1]
	}
	return st
}

// symbol is a candidate symbol: n bytes, little-endian in v.
type symbol struct {
	v uint64
	n uint8
}

// appendBinary appends the table as it is logged and kept in the
// catalog: the symbol count, then each symbol as its length and bytes.
func (st *SymbolTable) appendBinary(b []byte) []byte {
	b = append(b, byte(st.n))
	for i := 0; i < st.n; i++ {
		b = append(b, st.slen[i])
		b = append(b, st.text[i][:st.slen[i]]...)
	}
	return b
}

// ParseSymbols reads a table appendBinary wrote; b must hold exactly one.
func ParseSymbols(b []byte) (*SymbolTable, error) {
	if len(b) == 0 || b[0] > maxSymbols {
		return nil, fmt.Errorf("ordbms: symbol table of %d bytes has no valid count", len(b))
	}
	syms := make([]symbol, b[0])
	p := b[1:]
	for i := range syms {
		if len(p) == 0 || p[0] == 0 || p[0] > maxSymbolLen || int(p[0]) >= len(p) {
			return nil, fmt.Errorf("ordbms: symbol %d of the table is cut short or not 1 to %d bytes", i, maxSymbolLen)
		}
		n := p[0]
		syms[i] = symbol{load(string(p[1 : 1+n])), n}
		p = p[1+n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("ordbms: %d bytes after the symbol table", len(p))
	}
	return newSymbolTable(syms), nil
}

// load reads up to the first 8 bytes of s, little-endian.
func load(s string) (w uint64) {
	for i := min(len(s), maxSymbolLen) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	return w
}

// match returns the code of the longest symbol s begins with and its
// length, or escapeCode and 1 when none does.  s is not empty.
func (st *SymbolTable) match(s string) (code, n int) {
	var w uint64
	if len(s) >= maxSymbolLen {
		_ = s[7]
		w = uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	} else {
		w = load(s)
	}
	for _, c := range st.order[st.start[s[0]]:st.start[int(s[0])+1]] {
		if l := int(st.slen[c]); l <= len(s) && w&(^uint64(0)>>(64-8*l)) == st.sym[c] {
			return int(c), l
		}
	}
	return escapeCode, 1
}

// appendCodes appends s coded, greedily taking the longest symbol at
// each byte, unless the codes come to limit bytes or more: then it
// returns dst as it came and false.
func (st *SymbolTable) appendCodes(dst []byte, s string, limit int) ([]byte, bool) {
	mark := len(dst)
	for len(s) > 0 {
		c, n := st.match(s)
		if c == escapeCode {
			dst = append(dst, escapeCode, s[0])
		} else {
			dst = append(dst, byte(c))
		}
		if len(dst)-mark >= limit {
			return dst[:mark], false
		}
		s = s[n:]
	}
	return dst, len(dst)-mark < limit // an empty s codes no shorter
}

// decodedLen returns how many bytes codes decode to, or -1 when they are
// no coding under st: an escape with no byte after it, or a code past
// the table's symbols.  A nil table codes nothing.
func (st *SymbolTable) decodedLen(codes []byte) int {
	if st == nil {
		return -1
	}
	n := 0
	for i := 0; i < len(codes); i++ {
		switch c := codes[i]; {
		case c == escapeCode:
			if i++; i == len(codes) {
				return -1
			}
			n++
		case int(c) >= st.n:
			return -1
		default:
			n += int(st.slen[c])
		}
	}
	return n
}

// decode returns the string codes stand for.  It sizes the string first,
// so the string is its one allocation.
func (st *SymbolTable) decode(codes []byte) (string, bool) {
	n := st.decodedLen(codes)
	if n < 0 {
		return "", false
	}
	var b strings.Builder
	b.Grow(n) // the decoded string, sized once
	for i := 0; i < len(codes); i++ {
		if c := codes[i]; c != escapeCode {
			b.Write(st.text[c][:st.slen[c]])
		} else {
			i++
			b.WriteByte(codes[i])
		}
	}
	return b.String(), true
}

// trainSymbols builds a symbol table for strings like those in sample,
// as FSST does: five generations, each coding the sample with the last
// generation's table (an empty one first), counting how often each
// symbol, and each pair of symbols in a row, is used, and keeping the
// 255 symbols — pairs concatenated, up to 8 bytes — that would save the
// most bytes.  The table returned is the best generation's, rebuilt from
// its single-symbol counts.  The same sample gives the same table.
//
// Counts are kept by code: code c < 255 is symbol c of the table in
// hand, and 255+b is byte b, escaped.
func trainSymbols(sample []string) *SymbolTable {
	count1 := make([]int, maxSymbols+256)
	count2 := make(map[[2]uint16]int)
	st := newSymbolTable(nil)
	best, bestGain := st, math.MinInt
	var bestCount1 []int
	for gen := 0; ; gen++ {
		clear(count1)
		clear(count2)
		last := gen == 4 // it only ranks what it has: no pairs, no next table
		gain := 0
		for _, s := range sample {
			prev := -1
			for len(s) > 0 {
				c, n := st.match(s)
				if c == escapeCode {
					c = maxSymbols + int(s[0])
					gain--
				} else {
					gain += n - 1
				}
				count1[c]++
				if n > 1 {
					count1[maxSymbols+int(s[0])]++ // the byte on its own, the alternative
				}
				if !last && prev >= 0 {
					count2[[2]uint16{uint16(prev), uint16(c)}]++
				}
				prev = c
				s = s[n:]
			}
		}
		if gain >= bestGain {
			best, bestGain = st, gain
			bestCount1 = slices.Clone(count1)
		}
		if last {
			return makeTable(best, bestCount1, nil)
		}
		st = makeTable(st, count1, count2)
	}
}

// makeTable ranks the candidates the counts of a generation coded with
// st name: each code used on its own, and each pair of codes used in a
// row, concatenated.  A candidate's gain is how often it was used times
// its length; the 255 with the most gain make the next table.
func makeTable(st *SymbolTable, count1 []int, count2 map[[2]uint16]int) *SymbolTable {
	symOf := func(c int) symbol {
		if c >= maxSymbols {
			return symbol{uint64(c - maxSymbols), 1}
		}
		return symbol{st.sym[c], st.slen[c]}
	}
	gains := make(map[symbol]int)
	for c, n := range count1 {
		if n > 0 {
			s := symOf(c)
			gains[s] += n * int(s.n)
		}
	}
	for pair, n2 := range count2 {
		s1, s2 := symOf(int(pair[0])), symOf(int(pair[1]))
		if s1.n == maxSymbolLen {
			continue
		}
		n := min(s1.n+s2.n, maxSymbolLen)
		v := (s1.v | s2.v<<(8*s1.n)) & (^uint64(0) >> (64 - 8*uint(n)))
		gains[symbol{v, n}] += n2 * int(n)
	}
	type cand struct {
		s    symbol
		gain int
	}
	cands := make([]cand, 0, len(gains))
	for s, g := range gains {
		cands = append(cands, cand{s, g})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.gain, a.gain); c != 0 {
			return c
		}
		if c := cmp.Compare(b.s.n, a.s.n); c != 0 {
			return c
		}
		return cmp.Compare(a.s.v, b.s.v)
	})
	syms := make([]symbol, 0, maxSymbols)
	for _, c := range cands[:min(len(cands), maxSymbols)] {
		syms = append(syms, c.s)
	}
	return newSymbolTable(syms)
}
