package ordbms

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// The data file holds each page as one block of a small LZ77 codec in
// the LZ4 block style, with two-byte offsets.  A block's matches may
// reach back past its page's start into the store dictionary, which
// logically lies in front of the page: some pages of the store, trained
// once (see DB.trainDict) and never changed after.  Pages repeat one
// another's slot layouts, tags, link bytes and symbol-coded words, so a
// page coded alone pays again for what its neighbours hold; against the
// dictionary, it mostly points back.  The dictionary holds at most
// dictMax bytes, so every byte of it is in reach of an offset from
// anywhere in a page.  A block written before the store had a
// dictionary never reaches past its page's start and decodes as it did.
//
// The parse follows hash chains, chainDepth long, over the dictionary
// and the page so far, taking the longest match found of at least four
// bytes, or the one a position later when that one is longer (a lazy
// step).  The dictionary's index is built once, at the first page
// encoded against it, and shared, so a store that only reads never
// builds it; a page's encode copies its chain heads and adds the page's
// positions behind them.  A page's free space is zeros and its strings
// are already FSST-coded (see symbols.go).  On a
// 2-CPU Xeon shared with other work, a page of the mixed corpus decodes
// in about 10 µs and encodes in about 0.2 ms against a dictionary; the
// chains encode at twice a greedy parse's cost over the same dictionary
// and store a page in 0.87 of its bytes.
// Decoding allocates nothing, where compress/flate's inflater would
// rebuild its Huffman tables, and allocate, on every page read.
//
// A block is a run of sequences.  Each starts with a token byte, its
// high nibble the count of literals that follow and its low nibble the
// match length less minMatch; a nibble of 15 goes on in bytes of 255 and
// one byte below 255.  Then come the literals, then the match's offset
// back into what is already decoded, the dictionary in front of it,
// u16 little-endian, then its length bytes.  The last sequence has
// literals alone and ends the block, which must decode to exactly a
// page.

const (
	minMatch = 4
	// hashLog sizes the chain heads, by hash of a position's five bytes.
	hashLog = 14
	// chainDepth is how many positions of one hash a match is sought at.
	chainDepth = 8
	// dictMax is the most bytes a store dictionary holds: with a page
	// behind it, the window is 64 KiB, every byte of it a u16 offset back
	// from the page's last.
	dictMax = 1<<16 - PageSize
)

// errCorruptBlock reports a block that does not decode to a page.
var errCorruptBlock = errors.New("ordbms: corrupt page block")

// pageDict is a store dictionary and the encoder's index over it.  Its
// positions are the window's: the dictionary's bytes come first, the
// page's after them.  It is read-only once indexed.
type pageDict struct {
	data []byte
	// indexed builds head and prev, at the first encode (see index).
	indexed sync.Once
	// head is, by hash, the last position with that hash plus one; 0 is
	// none.
	head *[1 << hashLog]uint16
	// prev is, by position, how far back the position before it with the
	// same hash lies; 0 is none.
	prev []uint16
}

// noDict is the dictionary of a store that has none.
var noDict = newPageDict(nil)

// newPageDict makes data, at most dictMax bytes, a dictionary.  Decoding
// needs its bytes alone; the encoder's index waits for the first encode.
func newPageDict(data []byte) *pageDict { return &pageDict{data: data} }

// index builds the encoder's index over the dictionary, once.
func (d *pageDict) index() {
	d.indexed.Do(func() {
		d.head, d.prev = new([1 << hashLog]uint16), make([]uint16, len(d.data))
		for p := 0; p+8 <= len(d.data); p++ {
			h := hash5(binary.LittleEndian.Uint64(d.data[p:]))
			if last := int(d.head[h]); last > 0 {
				d.prev[p] = uint16(p + 1 - last)
			}
			d.head[h] = uint16(p + 1)
		}
	})
}

// pageScratch is a block's worth of bytes and the encoder's chains, kept
// between page writes in scratchPool.
type pageScratch struct {
	buf  [PageSize]byte
	head [1 << hashLog]uint16 // as pageDict.head, over the dictionary and the page
	prev [PageSize]uint16     // as pageDict.prev, by page position
	next int                  // the first page position not yet in the chains
}

// hash5 hashes the low five bytes of v.
func hash5(v uint64) uint32 { return uint32(v << 24 * 889523592379 >> (64 - hashLog)) }

// encodePage writes page, PageSize bytes, into s.buf as one block
// against d and returns the block, or nil when the block would not be
// shorter than the page: such a page is stored raw.
func (s *pageScratch) encodePage(page []byte, d *pageDict) []byte {
	d.index()
	s.head, s.next = *d.head, 0
	base := len(d.data) // page[0]'s window position
	dst := s.buf[:0]
	anchor := 0
	for i := 0; i+8 <= len(page); {
		n, from := s.longest(page, d, i)
		if n == 0 {
			i++
			continue
		}
		if i+9 <= len(page) {
			if n2, from2 := s.longest(page, d, i+1); n2 > n {
				i, n, from = i+1, n2, from2
			}
		}
		for i > anchor && from > 0 && page[i-1] == d.at(page, from-1) {
			i, from, n = i-1, from-1, n+1
		}
		if dst = appendSequence(dst, page[anchor:i], base+i-from, n); dst == nil {
			return nil
		}
		i += n
		anchor = i
	}
	return appendSequence(dst, page[anchor:], 0, 0)
}

// at returns the byte at window position w, in d or page behind it.
func (d *pageDict) at(page []byte, w int) byte {
	if w < len(d.data) {
		return d.data[w]
	}
	return page[w-len(d.data)]
}

// longest returns the longest match for page[i:], which has eight bytes,
// among the chainDepth latest positions with its hash, as its length and
// window position; a length of 0 is none.  It enters every position up
// to i in the chains first.
func (s *pageScratch) longest(page []byte, d *pageDict, i int) (n, from int) {
	base := len(d.data)
	for ; s.next <= i; s.next++ {
		h := hash5(binary.LittleEndian.Uint64(page[s.next:]))
		w := base + s.next
		s.prev[s.next] = 0
		if last := int(s.head[h]); last > 0 {
			s.prev[s.next] = uint16(w + 1 - last)
		}
		s.head[h] = uint16(w + 1)
	}
	// A candidate is measured only when its first four bytes and the one
	// that would make it longer than the best so far agree.
	v := binary.LittleEndian.Uint32(page[i:])
	w := base + i
	for k := 0; k < chainDepth; k++ {
		var dist uint16
		if w < base {
			dist = d.prev[w]
		} else {
			dist = s.prev[w-base]
		}
		if dist == 0 {
			break
		}
		w -= int(dist)
		var head uint32
		if w < base {
			head = binary.LittleEndian.Uint32(d.data[w:])
		} else {
			head = binary.LittleEndian.Uint32(page[w-base:])
		}
		if head != v || (n > 0 && d.at(page, w+n) != page[i+n]) {
			continue
		}
		if m := matchLen(page, d.data, w, i); m > n {
			n, from = m, w
			if i+n == len(page) {
				break
			}
		}
	}
	if n < minMatch {
		return 0, 0
	}
	return n, from
}

// matchLen returns how many bytes from window position w, which lies
// before page position i, equal those from page[i:].  A match from the
// dictionary may run on into the page.
func matchLen(page, dict []byte, w, i int) int {
	n := 0
	if w < len(dict) {
		src := dict[w:]
		lim := min(len(src), len(page)-i)
		for n+8 <= lim {
			if x := binary.LittleEndian.Uint64(page[i+n:]) ^ binary.LittleEndian.Uint64(src[n:]); x != 0 {
				return n + bits.TrailingZeros64(x)>>3
			}
			n += 8
		}
		for n < lim && src[n] == page[i+n] {
			n++
		}
		if n < len(src) {
			return n
		}
	}
	for j, c := i+n, w+n-len(dict); ; {
		if j+8 > len(page) {
			for j < len(page) && page[c] == page[j] {
				j, c = j+1, c+1
			}
			return j - i
		}
		if x := binary.LittleEndian.Uint64(page[j:]) ^ binary.LittleEndian.Uint64(page[c:]); x != 0 {
			return j - i + bits.TrailingZeros64(x)>>3
		}
		j, c = j+8, c+8
	}
}

// appendSequence appends one sequence to dst — lits, then a match of n
// bytes offset back, or none when n is 0 — or returns nil when the block
// would reach a page's length.
func appendSequence(dst, lits []byte, offset, n int) []byte {
	need := len(dst) + 1 + len(lits)/255 + 1 + len(lits)
	if n > 0 {
		need += 2 + (n-minMatch)/255 + 1
	}
	if need >= PageSize {
		return nil
	}
	lit, ml := min(len(lits), 15), 0
	if n > 0 {
		ml = min(n-minMatch, 15)
	}
	dst = append(dst, byte(lit<<4|ml))
	dst = appendLength(dst, len(lits))
	dst = append(dst, lits...)
	if n == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
	return appendLength(dst, n-minMatch)
}

// appendLength appends the bytes that carry a length past its nibble.
func appendLength(dst []byte, n int) []byte {
	if n < 15 {
		return dst
	}
	for n -= 15; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// decodePage decodes block into page, which is PageSize bytes, against
// the dictionary dict, and writes nothing outside page.  A block of
// PageSize bytes is the page stored raw.
func decodePage(page, block, dict []byte) error {
	if len(block) == PageSize {
		copy(page, block)
		return nil
	}
	out := 0
	for in := 0; ; {
		if in >= len(block) {
			return errCorruptBlock
		}
		token := block[in]
		in++
		lit, ok := readLength(block, &in, int(token>>4))
		if !ok || lit > len(block)-in || lit > len(page)-out {
			return errCorruptBlock
		}
		// A short run is moved as 16 bytes when both sides have them: what
		// lands past its end the next sequence writes over.
		if lit <= 16 && len(block)-in >= 16 && len(page)-out >= 16 {
			*(*[16]byte)(page[out:]) = *(*[16]byte)(block[in:])
		} else {
			copy(page[out:], block[in:in+lit])
		}
		out += lit
		if in += lit; in == len(block) {
			if out != len(page) {
				return errCorruptBlock
			}
			return nil
		}
		if len(block)-in < 2 {
			return errCorruptBlock
		}
		offset := int(binary.LittleEndian.Uint16(block[in:]))
		in += 2
		n, ok := readLength(block, &in, int(token&15))
		if n += minMatch; !ok || offset == 0 || offset > out+len(dict) || n > len(page)-out {
			return errCorruptBlock
		}
		if offset > out {
			// The match starts in the dictionary; what of it lies past the
			// dictionary's end comes from the page's start.
			from := len(dict) - (offset - out)
			if n <= 16 && n <= offset-out && len(dict)-from >= 16 && len(page)-out >= 16 {
				*(*[16]byte)(page[out:]) = *(*[16]byte)(dict[from:])
				out += n
				continue
			}
			k := copy(page[out:out+n], dict[from:])
			if out, n = out+k, n-k; n == 0 {
				continue
			}
		}
		from := out - offset
		if offset >= 8 && n <= 16 && len(page)-out >= 16 {
			// Two moves of 8, the second reading what the first wrote
			// when the offset is under 16, as the format means.
			*(*[8]byte)(page[out:]) = *(*[8]byte)(page[from:])
			*(*[8]byte)(page[out+8:]) = *(*[8]byte)(page[from+8:])
			out += n
			continue
		}
		// Each copy doubles the run it copies from, so an offset shorter
		// than the match repeats its bytes as the format means.
		for n > 0 {
			k := copy(page[out:out+n], page[from:out])
			out += k
			n -= k
		}
	}
}

// readLength returns a length whose nibble is nib, reading the bytes
// past it from block at *in.
func readLength(block []byte, in *int, nib int) (int, bool) {
	if nib < 15 {
		return nib, true
	}
	n := nib
	for {
		if *in >= len(block) || n > PageSize {
			return 0, false
		}
		b := block[*in]
		*in++
		n += int(b)
		if b < 255 {
			return n, true
		}
	}
}
