package ordbms

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// The data file holds each page as one block of a small LZ77 codec in
// the LZ4 block style: a greedy parse over one page, matches of at least
// four bytes found through a hash of the next four, and two-byte offsets.
// A page's slot directory, null bitmaps, tags and link bytes repeat
// across its rows, and its free space is zeros, which is what the codec
// takes out; the strings in it are already FSST-coded (see symbols.go).
// It costs some tens of microseconds a page each way and allocates
// nothing, where compress/flate's inflater would rebuild its Huffman
// tables, and allocate, on every page read.
//
// A block is a run of sequences.  Each starts with a token byte, its
// high nibble the count of literals that follow and its low nibble the
// match length less minMatch; a nibble of 15 goes on in bytes of 255 and
// one byte below 255.  Then come the literals, then the match's offset
// back into what is already decoded, u16 little-endian, then its length
// bytes.  The last sequence has literals alone and ends the block, which
// must decode to exactly a page.

const (
	minMatch = 4
	hashLog  = 12
)

// errCorruptBlock reports a block that does not decode to a page.
var errCorruptBlock = errors.New("ordbms: corrupt page block")

// pageScratch is a block's worth of bytes and the encoder's hash table,
// kept between page reads and writes in scratchPool.
type pageScratch struct {
	buf   [PageSize]byte
	table [1 << hashLog]uint16 // a position + 1 by hash of its four bytes; 0 is none
}

func hash4(v uint32) uint32 { return v * 2654435761 >> (32 - hashLog) }

// encodePage writes page, PageSize bytes, into s.buf as one block and
// returns the block, or nil when the block would not be shorter than the
// page: such a page is stored raw.
func (s *pageScratch) encodePage(page []byte) []byte {
	clear(s.table[:])
	dst := s.buf[:0]
	anchor := 0
	for i, misses := 0, 0; i+minMatch <= len(page); {
		v := binary.LittleEndian.Uint32(page[i:])
		h := hash4(v)
		cand := int(s.table[h]) - 1
		s.table[h] = uint16(i + 1)
		if cand < 0 || binary.LittleEndian.Uint32(page[cand:]) != v {
			// Past 32 misses in a row the parse strides, one byte more
			// every 32: coded strings seldom repeat.
			i += 1 + misses>>5
			misses++
			continue
		}
		misses = 0
		n := minMatch
		for i+n+8 <= len(page) {
			if x := binary.LittleEndian.Uint64(page[i+n:]) ^ binary.LittleEndian.Uint64(page[cand+n:]); x != 0 {
				n += bits.TrailingZeros64(x) >> 3
				goto matched
			}
			n += 8
		}
		for i+n < len(page) && page[cand+n] == page[i+n] {
			n++
		}
	matched:
		for i > anchor && cand > 0 && page[i-1] == page[cand-1] {
			i, cand, n = i-1, cand-1, n+1
		}
		if dst = appendSequence(dst, page[anchor:i], i-cand, n); dst == nil {
			return nil
		}
		i += n
		anchor = i
	}
	return appendSequence(dst, page[anchor:], 0, 0)
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

// decodePage decodes block into page, which is PageSize bytes, and
// writes nothing outside it.  A block of PageSize bytes is the page
// stored raw.
func decodePage(page, block []byte) error {
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
		if n += minMatch; !ok || offset == 0 || offset > out || n > len(page)-out {
			return errCorruptBlock
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
