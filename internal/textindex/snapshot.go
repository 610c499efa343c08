package textindex

// Posting-list (de)serialisation.  The index is derived state — the heap
// is the durable truth — but rebuilding it on every open costs a full
// corpus scan, so the XML store checkpoints it inside the engine's
// checkpoint critical section and reloads it on open when the snapshot's
// stamps prove the heap has not moved (see xmlstore's snapshot).
//
// The encoding shares one codec with the in-memory layout: per term,
// the sealed blocks verbatim (their bytes are already delta+varint
// packed), then the uncompressed tail and tombstone lists as delta
// varints — ids only, so a snapshot save is mostly a copy and a load
// rebuilds each posting list without re-encoding anything.  The store's
// snapshot version covers this encoding: xmlstore snapshot v6 is the
// first without a token-position list per (term, id) pair.
//
// The legacy v1 encoding (flat delta-varint id lists, from before
// posting lists were block-compressed) is not decoded: v1 files also
// predate the current tokenizer contract, so the store treats them as
// version skew and falls back to the derived rebuild, which walks and
// retokenizes every document (see xmlstore's snapshot version check).

import (
	"encoding/binary"
	"fmt"
	"strings"

	"netmark/internal/btree"
)

// AppendSnapshot serialises the index onto buf and returns the extended
// slice.  The encoding is self-delimiting:
// LoadSnapshot reports how many bytes it consumed, so callers can embed
// the index inside a larger snapshot payload.
//
// netmarkvet:snap-encode
func (ix *Index) AppendSnapshot(buf []byte) []byte {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	buf = binary.AppendUvarint(buf, uint64(ix.terms.Keys()))
	ix.terms.Ascend(func(term string, pls []*postingList) bool {
		pl := pls[0]
		buf = binary.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
		buf = binary.AppendUvarint(buf, uint64(len(pl.blocks)))
		for _, b := range pl.blocks {
			buf = binary.AppendUvarint(buf, uint64(b.n))
			buf = binary.AppendUvarint(buf, b.maxID)
			buf = binary.AppendUvarint(buf, uint64(len(b.data)))
			buf = append(buf, b.data...)
		}
		buf = appendDeltaIDs(buf, pl.tail)
		buf = appendDeltaIDs(buf, pl.dead)
		return true
	})
	return buf
}

func appendDeltaIDs(buf []byte, ids []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := uint64(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id-prev)
		prev = id
	}
	return buf
}

// LoadSnapshot decodes an index serialised by AppendSnapshot from the
// front of data, returning the rebuilt index and the number of bytes
// consumed.  Block payloads are copied into shared arenas (not aliased)
// so the caller's snapshot buffer — which also carries every other
// derived structure — can be released to the GC, and every
// block is validated before anything trusts its framing: decodeBlock
// has no bounds checks and seekGE trusts maxID, so a corrupt block that
// slipped past the file CRC must surface here as an error (the store
// falls back to the scan rebuild), never as a panic at Open.
//
// netmarkvet:snap-decode
// netmarkvet:ignore lockcheck — builds a fresh index nothing else can
// reach until it returns
func LoadSnapshot(data []byte) (*Index, int, error) {
	off := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("textindex: truncated snapshot at byte %d", off)
		}
		off += n
		return v, nil
	}
	readDeltaIDs := func() ([]uint64, error) {
		n, err := uv()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) { // every id costs >= 1 byte
			return nil, fmt.Errorf("textindex: implausible id count %d", n)
		}
		if n == 0 {
			return nil, nil
		}
		ids := make([]uint64, n)
		id := uint64(0)
		for i := range ids {
			d, err := uv()
			if err != nil {
				return nil, err
			}
			if i > 0 && d == 0 {
				return nil, fmt.Errorf("textindex: id list not strictly ascending at byte %d", off)
			}
			id += d
			ids[i] = id
		}
		return ids, nil
	}
	// Mutation generations are process-local cache keys and are not part
	// of the encoding: every loaded term starts at 1 with the counter at
	// 1, and the next posting change moves the term to 2 or beyond.
	ix := New()
	ix.genCounter = 1
	nTerms, err := uv()
	if err != nil {
		return nil, 0, err
	}
	// Terms were serialised in tree order: bulk-build the term tree
	// instead of paying a descent per insert.
	tb := btree.NewBuilder[string, *postingList](strings.Compare, btree.DefaultOrder)
	var arena []byte // shared backing for copied block payloads
	var prevTerm string
	for t := uint64(0); t < nTerms; t++ {
		tlen, err := uv()
		if err != nil {
			return nil, 0, err
		}
		// compare in uint64: int(tlen) of a huge varint wraps negative
		// and would bypass the bound
		if tlen > uint64(len(data)-off) {
			return nil, 0, fmt.Errorf("textindex: truncated term at byte %d", off)
		}
		term := string(data[off : off+int(tlen)])
		off += int(tlen)
		// the builder needs strictly ascending terms
		if t > 0 && term <= prevTerm {
			return nil, 0, fmt.Errorf("textindex: term %q out of order", term)
		}
		prevTerm = term
		pl := &postingList{gen: 1}
		nBlocks, err := uv()
		if err != nil {
			return nil, 0, err
		}
		if nBlocks > uint64(len(data)) {
			return nil, 0, fmt.Errorf("textindex: implausible block count %d", nBlocks)
		}
		physical := 0
		if nBlocks > 0 {
			prevMax := uint64(0)
			pl.blocks = make([]block, nBlocks)
			for i := range pl.blocks {
				n, err := uv()
				if err != nil {
					return nil, 0, err
				}
				maxID, err := uv()
				if err != nil {
					return nil, 0, err
				}
				dlen, err := uv()
				if err != nil {
					return nil, 0, err
				}
				// every encoded id costs at least one byte, so n > dlen
				// cannot describe a real block; bounds compare in uint64
				// because int(dlen) of a huge varint wraps negative
				if n == 0 || dlen == 0 || dlen > uint64(len(data)-off) || n > dlen {
					return nil, 0, fmt.Errorf("textindex: corrupt block header at byte %d", off)
				}
				if cap(arena)-len(arena) < int(dlen) {
					c := 1 << 16
					if int(dlen) > c {
						c = int(dlen)
					}
					arena = make([]byte, 0, c)
				}
				start := len(arena)
				arena = append(arena, data[off:off+int(dlen)]...)
				b := block{
					maxID: maxID,
					n:     int(n),
					data:  arena[start : start+int(dlen) : start+int(dlen)],
				}
				if err := checkBlock(b); err != nil {
					return nil, 0, err
				}
				// seekGE skips blocks by maxID, which needs the blocks
				// themselves to be mutually ascending: each block's first
				// id (its leading delta from zero) must follow the
				// previous block's maxID.
				first, _ := binary.Uvarint(b.data)
				if i > 0 && first <= prevMax {
					return nil, 0, fmt.Errorf("textindex: blocks out of order for %q", term)
				}
				prevMax = b.maxID
				pl.blocks[i] = b
				off += int(dlen)
				physical += int(n)
			}
		}
		if pl.tail, err = readDeltaIDs(); err != nil {
			return nil, 0, err
		}
		if pl.dead, err = readDeltaIDs(); err != nil {
			return nil, 0, err
		}
		physical += len(pl.tail)
		pl.live = physical - len(pl.dead)
		if pl.live < 0 {
			return nil, 0, fmt.Errorf("textindex: more tombstones than ids for %q", term)
		}
		tb.Append(term, []*postingList{pl})
	}
	ix.terms = tb.Tree()
	return ix, off, nil
}
