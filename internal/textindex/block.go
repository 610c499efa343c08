package textindex

// Block-compressed posting-list storage.
//
// A posting list's ids live in two tiers: sealed blocks of up to
// blockSize ids, delta+varint encoded with a maxID skip entry, and a
// small uncompressed sorted tail that absorbs in-place appends.  When
// the tail reaches blockSize ids that all sort after the last sealed
// block it is sealed into new blocks; a tail that overlaps sealed
// ranges (out-of-order inserts, rare — RowIDs almost always ascend) is
// folded in by a full rebuild once it outgrows its slack.  Removals of
// block-resident ids tombstone into a sorted dead list and trigger a
// compaction once tombstones reach a quarter of the physical ids.
//
// Readers never decode under the index lock: they capture a view (four
// slice headers) under a brief RLock and iterate outside it.  That is
// safe because every published byte is immutable — blocks are never
// mutated after encoding, and the tail/dead slices are either replaced
// wholesale (copy-on-write) or appended to strictly past the highest
// index any previously captured view can reach.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// blockSize is the number of ids per sealed block.  128 keeps a decoded
// block in two cache lines' worth of uint64s while making the maxID
// skip list 128x smaller than the ids it covers.
const blockSize = 128

// sealChunk is how many tail ids accumulate before the tail is folded
// into the block tier (merging with a partial final block).  Smaller
// values shrink the uncompressed tails at the cost of re-encoding each
// id up to blockSize/sealChunk times on ingest.
const sealChunk = 32

// blockOverhead approximates the in-memory bookkeeping cost of one
// sealed block (maxID + count + slice header) for the stats report.
const blockOverhead = 40

// block is an immutable run of strictly ascending ids: a varint first
// id followed by varint deltas.  maxID is the skip entry — a seek for
// id > maxID passes the block without decoding it.
type block struct {
	maxID uint64
	n     int
	data  []byte
}

// encodeBlock seals ids (sorted, non-empty) into a block.
func encodeBlock(ids []uint64) block {
	data := make([]byte, 0, 2*len(ids))
	prev := uint64(0)
	for _, id := range ids {
		if d := id - prev; d < 0x80 {
			data = append(data, byte(d))
		} else {
			data = binary.AppendUvarint(data, d)
		}
		prev = id
	}
	return block{maxID: ids[len(ids)-1], n: len(ids), data: data}
}

// decodeBlock appends the block's ids to dst.  The one-byte-delta fast
// path matters: ids are packed RowIDs, so most deltas are a handful of
// slots and fit one varint byte.
func decodeBlock(b block, dst []uint64) []uint64 {
	id := uint64(0)
	data := b.data
	off := 0
	for i := 0; i < b.n; i++ {
		if c := data[off]; c < 0x80 {
			id += uint64(c)
			off++
		} else {
			d, n := binary.Uvarint(data[off:])
			id += d
			off += n
		}
		dst = append(dst, id)
	}
	return dst
}

// holds reports whether id is one of the block's ids.  It decodes in
// place, stopping at the first id at or past id.
func (b block) holds(id uint64) bool {
	cur, off := uint64(0), 0
	for i := 0; i < b.n; i++ {
		d, n := binary.Uvarint(b.data[off:])
		cur += d
		off += n
		if cur >= id {
			return cur == id
		}
	}
	return false
}

// checkBlock verifies an untrusted (snapshot-loaded) block: exactly n
// strictly ascending ids encoded in exactly len(data) bytes, ending at
// maxID.  Everything after load trusts these invariants — decodeBlock
// has no bounds checks of its own and seekGE trusts maxID — so a block
// that fails here must be rejected, not installed.
func checkBlock(b block) error {
	if b.n <= 0 {
		return fmt.Errorf("textindex: empty block")
	}
	id := uint64(0)
	off := 0
	for i := 0; i < b.n; i++ {
		if off >= len(b.data) {
			return fmt.Errorf("textindex: block truncated at id %d/%d", i, b.n)
		}
		d, n := binary.Uvarint(b.data[off:])
		if n <= 0 {
			return fmt.Errorf("textindex: bad varint at block byte %d", off)
		}
		off += n
		prev := id
		id += d
		if i > 0 && id <= prev {
			return fmt.Errorf("textindex: block ids not strictly ascending")
		}
	}
	if off != len(b.data) {
		return fmt.Errorf("textindex: %d trailing block bytes", len(b.data)-off)
	}
	if id != b.maxID {
		return fmt.Errorf("textindex: block maxID %d != last id %d", b.maxID, id)
	}
	return nil
}

// rebuildBlocks re-encodes a full sorted id list into sealed blocks
// plus an uncompressed remainder tail.
func rebuildBlocks(ids []uint64) ([]block, []uint64) {
	var blocks []block
	for len(ids) >= blockSize {
		blocks = append(blocks, encodeBlock(ids[:blockSize]))
		ids = ids[blockSize:]
	}
	if len(ids) == 0 {
		return blocks, nil
	}
	return blocks, append([]uint64(nil), ids...)
}

// view is an immutable snapshot of one posting list's id storage,
// captured under the index lock and iterated after it is released.
type view struct {
	blocks []block
	tail   []uint64
	dead   []uint64
	live   int
}

// iter walks a view's live ids in ascending order, merging the sealed
// block stream with the tail and skipping tombstones.  One block at a
// time is decoded into a reusable buffer; seekGE skips whole blocks by
// maxID without decoding them.
type iter struct {
	v  view
	bi int // index of the block decoded into buf (-1: none yet)
	// buf is refilled in place for every decoded block; aliases must
	// not outlive the current block.
	buf []uint64
	pi  int // cursor into buf
	ti  int // cursor into tail
	di  int // cursor into dead
	cur uint64
	has bool
}

func newIter(v view) *iter {
	it := &iter{v: v, bi: -1}
	it.settle()
	return it
}

// head returns the current live id without consuming it.
func (it *iter) head() (uint64, bool) { return it.cur, it.has }

// advance moves past the current id.
func (it *iter) advance() {
	if it.has {
		it.settle()
	}
}

// settle pulls the next live id off the merged streams into cur.
func (it *iter) settle() {
	for {
		id, ok := it.rawNext()
		if !ok {
			it.has = false
			return
		}
		if it.isDead(id) {
			continue
		}
		it.cur, it.has = id, true
		return
	}
}

// rawNext merges the block stream and the tail, tombstones included.
func (it *iter) rawNext() (uint64, bool) {
	bid, bok := it.blockHead()
	tok := it.ti < len(it.v.tail)
	switch {
	case !bok && !tok:
		return 0, false
	case bok && tok && bid == it.v.tail[it.ti]:
		// ids are unique across the two streams by construction; fold a
		// (never expected) equal pair into one emission defensively
		it.pi++
		it.ti++
		return bid, true
	case bok && (!tok || bid < it.v.tail[it.ti]):
		it.pi++
		return bid, true
	default:
		id := it.v.tail[it.ti]
		it.ti++
		return id, true
	}
}

// blockHead returns the next undelivered id of the block stream,
// decoding the next block when the current one is exhausted.
func (it *iter) blockHead() (uint64, bool) {
	for it.pi >= len(it.buf) {
		if it.bi+1 >= len(it.v.blocks) {
			return 0, false
		}
		it.bi++
		it.buf = decodeBlock(it.v.blocks[it.bi], it.buf[:0])
		it.pi = 0
	}
	return it.buf[it.pi], true
}

// isDead reports whether id is tombstoned.  Ids arrive ascending, so
// the dead cursor only ever moves forward.
func (it *iter) isDead(id uint64) bool {
	d := it.v.dead
	for it.di < len(d) && d[it.di] < id {
		it.di++
	}
	return it.di < len(d) && d[it.di] == id
}

// seekGE positions the iterator at the first live id >= target.  Blocks
// whose maxID proves they end before the target are skipped undecoded.
func (it *iter) seekGE(target uint64) {
	if it.has && it.cur >= target {
		return
	}
	if it.pi < len(it.buf) && it.buf[len(it.buf)-1] >= target {
		// target falls inside the currently decoded block
		it.pi += sort.Search(len(it.buf)-it.pi, func(k int) bool { return it.buf[it.pi+k] >= target })
	} else {
		// skip whole blocks by maxID, then decode the first candidate
		lo := it.bi + 1
		j := lo + sort.Search(len(it.v.blocks)-lo, func(k int) bool { return it.v.blocks[lo+k].maxID >= target })
		it.buf, it.pi = it.buf[:0], 0
		it.bi = j - 1
		if j < len(it.v.blocks) {
			it.bi = j
			it.buf = decodeBlock(it.v.blocks[j], it.buf)
			it.pi = sort.Search(len(it.buf), func(k int) bool { return it.buf[k] >= target })
		}
	}
	it.ti += sort.Search(len(it.v.tail)-it.ti, func(k int) bool { return it.v.tail[it.ti+k] >= target })
	it.settle()
}

// materializeView appends every live id of v to dst in order.  The
// common shape — no tombstones, tail strictly after the sealed blocks —
// skips the merging iterator and decodes straight through.
func materializeView(v view, dst []uint64) []uint64 {
	if len(v.dead) == 0 &&
		(len(v.tail) == 0 || len(v.blocks) == 0 || v.tail[0] > v.blocks[len(v.blocks)-1].maxID) {
		for _, b := range v.blocks {
			dst = decodeBlock(b, dst)
		}
		return append(dst, v.tail...)
	}
	for it := newIter(v); ; it.advance() {
		id, ok := it.head()
		if !ok {
			return dst
		}
		dst = append(dst, id)
	}
}
