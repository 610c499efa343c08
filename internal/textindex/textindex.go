// Package textindex implements the inverted full-text index that fronts
// NETMARK's keyword search (§2.1.4 of the paper: "the keyword-based
// context and content search is performed by first querying the text
// index for the search key").  It substitutes for Oracle Text in the
// original system.
//
// The index maps lowercased terms to block-compressed posting lists of
// document/node IDs with token positions, supporting AND and phrase
// queries.  IDs are opaque uint64s; the XML store uses packed physical
// RowIDs so a text hit leads directly to the page holding the node.
// Posting lists are stored as delta+varint blocks
// with per-block maxID skip entries (see block.go): intersections seek
// by skip entry and decode only candidate blocks, and resident memory
// is a fraction of the flat []uint64 layout the index used before.
//
// # Tokenizer contract
//
// Tokenize lowercases and splits on anything that is not a letter,
// digit, or combining mark.  Combining marks (Unicode Mn/Mc/Me) extend
// the current token, so decomposed accents ("e" + U+0301) stay inside
// one term; no Unicode normalisation is performed, so NFC and NFD
// spellings of the same word index as distinct terms.  Script
// boundaries flush: a transition between Han, Hiragana, Katakana,
// Hangul, and everything else ends the current token, and Han
// ideographs are additionally emitted as single-rune tokens (unigrams)
// so unsegmented CJK text is searchable — a multi-ideograph query
// matches via phrase adjacency over the unigram positions.  Letter/
// digit transitions within one script do not flush ("v2" is one term).
// Positions count tokens, not bytes.
package textindex

import (
	"sort"
	"strings"
	"sync"
	"unicode"

	"netmark/internal/btree"
)

// Token is one term occurrence produced by the tokenizer.
type Token struct {
	Term string
	Pos  uint32
}

// Rune classes whose boundaries end a token (see the package comment's
// tokenizer contract).
const (
	classOther = iota // Latin, Cyrillic, Greek, digits, ... — run-based
	classHan          // unigrams
	classHiragana
	classKatakana
	classHangul
)

func runeClass(r rune) int {
	switch {
	case unicode.Is(unicode.Han, r):
		return classHan
	case unicode.Is(unicode.Hiragana, r):
		return classHiragana
	case unicode.Is(unicode.Katakana, r):
		return classKatakana
	case unicode.Is(unicode.Hangul, r):
		return classHangul
	default:
		return classOther
	}
}

// Tokenize splits text into lowercase terms per the tokenizer contract
// in the package comment.  Position counts tokens, not bytes, so phrase
// queries can check adjacency.
func Tokenize(text string) []Token {
	var out []Token
	var b strings.Builder
	pos := uint32(0)
	last := classOther
	flush := func() {
		if b.Len() > 0 {
			out = append(out, Token{Term: b.String(), Pos: pos})
			pos++
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			c := runeClass(r)
			if c != last {
				flush()
			}
			b.WriteRune(unicode.ToLower(r))
			last = c
			if c == classHan {
				flush()
			}
		case unicode.IsMark(r) && b.Len() > 0:
			// combining marks extend the current token (NFD accents)
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

// postingList stores, for one term, the block-compressed sorted ids
// that contain it (see block.go for the storage invariants) and per-id
// token positions.
type postingList struct {
	// blocks/tail/dead are published to captured views (see view()):
	// mutation methods must replace the slices, never write elements in
	// place, or a concurrent reader holding a view sees torn state.
	blocks []block             // netmarkvet:cow netmarkvet:snap — sealed, immutable, ascending non-overlapping runs
	tail   []uint64            // netmarkvet:cow netmarkvet:snap — sorted uncompressed append area
	dead   []uint64            // netmarkvet:cow netmarkvet:snap — sorted tombstones; always ids resident in blocks
	live   int                 // id count net of tombstones; netmarkvet:snap
	pos    map[uint64][]uint32 // netmarkvet:snap
	// gen is the term's mutation generation: assigned from the index-wide
	// monotonic counter on every posting insert or removal.  Result caches
	// fold the gens of a query's terms into their keys, so a write that
	// never touches those terms leaves the cached results reachable —
	// per-document invalidation collapsed to term granularity.  Process-
	// local: not persisted, a term loaded from a snapshot starts at 1.
	gen uint64
}

func (pl *postingList) view() view {
	return view{blocks: pl.blocks, tail: pl.tail, dead: pl.dead, live: pl.live}
}

func (pl *postingList) add(id uint64, p uint32) {
	if pl.pos == nil {
		pl.pos = make(map[uint64][]uint32)
	}
	if _, seen := pl.pos[id]; !seen {
		pl.insertID(id)
	}
	pl.pos[id] = append(pl.pos[id], p)
}

// insertID adds a not-currently-live id.  A tombstoned id is revived in
// place (it is still physically present in a block); everything else
// lands in the tail — appended when it sorts last (the common RowID
// pattern), copy-on-write inserted otherwise so captured views stay
// valid.
//
// netmarkvet:mutator
func (pl *postingList) insertID(id uint64) {
	pl.live++
	if i := searchIDs(pl.dead, id); i < len(pl.dead) && pl.dead[i] == id {
		nd := make([]uint64, 0, len(pl.dead)-1)
		nd = append(nd, pl.dead[:i]...)
		pl.dead = append(nd, pl.dead[i+1:]...)
		return
	}
	if n := len(pl.tail); n == 0 || pl.tail[n-1] < id {
		pl.tail = append(pl.tail, id)
	} else {
		i := searchIDs(pl.tail, id)
		nt := make([]uint64, 0, len(pl.tail)+1)
		nt = append(nt, pl.tail[:i]...)
		nt = append(nt, id)
		pl.tail = append(nt, pl.tail[i:]...)
	}
	pl.maybeSeal()
}

// maybeSeal compresses a grown tail into sealed blocks.  The tail is
// sealed as soon as it reaches sealChunk ids, merging with a partial
// final block when one exists — each id is re-encoded at most
// blockSize/sealChunk times, and steady-state tails stay under
// sealChunk ids instead of hoarding up to a block's worth of
// uncompressed uint64s per term.  A tail that overlaps sealed ranges
// (out-of-order ids) cannot be sealed without breaking the blocks'
// ascending invariant; it is given slack and then folded in by a full
// rebuild.
//
// netmarkvet:mutator
func (pl *postingList) maybeSeal() {
	if len(pl.tail) < sealChunk {
		return
	}
	if len(pl.blocks) > 0 && pl.tail[0] <= pl.blocks[len(pl.blocks)-1].maxID {
		if len(pl.tail) >= 4*blockSize {
			pl.compact()
		}
		return
	}
	// Merge a partial final block with the tail, then re-chunk.  The
	// blocks slice is replaced, not mutated: captured views keep reading
	// the old (immutable) blocks.  Tombstoned ids inside the re-encoded
	// block stay physically present, which the dead list relies on.
	keep := len(pl.blocks)
	ids := pl.tail
	if keep > 0 && pl.blocks[keep-1].n < blockSize {
		keep--
		last := pl.blocks[keep]
		merged := decodeBlock(last, make([]uint64, 0, last.n+len(ids)))
		ids = append(merged, ids...)
	}
	nb := make([]block, keep, keep+len(ids)/blockSize+1)
	copy(nb, pl.blocks[:keep])
	for len(ids) > 0 {
		n := len(ids)
		if n > blockSize {
			n = blockSize
		}
		nb = append(nb, encodeBlock(ids[:n]))
		ids = ids[n:]
	}
	pl.blocks = nb
	pl.tail = nil
}

// remove drops id, replacing (never editing) the published slices.
//
// netmarkvet:mutator
func (pl *postingList) remove(id uint64) {
	if pl.pos == nil {
		return
	}
	if _, ok := pl.pos[id]; !ok {
		return
	}
	delete(pl.pos, id)
	pl.live--
	if i := searchIDs(pl.tail, id); i < len(pl.tail) && pl.tail[i] == id {
		nt := make([]uint64, 0, len(pl.tail)-1)
		nt = append(nt, pl.tail[:i]...)
		nt = append(nt, pl.tail[i+1:]...)
		if len(nt) == 0 {
			nt = nil
		}
		pl.tail = nt
		// a tail removal shrinks live without adding a tombstone, so the
		// dead fraction can still cross the threshold
		pl.maybeCompact()
		return
	}
	// block-resident: tombstone now, reclaim space once tombstones reach
	// a quarter of the physical ids
	i := searchIDs(pl.dead, id)
	nd := make([]uint64, 0, len(pl.dead)+1)
	nd = append(nd, pl.dead[:i]...)
	nd = append(nd, id)
	pl.dead = append(nd, pl.dead[i:]...)
	pl.maybeCompact()
}

func (pl *postingList) maybeCompact() {
	if physical := pl.live + len(pl.dead); len(pl.dead) >= blockSize/4 && len(pl.dead)*4 >= physical {
		pl.compact()
	}
}

// compact rebuilds the list as freshly sealed blocks over exactly the
// live ids, dropping tombstones and folding in an overlapping tail.
// Captured views keep reading the replaced (immutable) storage.
//
// netmarkvet:mutator
func (pl *postingList) compact() {
	ids := materializeView(pl.view(), make([]uint64, 0, pl.live))
	pl.blocks, pl.tail = rebuildBlocks(ids)
	pl.dead = nil
}

func searchIDs(s []uint64, id uint64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= id })
}

// Index is the inverted index.  Safe for concurrent use.
type Index struct {
	// mu protects the in-memory term btree; queries capture posting
	// views under it and release it before scoring, so it is never held
	// across anything blocking.  netmarkvet:hot
	mu sync.RWMutex
	// netmarkvet:snap netmarkvet:gen genCounter
	terms *btree.Tree[string, *postingList] // guarded by mu; term -> single posting list
	byID  map[uint64][]string               // guarded by mu; reverse map for Remove
	docs  int                               // guarded by mu
	// genCounter is the monotonic source for posting-list generations;
	// values are never reused, so a term that vanishes and reappears gets
	// a generation distinct from every one it ever had.  Guarded by mu.
	genCounter uint64
}

// New creates an empty index.
func New() *Index {
	return &Index{
		terms: btree.New[string, *postingList](strings.Compare),
		byID:  make(map[uint64][]string),
	}
}

// Add indexes text under id.  Calling Add twice with the same id extends
// the entry (positions continue from zero per call; use one call per id
// for phrase correctness).
func (ix *Index) Add(id uint64, text string) {
	ix.AddTokens(id, Tokenize(text))
}

// AddTokens indexes pre-tokenized text under id.  Tokenization is the
// CPU-bound half of Add; batch ingestion runs it in parse workers and
// hands the tokens here so only the posting-list insert runs under the
// index lock.
func (ix *Index) AddTokens(id uint64, toks []Token) {
	if len(toks) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, seen := ix.byID[id]; !seen {
		ix.docs++
	}
	for _, tok := range toks {
		pl := ix.getOrCreateLocked(tok.Term)
		if pl.pos == nil {
			pl.pos = make(map[uint64][]uint32)
		}
		if _, exists := pl.pos[id]; !exists {
			ix.byID[id] = append(ix.byID[id], tok.Term)
		}
		pl.add(id, tok.Pos)
		ix.genCounter++
		pl.gen = ix.genCounter
	}
}

func (ix *Index) getOrCreateLocked(term string) *postingList {
	if got := ix.terms.Get(term); len(got) > 0 {
		return got[0]
	}
	pl := &postingList{}
	ix.terms.Insert(term, pl)
	return pl
}

// Remove deletes every posting for id.
func (ix *Index) Remove(id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	terms, ok := ix.byID[id]
	if !ok {
		return
	}
	for _, t := range terms {
		if got := ix.terms.Get(t); len(got) > 0 {
			got[0].remove(id)
			ix.genCounter++
			got[0].gen = ix.genCounter
			if got[0].live == 0 {
				ix.terms.DeleteKey(t)
			}
		}
	}
	delete(ix.byID, id)
	ix.docs--
}

// Docs returns the number of distinct indexed IDs.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Terms returns the number of distinct terms.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.terms.Keys()
}

// DF returns the document frequency of term (how many IDs contain it).
func (ix *Index) DF(term string) int {
	term = normTerm(term)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if got := ix.terms.Get(term); len(got) > 0 {
		return got[0].live
	}
	return 0
}

func normTerm(t string) string {
	toks := Tokenize(t)
	if len(toks) == 0 {
		return ""
	}
	return toks[0].Term
}

// QueryGen folds the mutation generations of every term a query depends
// on into one fingerprint (FNV-1a over the per-term gens; absent terms
// contribute zero).  Two calls return the same value iff none of the
// query's posting lists changed in between, so result caches can key on
// it: a write that never touches the query's terms leaves cached results
// for the query reachable, while any posting insert or removal — a new
// document containing a term, a deleted document that contained one —
// makes every stale key unreachable.
func (ix *Index) QueryGen(query string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	ix.mu.RLock()
	for _, tok := range Tokenize(query) {
		var g uint64
		if got := ix.terms.Get(tok.Term); len(got) > 0 {
			g = got[0].gen
		}
		h = (h ^ g) * prime64
	}
	ix.mu.RUnlock()
	return h
}

// Phrase returns IDs where the query terms occur adjacently in order:
// the AndIter candidates, kept when the token positions line up.
func (ix *Index) Phrase(query string) []uint64 {
	toks := Tokenize(query)
	var candidates []uint64
	for it := intersectIter(ix.andViews(toks)); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		candidates = append(candidates, id)
	}
	if len(toks) < 2 || len(candidates) == 0 {
		return candidates
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	plists := make([]*postingList, len(toks))
	for i, tok := range toks {
		got := ix.terms.Get(tok.Term)
		if len(got) == 0 {
			return nil
		}
		plists[i] = got[0]
	}
	var res []uint64
	for _, id := range candidates {
		first := plists[0].pos[id]
		for _, start := range first {
			ok := true
			for i := 1; i < len(plists); i++ {
				if !containsPos(plists[i].pos[id], start+uint32(i)) {
					ok = false
					break
				}
			}
			if ok {
				res = append(res, id)
				break
			}
		}
	}
	return res
}

// Stats describes the posting-list storage: how many ids sit in sealed
// compressed blocks versus the uncompressed tails, how many tombstones
// are pending compaction, and what the whole id storage costs resident
// versus the flat 8-bytes-per-id layout it replaced.  Token positions
// (needed for phrase queries) are not part of the id storage and are
// not counted.
type Stats struct {
	Terms    int // distinct terms
	Postings int // live (term, id) pairs
	Blocks   int // sealed compressed blocks
	TailIDs  int // ids in uncompressed tails
	DeadIDs  int // tombstones awaiting compaction

	BlockBytes        int64   // encoded bytes across all blocks
	BytesResident     int64   // blocks + bookkeeping + tails + tombstones
	UncompressedBytes int64   // 8 bytes per physical id (the old layout)
	CompressionRatio  float64 // UncompressedBytes / BytesResident
}

// Stats walks the term tree and sums the posting-list storage counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Terms: ix.terms.Keys()}
	ix.terms.Ascend(func(_ string, pls []*postingList) bool {
		pl := pls[0]
		st.Postings += pl.live
		physical := len(pl.tail)
		for _, b := range pl.blocks {
			st.Blocks++
			st.BlockBytes += int64(len(b.data))
			physical += b.n
		}
		st.TailIDs += len(pl.tail)
		st.DeadIDs += len(pl.dead)
		st.UncompressedBytes += int64(8 * physical)
		return true
	})
	st.BytesResident = st.BlockBytes + int64(st.Blocks)*blockOverhead + int64(8*(st.TailIDs+st.DeadIDs))
	if st.BytesResident > 0 {
		st.CompressionRatio = float64(st.UncompressedBytes) / float64(st.BytesResident)
	}
	return st
}

func containsPos(ps []uint32, want uint32) bool {
	for _, p := range ps {
		if p == want {
			return true
		}
	}
	return false
}
