// Package textindex implements the inverted full-text index that fronts
// NETMARK's keyword search (§2.1.4 of the paper: "the keyword-based
// context and content search is performed by first querying the text
// index for the search key").  It substitutes for Oracle Text in the
// original system.
//
// The index maps lowercased terms to block-compressed posting lists of
// the IDs that hold them, and answers which IDs hold a term or every
// term of a query; it stores nothing about where in an ID's text a term
// sits.  IDs are opaque uint64s; to the XML store an ID is a section's
// key row — its heading's packed physical RowID, or the enclosing
// element's where no heading governs the text — and its terms are every
// word of that section's own text, so a hit is a section and leads
// directly to the page holding its key row.  A phrase is checked by
// HasPhrase against the text of the section the store has materialised.  Posting lists are stored as delta+varint blocks
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
// matches as a phrase of unigrams.  Letter/digit transitions within one
// script do not flush ("v2" is one term).  Tokenize, Terms (ingest's
// form of it, which interns each term) and HasPhrase cut text into
// tokens with the same scanner, nextToken, which classifies ASCII bytes
// — nearly all of a corpus — without the Unicode tables; only a byte of
// 0x80 or above takes the rune path, so a combining mark after an ASCII
// letter still extends its token.
package textindex

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"netmark/internal/btree"
)

// Rune classes whose boundaries end a token (see the package comment's
// tokenizer contract), and the two kinds of rune that are in no class:
// a combining mark, which extends a token, and a separator, which ends
// one.
const (
	classOther = iota // Latin, Cyrillic, Greek, digits, ... — run-based
	classHan          // unigrams
	classHiragana
	classKatakana
	classHangul

	kindMark = -1
	kindSep  = -2
)

// runeKind is r's class when r is a letter or digit, else kindMark or
// kindSep.
func runeKind(r rune) int {
	switch {
	case unicode.IsLetter(r) || unicode.IsDigit(r):
		return runeClass(r)
	case unicode.IsMark(r):
		return kindMark
	}
	return kindSep
}

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

// nextToken returns the byte span [start, end) of the first token of
// text at or after off, which must be 0 or the end of a previous span;
// start == end == len(text) when none is left.  A token is a run of
// letters and digits of one class and the combining marks among and
// after them; a Han ideograph is a token alone, and a mark that
// follows no letter or digit of the token is a separator.  A byte below
// 0x80 is classified without the Unicode tables: an ASCII letter or
// digit is classOther, anything else a separator.
func nextToken(text string, off int) (start, end int) {
	start, class := -1, kindSep
	for i := off; i < len(text); {
		k, size := kindSep, 1
		if c := text[i]; c < utf8.RuneSelf {
			if 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' {
				k = classOther
			}
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			k = runeKind(r)
		}
		switch {
		case k >= 0 && start < 0:
			if k == classHan {
				return i, i + size
			}
			start, class = i, k
		case k >= 0 && k != class, k == kindSep && start >= 0:
			return start, i
		}
		i += size
	}
	if start < 0 {
		return len(text), len(text)
	}
	return start, len(text)
}

// termRune is what rune r of a token becomes in its term: letters and
// digits lowercased, marks as written.  An ASCII rune is lowercased
// without the Unicode tables.
func termRune(r rune) rune {
	switch {
	case r >= utf8.RuneSelf:
		if unicode.IsMark(r) {
			return r
		}
		return unicode.ToLower(r)
	case 'A' <= r && r <= 'Z':
		return r + 'a' - 'A'
	}
	return r
}

// appendTerm appends the term of the token span tok to b.
func appendTerm(b []byte, tok string) []byte {
	for _, r := range tok {
		b = utf8.AppendRune(b, termRune(r))
	}
	return b
}

// Tokenize splits text into lowercase terms, in text order, per the
// tokenizer contract in the package comment.
func Tokenize(text string) []string {
	var out []string
	var b []byte
	for start, end := nextToken(text, 0); start < end; start, end = nextToken(text, end) {
		b = appendTerm(b[:0], text[start:end])
		out = append(out, string(b))
	}
	return out
}

// Terms is how ingest cuts text into terms: Tokenize's terms, each
// built in one reused buffer and interned, so a term seen before costs
// no allocation and every text's copy of a word shares one string.  One
// goroutine owns a Terms; the zero value is ready to use.  It holds every
// distinct term it has handed out, so it lives for one batch of work.
type Terms struct {
	seen map[string]string
	buf  []byte
}

// Append appends to dst the terms of text, as Tokenize cuts them.
func (t *Terms) Append(dst []string, text string) []string {
	for start, end := nextToken(text, 0); start < end; start, end = nextToken(text, end) {
		t.buf = appendTerm(t.buf[:0], text[start:end])
		term, ok := t.seen[string(t.buf)]
		if !ok {
			if t.seen == nil {
				t.seen = make(map[string]string)
			}
			term = string(t.buf)
			t.seen[term] = term
		}
		dst = append(dst, term)
	}
	return dst
}

// HasPhrase reports whether the tokens of text, as Tokenize cuts them,
// hold terms consecutively and in order (an empty terms always holds).
// It compares each token span with a term in place, building no token,
// so it does not allocate.
func HasPhrase(text string, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	for start, end := nextToken(text, 0); start < end; start, end = nextToken(text, end) {
		if !tokenIs(text[start:end], terms[0]) {
			continue
		}
		k, next := 1, end
		for ; k < len(terms); k++ {
			var s int
			if s, next = nextToken(text, next); s == next || !tokenIs(text[s:next], terms[k]) {
				break
			}
		}
		if k == len(terms) {
			return true
		}
	}
	return false
}

// tokenIs reports whether the token span tok spells term.
func tokenIs(tok, term string) bool {
	for len(tok) > 0 {
		r, n := utf8.DecodeRuneInString(tok)
		t, m := utf8.DecodeRuneInString(term)
		if m == 0 || termRune(r) != t {
			return false
		}
		tok, term = tok[n:], term[m:]
	}
	return term == ""
}

// postingList stores, for one term, the block-compressed sorted ids
// that contain it (see block.go for the storage invariants).
type postingList struct {
	// blocks/tail/dead are published to captured views (see view()):
	// mutation methods must replace the slices, never write elements in
	// place, or a concurrent reader holding a view sees torn state.
	blocks []block  // netmarkvet:cow netmarkvet:snap — sealed, immutable, ascending non-overlapping runs
	tail   []uint64 // netmarkvet:cow netmarkvet:snap — sorted uncompressed append area
	dead   []uint64 // netmarkvet:cow netmarkvet:snap — sorted tombstones; always ids resident in blocks
	live   int      // id count net of tombstones: derived from the three above, not encoded
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

// has reports whether id is live in the list: not tombstoned, and in the
// tail or in the one block whose maxID is the first at or past it.  It
// reads that block in place, so it does not allocate.
func (pl *postingList) has(id uint64) bool {
	if i := searchIDs(pl.dead, id); i < len(pl.dead) && pl.dead[i] == id {
		return false
	}
	if i := searchIDs(pl.tail, id); i < len(pl.tail) && pl.tail[i] == id {
		return true
	}
	j := sort.Search(len(pl.blocks), func(k int) bool { return pl.blocks[k].maxID >= id })
	return j < len(pl.blocks) && pl.blocks[j].holds(id)
}

// remove drops id, which must be live (has says so), replacing (never
// editing) the published slices.
//
// netmarkvet:mutator
func (pl *postingList) remove(id uint64) {
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

// Index is the inverted index.  Safe for concurrent use.  It holds each
// posting once, in its term's list: removing an id's postings takes the
// terms it was added under, which the caller derives again (RemoveTokens).
type Index struct {
	// mu protects the in-memory term btree; queries capture posting
	// views under it and release it before scoring, so it is never held
	// across anything blocking.  netmarkvet:hot
	mu sync.RWMutex
	// netmarkvet:snap
	terms *btree.Tree[string, *postingList] // guarded by mu; term -> single posting list
	// genCounter is the monotonic source for posting-list generations,
	// and what QueryGen folds for a term the index does not hold; values
	// are never reused, so a term that vanishes and reappears gets a
	// generation distinct from every one it ever had.  Guarded by mu.
	genCounter uint64
}

// New creates an empty index.
func New() *Index {
	return &Index{terms: btree.New[string, *postingList](strings.Compare)}
}

// Add indexes text under id.  Calling Add twice with the same id adds
// the second text's terms to the entry.
func (ix *Index) Add(id uint64, text string) {
	toks := Tokenize(text)
	slices.Sort(toks)
	ix.AddTokens(id, slices.Compact(toks))
}

// AddTokens indexes terms under id; toks must be sorted and distinct.
// Tokenization, sorting and the dropping of repeats are the CPU-bound
// half of Add; batch ingestion runs them in parse workers and hands the
// terms here, so only the posting-list insert runs under the lock, on
// the indexer's one goroutine.  A term id already holds is passed over.
func (ix *Index) AddTokens(id uint64, toks []string) {
	if len(toks) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, term := range toks {
		pl := ix.getOrCreateLocked(term)
		if pl.has(id) {
			continue
		}
		pl.insertID(id)
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

// RemoveTokens undoes AddTokens for a batch of ids: toks[ends[k]:ends[k+1]]
// are the terms ids[k] was added under, repeats allowed, and they are
// sorted in place.  The postings go in one lock hold.  A term ids[k] does
// not hold is passed over, so removing again what is already gone is a
// no-op.
func (ix *Index) RemoveTokens(ids []uint64, toks []string, ends []int32) {
	for k := range ids {
		slices.Sort(toks[ends[k]:ends[k+1]])
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for k, id := range ids {
		group := toks[ends[k]:ends[k+1]]
		for i, t := range group {
			if i > 0 && t == group[i-1] {
				continue
			}
			got := ix.terms.Get(t)
			if len(got) == 0 || !got[0].has(id) {
				continue
			}
			pl := got[0]
			pl.remove(id)
			ix.genCounter++
			pl.gen = ix.genCounter
			if pl.live == 0 {
				ix.terms.DeleteKey(t)
			}
		}
	}
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
	return toks[0]
}

// QueryGen folds the mutation generations of the given terms (as Tokenize
// cuts them) into one fingerprint, FNV-1a over the per-term gens.  A term
// the index does not hold folds genCounter, which every posting change
// moves.  So each term's value only ever grows, and grows on every change
// to its postings: two calls return the same value iff none of the terms'
// posting lists changed in between, and a term that appears and vanishes
// again does not bring its old value back.  Result caches key on it: a
// write that never touches a query's terms leaves its cached results
// reachable, while a new document containing a term, or a deleted one
// that contained it, makes every stale key unreachable for good.
func (ix *Index) QueryGen(terms ...string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	ix.mu.RLock()
	for _, term := range terms {
		g := ix.genCounter
		if got := ix.terms.Get(term); len(got) > 0 {
			g = got[0].gen
		}
		h = (h ^ g) * prime64
	}
	ix.mu.RUnlock()
	return h
}

// Stats describes the posting-list storage: how many ids sit in sealed
// compressed blocks versus the uncompressed tails, how many tombstones
// are pending compaction, and what the whole id storage costs resident
// versus the flat 8-bytes-per-id layout it replaced.
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
