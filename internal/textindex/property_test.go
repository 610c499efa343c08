package textindex

// Property tests: the block-compressed posting lists must answer every
// query family exactly like a brute-force reference model, across
// randomized insert/remove/re-insert sequences that exercise block
// sealing, out-of-order tails, tombstoning, compaction, and revival.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refModel is the brute-force reference: the token sequence of every
// live id, queried by scanning.
type refModel struct {
	docs map[uint64][]string
}

func newRefModel() *refModel { return &refModel{docs: make(map[uint64][]string)} }

func (m *refModel) add(id uint64, text string) {
	m.docs[id] = append(m.docs[id], Tokenize(text)...)
}

func (m *refModel) remove(id uint64) { delete(m.docs, id) }

func (m *refModel) ids(match func(terms []string) bool) []uint64 {
	var out []uint64
	for id, terms := range m.docs {
		if match(terms) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refModel) lookup(term string) []uint64 {
	return m.ids(func(terms []string) bool {
		for _, t := range terms {
			if t == term {
				return true
			}
		}
		return false
	})
}

func (m *refModel) and(query string) []uint64 {
	want := Tokenize(query)
	return m.ids(func(terms []string) bool {
		for _, w := range want {
			found := false
			for _, t := range terms {
				if t == w {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
}

func (m *refModel) phrase(query string) []uint64 {
	want := Tokenize(query)
	if len(want) == 0 {
		return nil
	}
	return m.ids(func(terms []string) bool {
	starts:
		for s := 0; s+len(want) <= len(terms); s++ {
			for i, w := range want {
				if terms[s+i] != w {
					continue starts
				}
			}
			return true
		}
		return false
	})
}

// eqIDs compares treating nil and empty as equal (the index returns nil
// for no matches, the model returns nil too, but guard anyway).
func eqIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drain pulls an iterator dry: the materialised result the tests compare.
func drain(x *IDIter) []uint64 {
	var out []uint64
	for {
		id, ok := x.Next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// The terms ingest cuts from a text are Tokenize's, from one Terms that
// cuts every text in turn — so a term interned from one text, and the
// buffer reused from the last, never leak into the next.  The texts mix ASCII of either case, digits,
// punctuation and control bytes with accented and combining-mark Latin,
// Han, kana, Hangul and broken UTF-8, so the ASCII path and the rune
// path meet inside tokens.
func TestTermsAreTokenize(t *testing.T) {
	pieces := []string{
		"a", "B", "z", "Q", "7", "0", " ", ".", "-", "\x00", "\x7f", "\t",
		"é", "É", "\u0301", "ß", "Ω", "東", "京", "カ", "ｶ", "ひ", "한", "\xff", "\xc3",
		"gap", "GAP", "Gap", "tech", "v2",
	}
	rng := rand.New(rand.NewSource(34))
	var tm Terms
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		text := b.String()
		want := Tokenize(text)
		got := tm.Append([]string{"dst"}, text)
		if got[0] != "dst" || !slices.Equal(got[1:], want) {
			t.Fatalf("Terms cut %q as %q, want %q after the dst it was given", text, got, want)
		}
	}
}

// TestPropertyCompressedListEquivalence runs randomized mutation
// sequences and cross-checks every query family against the reference
// after each phase.  The id space and vocabulary are sized to force
// multi-block lists, tail overlap (out-of-order ids), tombstone
// compaction, and tombstone revival.
func TestPropertyCompressedListEquivalence(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "alphabet", "gambit", "веста", "第"}
	queries := []string{
		"alpha", "beta", "alphabet", "第", "absent",
		"alpha beta", "beta gamma delta", "alpha absent",
		"alpha beta gamma",
	}
	phrases := []string{"alpha beta", "beta gamma", "gamma alpha beta"}

	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			ix := New()
			model := newRefModel()
			texts := make(map[uint64]string)   // what the store's heap would hold: every text added, in order
			live := make([]uint64, 0, 2048)    // ids currently indexed
			removed := make([]uint64, 0, 1024) // ids removed at least once
			nextID := uint64(1)

			// more draws the repeated adds and the text of a removed id riding
			// along, so r's sequence of operations is the same as without them.
			more := rand.New(rand.NewSource(-seed))
			makeText := func(r *rand.Rand) string {
				k := r.Intn(4) + 1
				var sb strings.Builder
				for i := 0; i < k; i++ {
					if i > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(vocab[r.Intn(len(vocab))])
				}
				return sb.String()
			}
			// addText adds a text to id, live or not.  The texts an id holds
			// are kept joined by a separator, so a phrase may span two of
			// them, as the model's concatenated tokens let it.
			addText := func(id uint64, r *rand.Rand) {
				text := makeText(r)
				ix.Add(id, text)
				model.add(id, text)
				if prev, ok := texts[id]; ok {
					text = prev + " " + text
				}
				texts[id] = text
			}
			addID := func(id uint64) {
				addText(id, r)
				live = append(live, id)
			}

			check := func(stage string) {
				t.Helper()
				for _, q := range queries {
					// LookupIter normalises to the first token; mirror that.
					if got, want := drain(ix.LookupIter(q)), model.lookup(normTerm(q)); !eqIDs(got, want) {
						t.Fatalf("%s: LookupIter(%q) = %v, want %v", stage, q, got, want)
					}
					if got, want := drain(ix.AndIter(q)), model.and(q); !eqIDs(got, want) {
						t.Fatalf("%s: AndIter(%q) = %v, want %v", stage, q, got, want)
					}
					// SeekGE through ascending targets gives, each time, the
					// first result at or past the target not yet given.
					want, it, target := model.and(q), ix.AndIter(q), uint64(0)
					for {
						target += uint64(r.Intn(40))
						i := sort.Search(len(want), func(i int) bool { return want[i] >= target })
						got, ok := it.SeekGE(target)
						if ok != (i < len(want)) || ok && got != want[i] {
							t.Fatalf("%s: AndIter(%q).SeekGE(%d) = %d, %v", stage, q, target, got, ok)
						}
						if !ok {
							break
						}
						want, target = want[i+1:], got+1
					}
				}
				for _, p := range phrases {
					if got, want := phrase(ix, texts, p), model.phrase(p); !eqIDs(got, want) {
						t.Fatalf("%s: Phrase(%q) = %v, want %v", stage, p, got, want)
					}
				}
				postings := 0
				for _, terms := range model.docs {
					distinct := make(map[string]bool)
					for _, term := range terms {
						distinct[term] = true
					}
					postings += len(distinct)
				}
				if got := ix.Stats().Postings; got != postings {
					t.Fatalf("%s: Stats().Postings = %d, want %d", stage, got, postings)
				}
				for _, w := range vocab {
					if got, want := ix.DF(w), len(model.lookup(w)); got != want {
						t.Fatalf("%s: DF(%q) = %d, want %d", stage, w, got, want)
					}
				}
			}

			const phases, opsPerPhase = 5, 400
			for phase := 0; phase < phases; phase++ {
				for op := 0; op < opsPerPhase; op++ {
					if len(live) > 0 && more.Intn(10) == 0 { // more text for a live id — a second Add
						addText(live[more.Intn(len(live))], more)
					}
					switch p := r.Intn(100); {
					case p < 55: // fresh ascending id — the common RowID pattern
						addID(nextID)
						nextID++
					case p < 65: // fresh out-of-order id — forces tail overlap
						id := uint64(r.Int63n(int64(nextID))) + 1
						if _, ok := model.docs[id]; ok {
							continue
						}
						addID(id)
					case p < 90: // remove up to four live ids in one call — tombstones + compaction
						var batch []uint64
						var toks []string
						ends := []int32{0}
						take := func(id uint64, text string) {
							batch = append(batch, id)
							toks = append(toks, Tokenize(text)...)
							ends = append(ends, int32(len(toks)))
						}
						for k := r.Intn(4) + 1; k > 0 && len(live) > 0; k-- {
							i := r.Intn(len(live))
							id := live[i]
							live = append(live[:i], live[i+1:]...)
							if _, ok := model.docs[id]; !ok {
								continue
							}
							take(id, texts[id])
							model.remove(id)
							delete(texts, id)
							removed = append(removed, id)
						}
						// An id the index no longer holds rides along with text it
						// never had or no longer has, and is skipped: one removed
						// earlier, or one of this batch a second time.
						if len(removed) > 0 {
							id := removed[r.Intn(len(removed))]
							if _, ok := model.docs[id]; !ok {
								take(id, makeText(more))
							}
						}
						ix.RemoveTokens(batch, toks, ends)
					default: // re-insert a previously removed id — revival
						if len(removed) == 0 {
							continue
						}
						i := r.Intn(len(removed))
						id := removed[i]
						if _, ok := model.docs[id]; ok {
							continue
						}
						addID(id)
					}
				}
				check(fmt.Sprintf("phase %d", phase))
			}

			// The sequences above must actually have exercised the block
			// machinery, or the equivalence proves nothing.
			st := ix.Stats()
			if st.Blocks == 0 {
				t.Fatalf("property run never sealed a block: %+v", st)
			}

			// And the whole state must survive a v2 snapshot round trip.
			loaded, _, err := LoadSnapshot(ix.AppendSnapshot(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if !reflect.DeepEqual(drain(loaded.AndIter(q)), drain(ix.AndIter(q))) {
					t.Fatalf("snapshot round trip diverges on %q", q)
				}
			}
		})
	}
}
