package textindex

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzPhraseMatch checks the phrase matcher against its definition —
// tokenize the text, then look for the terms as a run of consecutive
// tokens — on arbitrary strings, Tokenize against refTokenize, the
// tokenizer contract written out rune by rune, and Terms, ingest's
// interning form, against Tokenize, also when the same Terms has cut
// other text in between.  Each input is
// checked twice: against the terms of a separate query, which rarely
// match, and against a run of the text's own tokens, which always must.
func FuzzPhraseMatch(f *testing.F) {
	f.Add("the technology gap is shrinking", "technology gap", uint8(1), uint8(2))
	f.Add("gap in technology assessments", "technology gap", uint8(0), uint8(3))
	f.Add("cafés society é", "CAFÉS society", uint8(0), uint8(2)) // combining marks extend a token
	f.Add("́́é́ 東́京", "é́ 東", uint8(1), uint8(2))                  // a mark with no token before it separates
	f.Add("abc日本語def", "日本", uint8(1), uint8(3))                     // Han unigrams
	f.Add("東京tower ひらがなカタカナ 한국어2024", "京 tower", uint8(2), uint8(4)) // script boundaries
	f.Add("第3章 v2.0 ÜBER", "3 章", uint8(0), uint8(5))
	f.Add("gap gap gap technology gap gap", "gap technology gap", uint8(2), uint8(3)) // repeated terms
	f.Add("a b a b a b c", "a b a b c", uint8(2), uint8(5))
	f.Add("\xff\xfeab\xc3", "ab", uint8(0), uint8(1)) // invalid UTF-8 separates
	f.Add("İstanbul K", "i̇stanbul k", uint8(0), uint8(2))
	// The ASCII path hands every rune of 0x80 and above to the Unicode
	// path: a mark after an ASCII letter still extends its token.
	f.Add("cafe\u0301 CAFE\u0301s", "cafe\u0301", uint8(0), uint8(2))
	f.Add("ABCdÉF abcdéf ÉFabc", "abcdéf", uint8(1), uint8(2))      // case next to non-ASCII letters
	f.Add("v2東京ｶﾀ V2 ｶﾀｶﾅ2", "v2 東", uint8(0), uint8(3))            // letter, digit and script changes
	f.Add("\xffAbc\xc3 abc\xc3\xa9", "abc", uint8(0), uint8(2))     // invalid UTF-8
	f.Add("a\x00b\x7fc\x1fd\te\rF\x01G", "b c", uint8(2), uint8(3)) // NUL, DEL and other controls separate
	f.Fuzz(func(t *testing.T, text, query string, from, n uint8) {
		toks := Tokenize(text)
		if ref := refTokenize(text); !slices.Equal(toks, ref) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, toks, ref)
		}
		var tm Terms
		first := tm.Append(nil, text)
		tm.Append(nil, query)
		if again := tm.Append([]string{"x"}, text); !slices.Equal(first, toks) || !slices.Equal(again, append([]string{"x"}, toks...)) {
			t.Fatalf("Terms cut %q as %q, then as %q; want %q", text, first, again[1:], toks)
		}
		terms := Tokenize(query)
		if got, want := HasPhrase(text, terms), holdsRun(toks, terms); got != want {
			t.Fatalf("HasPhrase(%q, %q) = %v, tokens %q say %v", text, terms, got, toks, want)
		}
		if len(toks) == 0 {
			return
		}
		i := int(from) % len(toks)
		own := toks[i : i+min(int(n), len(toks)-i)]
		if !HasPhrase(text, own) {
			t.Fatalf("HasPhrase(%q, %q) = false for a run of its own tokens %q", text, own, toks)
		}
	})
}

// holdsRun reports whether terms occur in toks as consecutive elements.
func holdsRun(toks, terms []string) bool {
	for s := 0; s+len(terms) <= len(toks); s++ {
		if slices.Equal(toks[s:s+len(terms)], terms) {
			return true
		}
	}
	return false
}

// refTokenize is the tokenizer contract as one pass over the runes,
// with the token being built held in a buffer.
func refTokenize(text string) []string {
	var out []string
	var b strings.Builder
	last := classOther
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
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
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}
