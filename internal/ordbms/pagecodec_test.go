package ordbms

import (
	"bytes"
	"math/rand"
	"testing"
)

// realPages returns the pages of a heap of rows as the XML store writes
// them — ints, links, NULLs and strings coded under a trained symbol
// table — some full, some with deletes in them, and the last part empty.
func realPages(t testing.TB) [][]byte {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", MustSchema(Column{"n", TypeInt}, Column{"s", TypeString}, Column{"at", TypeRowID}, Column{"x", TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	var rid RowID
	for i, text := range prose(3, 1200) {
		x := Null()
		if i%3 == 0 {
			x = I(int64(i * 7))
		}
		if rid, err = tbl.Insert(Row{I(int64(i)), S(text), R(rid), x}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if err := db.Commit(); err != nil { // trains the symbol table on the way
				t.Fatal(err)
			}
		}
		if i%5 == 2 {
			if err := tbl.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	for _, no := range tbl.heap.Pages() {
		p := make([]byte, PageSize)
		if err := db.file.ReadPage(no, p); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if len(pages) < 4 {
		t.Fatalf("the heap has %d pages", len(pages))
	}
	return pages
}

// realDict is the dictionary a store trains on pages: dictSamples of
// them spread evenly.
func realDict(pages [][]byte) *pageDict {
	var data []byte
	for k := 0; k < dictSamples; k++ {
		var p Page
		copy(p.data[:], pages[k*len(pages)/dictSamples])
		data = p.appendSample(data)
	}
	return newPageDict(data)
}

// randomPage is a page of random bytes with runs of one byte and copies
// of earlier stretches in it, at every offset the codec reaches.
func randomPage(rng *rand.Rand) []byte {
	p := make([]byte, PageSize)
	for i := 0; i < PageSize; {
		n := min(1+rng.Intn(300), PageSize-i)
		switch rng.Intn(3) {
		case 0:
			rng.Read(p[i : i+n])
		case 1:
			b := byte(rng.Intn(3))
			for j := i; j < i+n; j++ {
				p[j] = b
			}
		case 2:
			if i > 0 {
				from := rng.Intn(i)
				for j := 0; j < n; j++ {
					p[i+j] = p[from+j] // overlapping when from+n > i
				}
			}
		}
		i += n
	}
	return p
}

// Decode of encode is the identity, with no dictionary and with one
// trained on a real heap, on the heap's pages, an empty page, a page of
// noise (stored raw) and random pages.  The heap's pages come out well
// under their size, and under that against the dictionary.
func TestPageCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, PageSize)
	rng.Read(noise)
	pages := realPages(t)
	real := len(pages)
	dict := realDict(pages)
	pages = append(pages, make([]byte, PageSize), noise)
	for i := 0; i < 200; i++ {
		pages = append(pages, randomPage(rng))
	}
	var s pageScratch
	var stored [2]int
	for k, d := range []*pageDict{noDict, dict} {
		for i, p := range pages {
			block := s.encodePage(p, d)
			if block == nil {
				block = p
			}
			if i < real {
				stored[k] += len(block)
			}
			got := make([]byte, PageSize)
			if err := decodePage(got, block, d.data); err != nil {
				t.Fatalf("dictionary %d, page %d: %v", k, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("dictionary %d: page %d does not decode to itself", k, i)
			}
		}
		if s.encodePage(noise, d) != nil {
			t.Errorf("dictionary %d: a page of noise encodes shorter than itself", k)
		}
	}
	if ratio := float64(stored[0]) / float64(real*PageSize); ratio > 0.8 {
		t.Errorf("a real heap's pages store at %.3f of their size", ratio)
	}
	if ratio := float64(stored[1]) / float64(stored[0]); ratio > 0.9 {
		t.Errorf("against the dictionary, a real heap's pages store at %.3f of their size alone", ratio)
	}
}

// Decoding a page allocates nothing, with or without a dictionary: a
// page read costs the pool no more than the read itself.
func TestDecodePageZeroAlloc(t *testing.T) {
	var s pageScratch
	pages := realPages(t)
	dict := realDict(pages)
	page := make([]byte, PageSize)
	for _, d := range []*pageDict{noDict, dict} {
		block := append([]byte(nil), s.encodePage(pages[1], d)...)
		if d == dict && decodePage(page, block, nil) == nil {
			t.Fatal("the block coded against the dictionary does not reach into it")
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := decodePage(page, block, d.data); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decodePage against %d dictionary bytes = %.2f allocs/op, want 0", len(d.data), n)
		}
	}
}

// FuzzPageCodec decodes arbitrary bytes as a block, with no dictionary
// and against one trained on a real heap: decodePage returns a page or
// an error, never panics and writes nothing outside its page.  The same
// bytes, cut or padded to a page, encode to a block that decodes back to
// them, with either.
func FuzzPageCodec(f *testing.F) {
	var s pageScratch
	pages := realPages(f)
	dict := realDict(pages)
	block := append([]byte(nil), s.encodePage(pages[0], noDict)...)
	f.Add(block)
	f.Add(block[:len(block)/2])                                  // cut short
	f.Add(append([]byte{0x0f, 'a', 0, 0}, block...))             // a match of offset 0
	f.Add([]byte{0x0f, 'a', 2, 0, 255, 255, 255, 255, 255, 255}) // a match run past the page
	f.Add([]byte{0xf0, 255, 255, 255, 255, 255, 255, 255, 255})  // literals past the block
	f.Add(append([]byte(nil), s.encodePage(pages[1], dict)...))  // reaching into the dictionary
	f.Add([]byte{0x0f, 'a', 0xff, 0xff, 0})                      // a match from before the dictionary
	zeros := append([]byte(nil), s.encodePage(make([]byte, PageSize), noDict)...)
	f.Add(zeros)                                               // an empty page
	f.Add(append(zeros[:len(zeros)-1], zeros[len(zeros)-1]-1)) // a byte short of one
	f.Add(pages[len(pages)-1])                                 // a page, read raw
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		page := make([]byte, PageSize)
		copy(page, in)
		var s pageScratch
		for _, d := range []*pageDict{noDict, dict} {
			const guard = 64
			buf := make([]byte, guard+PageSize+guard)
			for i := range buf {
				buf[i] = 0xa5
			}
			if err := decodePage(buf[guard:guard+PageSize:guard+PageSize], in, d.data); err == nil && len(in) == PageSize && !bytes.Equal(buf[guard:guard+PageSize], in) {
				t.Fatal("a raw page decodes to other bytes")
			}
			for i, b := range buf {
				if (i < guard || i >= guard+PageSize) && b != 0xa5 {
					t.Fatalf("decodePage against %d dictionary bytes wrote byte %d, outside its page", len(d.data), i-guard)
				}
			}

			block := s.encodePage(page, d)
			if block == nil {
				continue // stored raw
			}
			got := make([]byte, PageSize)
			if err := decodePage(got, block, d.data); err != nil || !bytes.Equal(got, page) {
				t.Fatalf("against %d dictionary bytes, the block of a page decodes to %v, equal %v", len(d.data), err, bytes.Equal(got, page))
			}
		}
	})
}
