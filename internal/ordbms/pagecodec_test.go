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
		if err := db.disk.ReadPage(no, p); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if len(pages) < 4 {
		t.Fatalf("the heap has %d pages", len(pages))
	}
	return pages
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

// Decode of encode is the identity, on the pages of a real heap, an
// empty page, a page of noise (stored raw) and random pages, and a real
// heap's pages come out well under their size.
func TestPageCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, PageSize)
	rng.Read(noise)
	pages := realPages(t)
	real := len(pages)
	pages = append(pages, make([]byte, PageSize), noise)
	for i := 0; i < 200; i++ {
		pages = append(pages, randomPage(rng))
	}
	var s pageScratch
	stored := 0
	for i, p := range pages {
		block := s.encodePage(p)
		if block == nil {
			block = p
		}
		if i < real {
			stored += len(block)
		}
		got := make([]byte, PageSize)
		if err := decodePage(got, block); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("page %d does not decode to itself", i)
		}
	}
	if s.encodePage(noise) != nil {
		t.Error("a page of noise encodes shorter than itself")
	}
	if ratio := float64(stored) / float64(real*PageSize); ratio > 0.8 {
		t.Errorf("a real heap's pages store at %.3f of their size", ratio)
	}
}

// Decoding a page allocates nothing: a page read costs the pool no more
// than the read itself.
func TestDecodePageZeroAlloc(t *testing.T) {
	var s pageScratch
	block := append([]byte(nil), s.encodePage(realPages(t)[0])...)
	page := make([]byte, PageSize)
	if n := testing.AllocsPerRun(200, func() {
		if err := decodePage(page, block); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodePage = %.2f allocs/op, want 0", n)
	}
}

// FuzzPageCodec decodes arbitrary bytes as a block: decodePage returns a
// page or an error, never panics and writes nothing outside its page.
// The same bytes, cut or padded to a page, encode to a block that
// decodes back to them.
func FuzzPageCodec(f *testing.F) {
	var s pageScratch
	pages := realPages(f)
	block := append([]byte(nil), s.encodePage(pages[0])...)
	f.Add(block)
	f.Add(block[:len(block)/2])                                  // cut short
	f.Add(append([]byte{0x0f, 'a', 0, 0}, block...))             // a match of offset 0
	f.Add([]byte{0x0f, 'a', 2, 0, 255, 255, 255, 255, 255, 255}) // a match run past the page
	f.Add([]byte{0xf0, 255, 255, 255, 255, 255, 255, 255, 255})  // literals past the block
	zeros := append([]byte(nil), s.encodePage(make([]byte, PageSize))...)
	f.Add(zeros)                                               // an empty page
	f.Add(append(zeros[:len(zeros)-1], zeros[len(zeros)-1]-1)) // a byte short of one
	f.Add(pages[len(pages)-1])                                 // a page, read raw
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		const guard = 64
		buf := make([]byte, guard+PageSize+guard)
		for i := range buf {
			buf[i] = 0xa5
		}
		if err := decodePage(buf[guard:guard+PageSize:guard+PageSize], in); err == nil && len(in) == PageSize && !bytes.Equal(buf[guard:guard+PageSize], in) {
			t.Fatal("a raw page decodes to other bytes")
		}
		for i, b := range buf {
			if (i < guard || i >= guard+PageSize) && b != 0xa5 {
				t.Fatalf("decodePage wrote byte %d, outside its page", i-guard)
			}
		}

		page := make([]byte, PageSize)
		copy(page, in)
		var s pageScratch
		block := s.encodePage(page)
		if block == nil {
			return // stored raw
		}
		got := make([]byte, PageSize)
		if err := decodePage(got, block); err != nil || !bytes.Equal(got, page) {
			t.Fatalf("the block of a page decodes to %v, equal %v", err, bytes.Equal(got, page))
		}
	})
}
