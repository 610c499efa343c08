package ordbms

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// runRecord frames one page section of a walInsertRun payload the way
// WAL.LogInsertRun does.
func runRecord(page uint32, slots []uint16, recs ...[]byte) []byte {
	p := binary.LittleEndian.AppendUint32(nil, page)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(recs)))
	for i, rec := range recs {
		p = binary.LittleEndian.AppendUint16(p, slots[i])
		p = binary.LittleEndian.AppendUint16(p, uint16(len(rec)))
		p = append(p, rec...)
	}
	return p
}

// FuzzRunRecord feeds nextRunPage and nextRunRow — the splitters both
// Replay's framing check and Recover's apply loop rely on — truncated,
// overlong and arbitrary payloads.  Neither may panic or hand out bytes
// beyond its input, and what nextRunPage accepts, nextRunRow must split
// into exactly the promised rows with nothing left over: recovery
// ignores nextRunRow's ok on the strength of that.
func FuzzRunRecord(f *testing.F) {
	one := runRecord(7, []uint16{0, 1, 5}, []byte("first"), []byte("second row"), []byte{0})
	two := append(append([]byte(nil), one...), runRecord(8, []uint16{3}, bytes.Repeat([]byte{0xAB}, 300))...)
	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)-1])                                // last row cut short
	f.Add(one[:5])                                         // cut inside the page header
	f.Add(two[:len(one)+6])                                // second page promises a row it does not have
	f.Add(runRecord(9, nil))                               // a page with no rows
	f.Add(runRecord(9, []uint16{0}, nil))                  // a zero-length row
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF})                  // 65535 rows promised, none present
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0xFF, 'x'}) // row length far past the payload
	f.Fuzz(func(t *testing.T, p []byte) {
		for rest := p; len(rest) > 0; {
			_, rows, tail, ok := nextRunPage(rest)
			if !ok {
				return
			}
			if len(rest) < 6 || len(rows)+len(tail)+6 != len(rest) || !bytes.HasSuffix(rest, tail) {
				t.Fatalf("page section of %d bytes split into header + %d + %d", len(rest), len(rows), len(tail))
			}
			want := int(binary.LittleEndian.Uint16(rest[4:6]))
			got := 0
			for len(rows) > 0 {
				_, rec, more, ok := nextRunRow(rows)
				if !ok {
					t.Fatalf("nextRunPage accepted rows nextRunRow rejects at row %d", got)
				}
				if len(rec) == 0 || 4+len(rec)+len(more) != len(rows) {
					t.Fatalf("row of %d bytes out of %d, %d left", len(rec), len(rows), len(more))
				}
				rows = more
				got++
			}
			if got != want {
				t.Fatalf("page promised %d rows, split into %d", want, got)
			}
			rest = tail
		}
	})
}
