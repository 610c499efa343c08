package xdb

import (
	"runtime"
	"testing"
)

// FuzzParseQuery throws arbitrary query strings at Parse, the parser every
// /xdb request reaches.  No input may panic or allocate more than 256 KiB
// plus 256 B per input byte; the same input must give the same query or
// the same error every time (the result-cache key is built from the
// query); and every query it accepts must encode to a string that parses
// back to it.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"context=Introduction", "?content=Shuttle", "context=Technology+Gap&content=Shrinking",
		"context=Budget&xslt=ibpd&limit=50", "context=Tech*&content=%22risk+assessment%22&scope=document",
		"Context=alpha&context=beta", "xslt=a&stylesheet=b", "context=*&content=x", "context=a&content=%22%22",
		"xpath=//section[context='Budget']&limit=007", "scope=Docs&content=+x+", "limit=-1&content=x",
		"content=x;y", "%zz=1", "context=a&context=b&context=%2A", "content=%22%22%22",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := Parse(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(raw)) {
			t.Fatalf("a %d-byte query allocated %d bytes", len(raw), grew)
		}
		for i := 0; i < 8; i++ {
			again, err2 := Parse(raw)
			if again != q || (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
				t.Fatalf("%q parsed to %#v, %v, then to %#v, %v", raw, q, err, again, err2)
			}
		}
		if err != nil {
			return
		}
		enc := q.Encode()
		if back, err := Parse(enc); err != nil || back != q {
			t.Fatalf("%q parsed to %#v, encoded as %q, parsed back to %#v, %v", raw, q, enc, back, err)
		}
	})
}
