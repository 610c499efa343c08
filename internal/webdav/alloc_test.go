package webdav

import (
	"io"
	"testing"
)

// countingWriter sits under every chunk of a streamed /xdb response; it
// must forward a chunk and count it without allocating.
func TestCountingWriterZeroAlloc(t *testing.T) {
	cw := &countingWriter{w: io.Discard}
	chunk := make([]byte, 4096)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := cw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("countingWriter.Write = %.2f allocs/op, want 0", n)
	}
	if cw.n != 1001*int64(len(chunk)) {
		t.Errorf("counted %d bytes, want %d", cw.n, 1001*len(chunk))
	}
}
