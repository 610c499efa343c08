package ordbms

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// LogImage is a log file taken apart: where its intact frames end, and
// the records they carry.  Crash tests cut logs with it — inside a frame
// or at its end, or after any record by writing a log of exactly the
// records before the cut (see Framed) — and tools can read a log's
// records with it without opening the store.
type LogImage struct {
	Base   uint64 // the header's base LSN: that of Stream[0]
	Frames []int  // where each intact frame ends in the file
	Stream []byte // the records the frames carry, each framed as in the log
	Types  []byte // each record's type
	Ends   []int  // where each record ends in Stream: its LSN, less Base
}

// ReadLog takes a log file apart.  A torn tail ends it, as it ends
// Replay; a corrupt frame or record, or a file that is not a log of this
// format, is an error.
func ReadLog(file []byte) (*LogImage, error) {
	if len(file) < walHeaderSize || [8]byte(file[:8]) != walMagic {
		return nil, fmt.Errorf("%w (the log does not start with %q)", ErrStoreFormat, walMagic[:])
	}
	li := &LogImage{Base: binary.LittleEndian.Uint64(file[8:walHeaderSize])}
	s := newLogScanner(bytes.NewReader(file), int64(len(file)), walHeaderSize)
	for {
		ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return li, nil
		}
		li.Frames = append(li.Frames, int(s.pos))
		for p := s.out; len(p) > 0; {
			body, rest, ok := nextRecord(p)
			if !ok {
				return nil, fmt.Errorf("%w in the frame ending at byte %d", errCorruptRecord, s.pos)
			}
			li.Stream = append(li.Stream, p[:len(p)-len(rest)]...)
			li.Types = append(li.Types, body[0])
			li.Ends = append(li.Ends, len(li.Stream))
			p = rest
		}
	}
}

// Framed returns a log file with the image's base and records, framed in
// groups: the first groups[0] records in one frame, the next groups[1] in
// the next, and so on, all one deflate stream.  The records past the
// groups are left out, so Framed(n) is a log of exactly the first n.
func (li *LogImage) Framed(groups ...int) []byte {
	file := binary.LittleEndian.AppendUint64(append([]byte(nil), walMagic[:]...), li.Base)
	var fw frameWriter
	defer fw.release()
	from, start := 0, 0
	for _, n := range groups {
		if n == 0 {
			continue
		}
		end := li.Ends[from+n-1]
		file = append(file, fw.frame(li.Stream[start:end])...)
		from, start = from+n, end
	}
	return file
}

// Cuts returns the offsets to cut the log file at: the end of its header
// and of each intact frame, and two inside each frame — in its header and
// in the middle of its payload.
func (li *LogImage) Cuts() []int {
	cuts := []int{walHeaderSize}
	for _, end := range li.Frames {
		start := cuts[len(cuts)-1]
		cuts = append(cuts, start+walFrameHeader/2+1, (start+walFrameHeader+end)/2, end)
	}
	return cuts
}
