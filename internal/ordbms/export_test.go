package ordbms

import (
	"fmt"

	"netmark/internal/vfs"
)

// OpenWAL opens or creates the log at path, doing all file I/O through
// fsys.  It inflates the log's intact frames to find where the record
// stream ends, since a log's size says nothing about its LSNs.
func OpenWAL(fsys vfs.FS, path string) (*WAL, error) {
	w, err := openWAL(fsys, path)
	if err != nil {
		return nil, err
	}
	if _, err := w.Replay(nil); err != nil {
		w.closeFile()
		return nil, fmt.Errorf("ordbms: open wal: %w", err)
	}
	return w, nil
}

// ScanMeta reports what a scan of pages finds: the live-row count and
// free-space map a heap over them rebuilds, in the catalog's form.
func ScanMeta(pool *BufferPool, pages []uint32) (rows int64, free [][2]uint32, err error) {
	h, err := OpenHeapFile(pool, nil, pages)
	if err != nil {
		return 0, nil, err
	}
	_, rows, free = h.meta()
	return rows, free, nil
}
