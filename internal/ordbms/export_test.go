package ordbms

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
