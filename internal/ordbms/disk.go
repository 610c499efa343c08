package ordbms

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"netmark/internal/vfs"
)

// DiskManager provides page-granular storage: the buffer pool's view of
// the data file.
type DiskManager interface {
	// AllocatePage reserves a new page and returns its number.  Page 0 is
	// never allocated; it is reserved so that RowID{0,0} can act as nil.
	AllocatePage() (uint32, error)
	ReadPage(no uint32, buf []byte) error
	WritePage(no uint32, buf []byte) error
	NumPages() uint32
	Sync() error
	Close() error
}

// fileDisk is the DiskManager: a compressed page store.  The
// data file starts with diskMagic; after it, each page that has been
// written lies in one extent, the block encodePage made of it or, when
// that is not shorter, the page itself.  Where each page lies is the page
// map, which the checkpoint's catalog commits (see DB.saveCatalogLocked).
// Once trained, the store dictionary every block may reach into lies in
// one more extent, which the catalog names beside the map and which is
// never freed or moved.
//
// A write never overwrites an extent the committed map names: it goes
// first-fit into a hole, a byte range no map that may be read names, or
// at the end.  So a crash finds every page where the committed catalog
// says, as it was at that checkpoint, and recovery redoes the log from
// those versions by page LSN.  Extents written after the commit, by
// eviction or by a checkpoint cut short, are never read.  A page with no
// extent reads as zeros, an empty page.
type fileDisk struct {
	mu    sync.Mutex
	f     vfs.File
	pages uint32 // guarded by mu
	// cur is where each page's latest version lies, by page number, for
	// the pages that have one.  A map, not a slice, so that a catalog's
	// page numbers cost only the extents it lists.  Guarded by mu.
	cur pageExtents
	// committed is the map the catalog on disk names.  Guarded by mu.
	committed pageExtents
	// unsure holds the maps handed to catalogs whose commit is in flight
	// or failed: any of them may be the one on disk, so their extents are
	// kept until a commit succeeds.  Guarded by mu.
	unsure []pageExtents
	// holes are the free byte ranges, in file order, no two adjacent; the
	// last may end at end.  Guarded by mu.
	holes []extent
	end   int64 // guarded by mu; the file's size
	// unsynced says an extent was written since the last Sync.  Guarded
	// by mu.
	unsynced bool
	// dict is the store dictionary, noDict until it is trained; it is set
	// once, to a dictionary that stays as it is.
	dict atomic.Pointer[pageDict]
	// dictExt is where dict lies, 0 bytes until it is trained.  Guarded
	// by mu.
	dictExt extent
}

// extent is n bytes of the data file at off: a page's block.  n is 0 for
// a page with no extent and PageSize for a page stored raw.
type extent struct {
	off, n int64
}

// pageExtents is a page map: each written page's extent by page number.
type pageExtents map[uint32]extent

// diskMagic starts the data file; the digit moves with the file's layout.
const diskMagic = "NETMARKDB v3\x00\x00\x00\x00"

// blockPool keeps the buffers page reads take blocks into, and
// scratchPool the encoder's state page writes code through.
var (
	blockPool   = sync.Pool{New: func() any { return new([PageSize]byte) }}
	scratchPool = sync.Pool{New: func() any { return new(pageScratch) }}
)

// openFileDisk opens (or creates) the data file through fsys, with the
// page map a catalog committed: count pages, and ext's [page, offset,
// length] triples, which catalogFile.check has found in page order, each
// page below count; and dict, the store dictionary's [offset, length],
// nil when it has none, which check has found no longer than dictMax.  A
// map naming bytes past the file's end, or two extents that overlap, the
// dictionary's among them, is a corrupt catalog, refused before anything
// is written.  The dictionary is read once, here.
func openFileDisk(fsys vfs.FS, path string, count uint32, ext [][3]int64, dict *[2]int64) (*fileDisk, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ordbms: open data file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d := &fileDisk{f: f, pages: count, end: st.Size(), cur: make(pageExtents, len(ext))}
	if d.end > 0 {
		hdr := make([]byte, len(diskMagic))
		if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != diskMagic {
			f.Close()
			return nil, fmt.Errorf("ordbms: %s is not a netmark data file", path)
		}
	}
	byOff := make([][3]int64, len(ext), len(ext)+1)
	copy(byOff, ext)
	if dict != nil {
		byOff = append(byOff, [3]int64{-1, dict[0], dict[1]}) // page -1: the dictionary
	}
	slices.SortFunc(byOff, func(a, b [3]int64) int { return cmp.Compare(a[1], b[1]) })
	name := func(e [3]int64) string {
		if e[0] < 0 {
			return "the dictionary's"
		}
		return fmt.Sprintf("page %d's", e[0])
	}
	for i, e := range byOff {
		switch {
		case e[1] > d.end-e[2]:
			f.Close()
			return nil, fmt.Errorf("ordbms: corrupt catalog: %s extent ends past the data file's %d bytes", name(e), d.end)
		case e[1] < int64(len(diskMagic)):
			f.Close()
			return nil, fmt.Errorf("ordbms: corrupt catalog: %s extent overlaps the data file's header", name(e))
		case i > 0 && e[1] < byOff[i-1][1]+byOff[i-1][2]:
			f.Close()
			return nil, fmt.Errorf("ordbms: corrupt catalog: %s extent overlaps %s", name(e), name(byOff[i-1]))
		}
		if e[0] >= 0 {
			d.cur[uint32(e[0])] = extent{e[1], e[2]}
		}
	}
	d.dict.Store(noDict)
	if dict != nil {
		data := make([]byte, dict[1])
		if _, err := f.ReadAt(data, dict[0]); err != nil {
			f.Close()
			return nil, fmt.Errorf("ordbms: read the data file's dictionary: %w", err)
		}
		d.dict.Store(newPageDict(data))
		d.dictExt = extent{dict[0], dict[1]}
	}
	if d.end == 0 {
		if _, err := f.WriteAt([]byte(diskMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("ordbms: init data file: %w", err)
		}
		d.end = int64(len(diskMagic))
	}
	d.committed = maps.Clone(d.cur)
	d.findHolesLocked()
	return d, nil
}

func (d *fileDisk) AllocatePage() (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages++
	return d.pages - 1, nil
}

// ReadPage reads page no's extent in one ReadAt and decodes it, with mu
// released, into buf.
func (d *fileDisk) ReadPage(no uint32, buf []byte) error {
	page := buf[:PageSize]
	d.mu.Lock()
	if no == 0 || no >= d.pages {
		d.mu.Unlock()
		return fmt.Errorf("ordbms: read of unallocated page %d", no)
	}
	e := d.cur[no]
	switch e.n {
	case 0:
		d.mu.Unlock()
		clear(page)
		return nil
	case PageSize:
		_, err := d.f.ReadAt(page, e.off)
		d.mu.Unlock()
		return err
	}
	block := blockPool.Get().(*[PageSize]byte)
	defer blockPool.Put(block)
	_, err := d.f.ReadAt(block[:e.n], e.off)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := decodePage(page, block[:e.n], d.dict.Load().data); err != nil {
		return fmt.Errorf("ordbms: page %d: %w", no, err)
	}
	return nil
}

// WritePage encodes buf, with mu released, and writes the block in one
// WriteAt to a new extent.  The page's last extent becomes a hole unless
// a catalog that may be on disk names it.
func (d *fileDisk) WritePage(no uint32, buf []byte) error {
	s := scratchPool.Get().(*pageScratch)
	defer scratchPool.Put(s)
	block := s.encodePage(buf[:PageSize], d.dict.Load())
	if block == nil {
		block = buf[:PageSize]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if no == 0 || no >= d.pages {
		return fmt.Errorf("ordbms: write of unallocated page %d", no)
	}
	e := d.allocLocked(int64(len(block)))
	if _, err := d.f.WriteAt(block, e.off); err != nil {
		d.freeLocked(e)
		return &IOFault{Op: "write page", Err: err}
	}
	d.unsynced = true
	old := d.cur[no]
	d.cur[no] = e
	if old.n > 0 && !d.keptLocked(no, old) {
		d.freeLocked(old)
	}
	return nil
}

// keptLocked reports whether a catalog that is or may be on disk names e
// as page no's extent.  Caller holds mu.
func (d *fileDisk) keptLocked(no uint32, e extent) bool {
	if d.committed[no] == e {
		return true
	}
	for _, m := range d.unsure {
		if m[no] == e {
			return true
		}
	}
	return false
}

// allocLocked takes n bytes from the first hole that has them, or from
// the end of the file.  Caller holds mu.
func (d *fileDisk) allocLocked(n int64) extent {
	for i, h := range d.holes {
		switch {
		case h.n >= n:
			if d.holes[i] = (extent{h.off + n, h.n - n}); h.n == n {
				d.holes = slices.Delete(d.holes, i, i+1)
			}
			return extent{h.off, n}
		case h.off+h.n == d.end: // the last hole: the file grows past it
			d.holes = d.holes[:i]
			d.end = h.off + n
			return extent{h.off, n}
		}
	}
	d.end += n
	return extent{d.end - n, n}
}

// freeLocked makes e a hole, merged with the holes beside it.  Caller
// holds mu.
func (d *fileDisk) freeLocked(e extent) {
	i, _ := slices.BinarySearchFunc(d.holes, e.off, func(h extent, off int64) int { return cmp.Compare(h.off, off) })
	if i > 0 && d.holes[i-1].off+d.holes[i-1].n == e.off {
		i--
		e = extent{d.holes[i].off, d.holes[i].n + e.n}
		d.holes = slices.Delete(d.holes, i, i+1)
	}
	if i < len(d.holes) && e.off+e.n == d.holes[i].off {
		e.n += d.holes[i].n
		d.holes = slices.Delete(d.holes, i, i+1)
	}
	d.holes = slices.Insert(d.holes, i, e)
}

// findHolesLocked sets holes to every byte range past the header that
// neither the committed nor the current map names, nor the dictionary
// takes.  Caller holds mu, or is openFileDisk.
func (d *fileDisk) findHolesLocked() {
	used := make([]extent, 0, len(d.cur)+len(d.committed)+1)
	if d.dictExt.n > 0 {
		used = append(used, d.dictExt)
	}
	for _, m := range []pageExtents{d.committed, d.cur} {
		for _, e := range m {
			if e.n > 0 {
				used = append(used, e)
			}
		}
	}
	slices.SortFunc(used, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	d.holes = d.holes[:0]
	pos := int64(len(diskMagic))
	for _, e := range used {
		if e.off > pos {
			d.holes = append(d.holes, extent{pos, e.off - pos})
		}
		pos = max(pos, e.off+e.n)
	}
	if d.end > pos {
		d.holes = append(d.holes, extent{pos, d.end - pos})
	}
}

// pageMap returns the map a checkpoint's catalog commits: the page count,
// every written page's extent and the dictionary's, 0 bytes when there
// is none.  Its extents are kept from reuse until a commit succeeds,
// since from here until then a crash may find this map's catalog on disk
// or the last one's.  The data file is fsynced first when an extent, the
// dictionary's among them, was written since its last Sync, so no map
// names bytes the device may not have.  A map equal to the last one kept
// is not kept twice: a degraded store's checkpoints fail over and over
// with nothing written between them.
func (d *fileDisk) pageMap() (count uint32, m pageExtents, dict extent, err error) {
	d.mu.Lock()
	count, m, dict = d.pages, maps.Clone(d.cur), d.dictExt
	if n := len(d.unsure); n == 0 || !maps.Equal(d.unsure[n-1], m) {
		d.unsure = append(d.unsure, m)
	}
	flush := d.unsynced
	d.mu.Unlock()
	if flush {
		err = d.Sync()
	}
	return count, m, dict, err
}

// trained reports whether the store has its dictionary.
func (d *fileDisk) trained() bool { return d.dict.Load() != noDict }

// train makes data, at most dictMax bytes, the store dictionary: it is
// written to an extent of its own and every page written from here on
// is coded against it.  The next pageMap fsyncs the extent before a
// catalog names it; until one does, a crash leaves it a hole, and a
// later open trains again.
func (d *fileDisk) train(data []byte) error {
	dict := newPageDict(data)
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.allocLocked(int64(len(data)))
	if _, err := d.f.WriteAt(data, e.off); err != nil {
		d.freeLocked(e)
		return &IOFault{Op: "write dictionary", Err: err}
	}
	d.unsynced = true
	d.dictExt = e
	d.dict.Store(dict)
	return nil
}

// commit records that the catalog naming m, which pageMap returned, is
// on disk: every extent neither m nor the current map names is a hole,
// and the file is cut after its last live extent.
func (d *fileDisk) commit(m pageExtents) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.committed, d.unsure = m, nil
	d.findHolesLocked()
	if len(d.holes) == 0 {
		return nil
	}
	last := d.holes[len(d.holes)-1]
	if last.off+last.n != d.end {
		return nil
	}
	if err := d.f.Truncate(last.off); err != nil {
		return &IOFault{Op: "truncate data file", Err: err}
	}
	d.holes, d.end = d.holes[:len(d.holes)-1], last.off
	return nil
}

// fileBytes returns the bytes of the committed map's extents, the
// dictionary's and the file's length, holes included.
func (d *fileDisk) fileBytes() (pages, dict, length int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.committed {
		pages += e.n
	}
	return pages, d.dictExt.n, d.end
}

func (d *fileDisk) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

func (d *fileDisk) Sync() error {
	d.mu.Lock()
	d.unsynced = false
	d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		d.mu.Lock()
		d.unsynced = true
		d.mu.Unlock()
		return &IOFault{Op: "sync data file", Err: err}
	}
	return nil
}

func (d *fileDisk) Close() error { return d.f.Close() }
