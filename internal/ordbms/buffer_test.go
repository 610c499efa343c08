package ordbms

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// gatedDisk holds every ReadPage until the test opens the gate, and says
// when the first read has arrived.
type gatedDisk struct {
	DiskManager
	arrived chan struct{} // closed when the first ReadPage is waiting
	gate    chan struct{} // closed by the test to let reads finish
	once    sync.Once
}

func (d *gatedDisk) ReadPage(no uint32, buf []byte) error {
	d.once.Do(func() { close(d.arrived) })
	<-d.gate
	return d.DiskManager.ReadPage(no, buf)
}

// Fetches of a page whose read is still in flight wait for the bytes: none
// may be handed the published-but-empty frame ("slot N out of range (have
// 0)" under parallel cold readers).
func TestFetchWaitsForInflightRead(t *testing.T) {
	inner := NewMemDisk()
	h := NewHeapFile(NewBufferPool(inner, 8), nil)
	rid, err := h.Insert([]byte("cold row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	disk := &gatedDisk{DiskManager: inner, arrived: make(chan struct{}), gate: make(chan struct{})}
	pool := NewBufferPool(disk, 8) // nothing resident
	const fetchers = 8
	got := make(chan string, fetchers)
	read := func() {
		f, err := pool.Fetch(rid.Page)
		if err != nil {
			got <- err.Error()
			return
		}
		f.Latch.RLock()
		rec, err := f.Page.Get(int(rid.Slot))
		if err != nil {
			got <- err.Error()
		} else {
			got <- string(rec)
		}
		f.Latch.RUnlock()
		pool.Unpin(f)
	}
	go read()
	<-disk.arrived // the frame is published, its read is parked
	for i := 1; i < fetchers; i++ {
		go read()
	}
	select {
	case s := <-got:
		t.Fatalf("a fetch returned %q while the page read was still in flight", s)
	case <-time.After(50 * time.Millisecond):
	}
	close(disk.gate)
	for i := 0; i < fetchers; i++ {
		if s := <-got; s != "cold row" {
			t.Fatalf("fetcher read %q, want the row", s)
		}
	}
}

// A failed read reaches every fetcher that waited on it, and the next
// fetch starts a fresh read.
func TestFetchInflightReadFailure(t *testing.T) {
	fd := newFaultDisk()
	h := NewHeapFile(NewBufferPool(fd, 8), nil)
	rid, err := h.Insert([]byte("row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	disk := &gatedDisk{DiskManager: fd, arrived: make(chan struct{}), gate: make(chan struct{})}
	pool := NewBufferPool(disk, 8)
	setFailReads := func(on bool) {
		fd.mu.Lock()
		fd.failReads = on
		fd.mu.Unlock()
	}
	setFailReads(true)
	errs := make(chan error, 2)
	fetch := func() {
		f, err := pool.Fetch(rid.Page)
		if err == nil {
			pool.Unpin(f)
		}
		errs <- err
	}
	go fetch()
	<-disk.arrived
	go fetch()
	select {
	case err := <-errs:
		t.Fatalf("a fetch returned (%v) while the page read was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(disk.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a fetcher of a page whose read failed got a frame")
		}
	}
	setFailReads(false)
	f, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatalf("fetch after the fault cleared: %v", err)
	}
	pool.Unpin(f)
}

// A checkpoint's page flush runs beside writers.  A writer marks its page
// dirty in the latch hold that changes it, so a flush can never find the
// page changed but clean and skip it — the record below the checkpoint's
// cut would then be truncated from the log with its page unwritten — and
// the flag is never touched by two goroutines with no lock between them,
// which go test -race checks.
func TestFlushAllBesideInsert(t *testing.T) {
	disk := NewMemDisk()
	h := NewHeapFile(NewBufferPool(disk, 8), nil)
	stop := make(chan struct{})
	flushed := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- nil
				return
			default:
			}
			if err := h.pool.FlushAll(); err != nil {
				flushed <- err
				return
			}
		}
	}()
	var rids []RowID
	for i := 0; i < 2000; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("row %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cold := NewBufferPool(disk, 8) // reads every page from the disk
	for i, rid := range rids {
		f, err := cold.Fetch(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := f.Page.Get(int(rid.Slot))
		cold.Unpin(f)
		if want := fmt.Sprintf("row %d", i); err != nil || string(rec) != want {
			t.Fatalf("row %d on disk = %q, %v; want %q", i, rec, err, want)
		}
	}
}
