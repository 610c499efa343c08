// Package scope is lockcheck's golden corpus for the hot-lock and
// lock-order rules.
package scope

import (
	"os"
	"sync"
	"time"

	"netmark/internal/vfs"
)

type engine struct {
	// ckptMu is the checkpoint barrier.
	// netmarkvet:lockorder 10
	ckptMu sync.RWMutex
	// mu is the table lock.
	// netmarkvet:lockorder 20
	mu sync.RWMutex
	// idxMu guards the derived index.
	// netmarkvet:hot netmarkvet:lockorder 30
	idxMu sync.RWMutex
	// statsMu guards counters.
	// netmarkvet:hot netmarkvet:lockorder 40
	statsMu sync.Mutex

	// coldMu has no annotations: blocking under it is allowed.
	coldMu sync.Mutex

	idx  map[string]int
	hits int
	ch   chan int
	f    *os.File
	vf   vfs.File
	fs   vfs.FS
}

// --- known good ---------------------------------------------------------

func (e *engine) goodAscendingOrder() {
	e.ckptMu.RLock()
	e.mu.Lock()
	e.idxMu.Lock()
	e.idx["k"] = 1
	e.idxMu.Unlock()
	e.mu.Unlock()
	e.ckptMu.RUnlock()
}

func (e *engine) goodBlockingOutsideHotLock() error {
	e.idxMu.Lock()
	v := e.idx["k"]
	e.idxMu.Unlock()
	_ = v
	return e.f.Sync()
}

func (e *engine) goodBlockingUnderColdLock() error {
	e.coldMu.Lock()
	defer e.coldMu.Unlock()
	return e.f.Sync()
}

func (e *engine) goodVFSSyncUnderColdLock() error {
	e.coldMu.Lock()
	defer e.coldMu.Unlock()
	return e.vf.Sync()
}

func (e *engine) goodNonBlockingSelect() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	select {
	case v := <-e.ch:
		e.hits += v
	default:
	}
}

func (e *engine) goodReacquireAfterRelease() {
	e.statsMu.Lock()
	e.hits++
	e.statsMu.Unlock()
	e.ckptMu.RLock()
	e.ckptMu.RUnlock()
}

// --- known bad ----------------------------------------------------------

func (e *engine) badSleepUnderHotLock() {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding hot lock idxMu`
}

func (e *engine) badFsyncUnderHotLock() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.f.Sync() // want `\(\*os\.File\)\.Sync while holding hot lock statsMu`
}

func (e *engine) badVFSSyncUnderHotLock() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.vf.Sync() // want `vfs\.File\.Sync while holding hot lock statsMu`
}

func (e *engine) badVFSRenameUnderHotLock() error {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	return e.fs.Rename("a", "b") // want `vfs\.FS\.Rename while holding hot lock idxMu`
}

func (e *engine) badFileIOUnderHotLock() {
	e.idxMu.RLock()
	defer e.idxMu.RUnlock()
	_, _ = os.ReadFile("x") // want `os\.ReadFile while holding hot lock idxMu`
}

func (e *engine) badChannelSendUnderHotLock() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.ch <- 1 // want `channel send while holding hot lock statsMu`
}

func (e *engine) badChannelRecvUnderHotLock() int {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return <-e.ch // want `channel receive while holding hot lock statsMu`
}

func (e *engine) badBlockingSelectUnderHotLock() {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	select { // want `select while holding hot lock idxMu`
	case <-e.ch:
	}
}

func (e *engine) badOrderInversion() {
	e.statsMu.Lock()
	e.mu.Lock() // want `mu \(lockorder 20\) acquired while holding statsMu \(lockorder 40\)`
	e.mu.Unlock()
	e.statsMu.Unlock()
}

func (e *engine) badCkptAfterTable() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ckptMu.RLock() // want `ckptMu \(lockorder 10\) acquired while holding mu \(lockorder 20\)`
	defer e.ckptMu.RUnlock()
}

// A …Locked function is exempt from the guard rule only: its own
// acquisitions and blocking calls are still checked.
func (e *engine) badOrderInversionLocked() {
	e.statsMu.Lock()
	e.ckptMu.RLock() // want `ckptMu \(lockorder 10\) acquired while holding statsMu \(lockorder 40\) in \(\*engine\)\.badOrderInversionLocked`
	e.ckptMu.RUnlock()
	e.statsMu.Unlock()
}

func (e *engine) badFsyncUnderHotLockLocked() error {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	return e.f.Sync() // want `\(\*os\.File\)\.Sync while holding hot lock idxMu in \(\*engine\)\.badFsyncUnderHotLockLocked`
}
