package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"netmark/internal/vfs"
)

// fileClass groups the store's files by what they hold.
type fileClass int

const (
	classWAL      fileClass = iota // wal.nmlog and its checkpoint successor
	classData                      // data.nmdb, the heap
	classSnapshot                  // derived.nmds, xmlstore.nmsnap, catalog.json
	numClasses
)

func classify(name string) fileClass {
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, "wal.nmlog"):
		return classWAL
	case strings.HasPrefix(base, "data.nmdb"):
		return classData
	default:
		return classSnapshot
	}
}

// CountFS is a vfs.FS that passes everything to the real filesystem and
// tallies what the store asks of it: write calls and bytes per file
// class, and every fsync with its duration.  It is the vfs layer's span
// recorder — the only way to time the device from the benchmark's own
// files, since ordbms routes all its I/O through Options.FS.
type CountFS struct {
	inner vfs.FS

	mu         sync.Mutex
	writeCalls int
	bytes      [numClasses]int64
	syncs      []time.Duration
}

// NewCountFS wraps the real filesystem.
func NewCountFS() *CountFS { return &CountFS{inner: vfs.OS} }

// Tally is a snapshot of the counters.
type Tally struct {
	WriteCalls int
	Bytes      [numClasses]int64
	Syncs      []time.Duration
}

// Snapshot copies the counters.
func (c *CountFS) Snapshot() Tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Tally{c.writeCalls, c.bytes, append([]time.Duration(nil), c.syncs...)}
}

func (c *CountFS) wrote(class fileClass, n int) {
	c.mu.Lock()
	c.writeCalls++
	c.bytes[class] += int64(n)
	c.mu.Unlock()
}

func (c *CountFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, class: classify(name)}, nil
}

func (c *CountFS) Open(name string) (vfs.File, error) {
	f, err := c.inner.Open(name)
	return c.wrap(name, f, err)
}

func (c *CountFS) Create(name string) (vfs.File, error) {
	f, err := c.inner.Create(name)
	return c.wrap(name, f, err)
}

func (c *CountFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	return c.wrap(name, f, err)
}

func (c *CountFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	err := c.inner.WriteFile(name, data, perm)
	if err == nil {
		c.wrote(classify(name), len(data))
	}
	return err
}

func (c *CountFS) Rename(oldpath, newpath string) error         { return c.inner.Rename(oldpath, newpath) }
func (c *CountFS) Remove(name string) error                     { return c.inner.Remove(name) }
func (c *CountFS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *CountFS) ReadDir(name string) ([]fs.DirEntry, error)   { return c.inner.ReadDir(name) }
func (c *CountFS) ReadFile(name string) ([]byte, error)         { return c.inner.ReadFile(name) }
func (c *CountFS) Stat(name string) (fs.FileInfo, error)        { return c.inner.Stat(name) }

// countFile tallies one handle's writes and syncs.
type countFile struct {
	vfs.File
	fs    *CountFS
	class fileClass
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.wrote(f.class, n)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.wrote(f.class, n)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, d)
	f.fs.mu.Unlock()
	return err
}
