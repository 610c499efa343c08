package vfs

import (
	"cmp"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Mem is an FS held in memory: a store on it runs the code a store on disk
// runs, its files going with the process.  Sync does nothing; a handle keeps
// its file across a Rename or Remove of its name.  Safe for concurrent use.
type Mem struct {
	mu    sync.Mutex
	nodes map[string]*memNode // files and directories by cleaned path; guarded by mu
}

// memNode is a file's bytes, or a directory.  Mem.mu guards data.
type memNode struct {
	data []byte
	mode fs.FileMode
}

// NewMem returns an empty Mem whose only directories are "." and "/".
func NewMem() *Mem {
	return &Mem{nodes: map[string]*memNode{".": {mode: fs.ModeDir | 0o755}, "/": {mode: fs.ModeDir | 0o755}}}
}

func memErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }
func (n *memNode) isDir() bool                { return n != nil && n.mode.IsDir() }

const create = os.O_RDWR | os.O_CREATE | os.O_TRUNC // Create's and WriteFile's flags
func (m *Mem) Open(name string) (File, error)       { return m.OpenFile(name, os.O_RDONLY, 0) }
func (m *Mem) Create(name string) (File, error)     { return m.OpenFile(name, create, 0) }

// OpenFile honours O_CREATE, O_TRUNC and the access mode, never writable on a directory.
func (m *Mem) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[name]
	switch {
	case n == nil && (flag&os.O_CREATE == 0 || !m.nodes[filepath.Dir(name)].isDir()):
		return nil, memErr("open", name, fs.ErrNotExist)
	case n == nil:
		n = &memNode{mode: 0o644}
		m.nodes[name] = n
	case flag&os.O_TRUNC != 0 && !n.isDir():
		n.data = nil
	}
	return &memFile{m: m, name: name, n: n, write: flag&(os.O_WRONLY|os.O_RDWR) != 0 && !n.isDir()}, nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[oldpath]
	if n == nil || n.isDir() || m.nodes[newpath].isDir() || !m.nodes[filepath.Dir(newpath)].isDir() {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(m.nodes, oldpath)
	m.nodes[newpath] = n
	return nil
}

func (m *Mem) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.nodes[name]; n == nil || n.isDir() {
		return memErr("remove", name, fs.ErrNotExist)
	}
	delete(m.nodes, name)
	return nil
}

func (m *Mem) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	for m.nodes[p] == nil {
		p = filepath.Dir(p)
	}
	if !m.nodes[p].isDir() {
		return memErr("mkdir", p, syscall.ENOTDIR)
	}
	for p = filepath.Clean(path); m.nodes[p] == nil; p = filepath.Dir(p) {
		m.nodes[p] = &memNode{mode: fs.ModeDir | 0o755}
	}
	return nil
}

func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.nodes[name].isDir() {
		return nil, memErr("readdir", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, n := range m.nodes {
		if p != name && filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(&memFile{m: m, name: p, n: n}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return cmp.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (m *Mem) ReadFile(name string) (data []byte, err error) {
	f, err := m.Open(name)
	if err == nil {
		data, err = io.ReadAll(f)
	}
	return data, err
}

func (m *Mem) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f, err := m.OpenFile(name, create, perm)
	if err == nil {
		_, err = f.Write(data)
	}
	return err
}

func (m *Mem) Stat(name string) (fs.FileInfo, error) {
	f, err := m.Open(name)
	if err != nil {
		return nil, err
	}
	return f.Stat()
}

// memFile is a handle on a Mem node, and its own fs.FileInfo.
type memFile struct {
	m     *Mem
	name  string // the cleaned path it was opened by
	n     *memNode
	write bool
	off   int64 // Read and Write go on from here; Mem.mu guards it
}

func (f *memFile) Read(p []byte) (int, error)               { return f.rw(p, &f.off, false) }
func (f *memFile) ReadAt(p []byte, off int64) (int, error)  { return f.rw(p, &off, false) }
func (f *memFile) Write(p []byte) (int, error)              { return f.rw(p, &f.off, true) }
func (f *memFile) WriteAt(p []byte, off int64) (int, error) { return f.rw(p, &off, true) }

// rw reads or writes p at *off and moves *off on; a write fills any gap with zeros.
func (f *memFile) rw(p []byte, off *int64, write bool) (n int, err error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	switch at := *off; {
	case write && !f.write || at < 0:
		return 0, memErr("rw", f.name, syscall.EINVAL)
	case write:
		f.n.resize(max(int64(len(f.n.data)), at+int64(len(p))))
		n = copy(f.n.data[at:], p)
	default:
		if n = copy(p, f.n.data[min(at, int64(len(f.n.data))):]); n < len(p) {
			err = io.EOF
		}
	}
	*off += int64(n)
	return n, err
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if !f.write || size < 0 {
		return memErr("truncate", f.name, syscall.EINVAL)
	}
	f.n.resize(size)
	return nil
}

// resize makes the file size bytes long, zero-filled.  Caller holds Mem.mu.
func (n *memNode) resize(size int64) {
	n.data = append(n.data[:min(size, int64(len(n.data)))], make([]byte, max(0, size-int64(len(n.data))))...)
}

func (f *memFile) Stat() (fs.FileInfo, error) { return f, nil }
func (f *memFile) Sync() error                { return nil }
func (f *memFile) Close() error               { return nil }
func (f *memFile) Name() string               { return filepath.Base(f.name) }
func (f *memFile) ModTime() time.Time         { return time.Time{} }
func (f *memFile) IsDir() bool                { return f.n.isDir() }
func (f *memFile) Mode() fs.FileMode          { return f.n.mode }
func (f *memFile) Sys() any                   { return nil }
func (f *memFile) Size() int64 {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return int64(len(f.n.data))
}
