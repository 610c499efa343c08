package vfs

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// Mem answers the calls a store makes as the operating system does: every
// step below runs on a Mem and on a temporary directory through OS, and
// the two must agree.
func TestMemMatchesOS(t *testing.T) {
	for _, fsys := range []struct {
		name string
		fs   FS
		dir  string
	}{{"mem", NewMem(), "d"}, {"os", OS, t.TempDir()}} {
		t.Run(fsys.name, func(t *testing.T) { memScript(t, fsys.fs, fsys.dir) })
	}
}

func memScript(t *testing.T, fsys FS, dir string) {
	at := func(name string) string { return dir + "/" + name }
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Missing files answer os.IsNotExist, a file in a missing directory
	// among them.
	for op, call := range map[string]func() error{
		"Open":     func() error { _, err := fsys.Open(at("none")); return err },
		"OpenFile": func() error { _, err := fsys.OpenFile(at("none"), os.O_RDWR, 0); return err },
		"Create":   func() error { _, err := fsys.Create(at("nodir/f")); return err },
		"Stat":     func() error { _, err := fsys.Stat(at("none")); return err },
		"ReadFile": func() error { _, err := fsys.ReadFile(at("none")); return err },
		"ReadDir":  func() error { _, err := fsys.ReadDir(at("none")); return err },
		"Remove":   func() error { return fsys.Remove(at("none")) },
		"Rename":   func() error { return fsys.Rename(at("none"), at("other")) },
	} {
		if err := call(); !os.IsNotExist(err) {
			t.Errorf("%s of a missing file = %v, want one os.IsNotExist accepts", op, err)
		}
	}

	f, err := fsys.OpenFile(at("a"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// WriteAt past the end leaves zeros in the gap.
	if n, err := f.WriteAt([]byte("xyz"), 5); n != 3 || err != nil {
		t.Fatalf("WriteAt past the end = %d, %v", n, err)
	}
	if got, _ := fsys.ReadFile(at("a")); !bytes.Equal(got, []byte("\x00\x00\x00\x00\x00xyz")) {
		t.Fatalf("after WriteAt past the end: %q", got)
	}
	// Write goes at the handle's offset, which started at 0.
	if n, err := f.Write([]byte("ab")); n != 2 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	// ReadAt: a full read, a short one with io.EOF, and one at the end.
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 1); n != 4 || err != nil || string(buf) != "b\x00\x00\x00" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 6); n != 2 || err != io.EOF || string(buf[:n]) != "yz" {
		t.Fatalf("short ReadAt = %d, %v, %q; want 2, io.EOF", n, err, buf[:n])
	}
	if n, err := f.ReadAt(buf, 8); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at the end = %d, %v; want 0, io.EOF", n, err)
	}
	// Truncate both ways: shorter, then longer, which reads as zeros.
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if got, _ := fsys.ReadFile(at("a")); !bytes.Equal(got, []byte("ab\x00\x00\x00\x00")) {
		t.Fatalf("after Truncate(3), Truncate(6): %q", got)
	}
	if st, err := f.Stat(); err != nil || st.Size() != 6 || st.IsDir() || st.Name() != "a" {
		t.Fatalf("Stat = %v, %v", st, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// O_TRUNC empties a file that exists.
	if err := fsys.WriteFile(at("b"), []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := fsys.OpenFile(at("b"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if got, _ := fsys.ReadFile(at("b")); string(got) != "new" {
		t.Fatalf("after O_TRUNC: %q", got)
	}
	// MkdirAll under a file fails and leaves no directory behind.
	if err := fsys.MkdirAll(at("b/sub/dir"), 0o755); err == nil {
		t.Fatal("MkdirAll under a file succeeded")
	}
	if _, err := fsys.Stat(at("b/sub")); err == nil {
		t.Fatal("a failed MkdirAll left a directory under a file")
	}
	// A read-only handle takes no write.
	r, err := fsys.Open(at("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("x")); err == nil {
		t.Fatal("a read-only handle took a write")
	}
	r.Close()

	// Rename over an existing file replaces it; the open handle follows
	// its file, not the name.
	if err := fsys.Rename(at("a"), at("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(at("a")); !os.IsNotExist(err) {
		t.Fatalf("Stat of the old name = %v", err)
	}
	if _, err := f.WriteAt([]byte("Z"), 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := fsys.ReadFile(at("b")); !bytes.Equal(got, []byte("Zb\x00\x00\x00\x00")) {
		t.Fatalf("after Rename over b: %q", got)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b" || ents[0].IsDir() {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	// A directory opens for its Sync.
	d, err := fsys.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	if err := fsys.Remove(at("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.ReadFile(at("b")); !os.IsNotExist(err) {
		t.Fatalf("ReadFile after Remove = %v", err)
	}
	if ents, err := fsys.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("ReadDir after Remove = %v, %v", ents, err)
	}
}
