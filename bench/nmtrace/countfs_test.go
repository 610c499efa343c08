package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCountFSTallies writes a known pattern through the counting
// filesystem and checks every tally, then that the bytes are on disk.
func TestCountFSTallies(t *testing.T) {
	dir := t.TempDir()
	fs := NewCountFS()

	wal, err := fs.OpenFile(filepath.Join(dir, "wal.nmlog"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := wal.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Create(filepath.Join(dir, "data.nmdb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteAt(make([]byte, 8192), 8192); err != nil {
		t.Fatal(err)
	}
	if err := data.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(filepath.Join(dir, "catalog.json.tmp"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := fs.Create(filepath.Join(dir, "xmlstore.nmsnap.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Write([]byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	// Reads are not writes.
	if _, err := fs.ReadFile(filepath.Join(dir, "catalog.json.tmp")); err != nil {
		t.Fatal(err)
	}
	for _, f := range []interface{ Close() error }{wal, data, snap} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	got := fs.Snapshot()
	if got.WriteCalls != 6 {
		t.Errorf("write calls = %d, want 6", got.WriteCalls)
	}
	if got.Bytes[classWAL] != 300 || got.Bytes[classData] != 8192 || got.Bytes[classSnapshot] != 10 {
		t.Errorf("bytes = %v, want wal 300, data 8192, snapshot 10", got.Bytes)
	}
	if len(got.Syncs) != 2 {
		t.Errorf("fsyncs = %d, want 2", len(got.Syncs))
	}
	if info, err := os.Stat(filepath.Join(dir, "data.nmdb")); err != nil || info.Size() != 16384 {
		t.Errorf("data.nmdb on disk: %v, %v", info, err)
	}
}
