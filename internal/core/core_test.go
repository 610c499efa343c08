package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netmark/internal/databank"
	"netmark/internal/xdb"
)

func TestOpenInMemory(t *testing.T) {
	nm, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	if nm.Daemon() != nil {
		t.Fatal("daemon should be nil without DropDir")
	}
	if nm.DB() == nil || nm.Store() == nil || nm.Engine() == nil || nm.Banks() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestOpenWithDropDirWiresDaemon(t *testing.T) {
	drop := t.TempDir()
	nm, err := Open(Config{DropDir: drop, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	if nm.Daemon() == nil {
		t.Fatal("daemon not wired")
	}
	if err := os.WriteFile(filepath.Join(drop, "x.html"),
		[]byte(`<html><body><h1>T</h1><p>dropped</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two scans: the first observes the file, the second ingests it once
	// its size/mtime held still (the partial-write guard).
	for i := 0; i < 2; i++ {
		if _, err := nm.Daemon().ScanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if nm.Store().NumDocuments() != 1 {
		t.Fatalf("docs = %d", nm.Store().NumDocuments())
	}
}

func TestIngestBatchPipeline(t *testing.T) {
	nm, err := Open(Config{IngestWorkers: 3, IngestBatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	var docs []Doc
	for i := 0; i < 10; i++ {
		docs = append(docs, Doc{
			Name: filepath.Join("d" + string(rune('0'+i)) + ".html"),
			Data: []byte(`<html><body><h1>Batch</h1><p>pipeline payload</p></body></html>`),
		})
	}
	results := nm.IngestBatch(docs)
	if len(results) != len(docs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
		if i > 0 && results[i].DocID <= results[i-1].DocID {
			t.Fatalf("doc IDs not in input order: %d after %d", r.DocID, results[i-1].DocID)
		}
	}
	if nm.Store().NumDocuments() != int64(len(docs)) {
		t.Fatalf("docs = %d", nm.Store().NumDocuments())
	}
	secs, err := nm.Search("Batch", "payload")
	if err != nil || len(secs) != len(docs) {
		t.Fatalf("search = %d sections, %v", len(secs), err)
	}
}

func TestCreateDatabankDuplicateRejected(t *testing.T) {
	nm, _ := Open(Config{})
	defer nm.Close()
	spec := []byte(`{"name":"b","sources":[{"type":"local","name":"self"}]}`)
	if _, err := nm.CreateDatabank(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.CreateDatabank(spec); err == nil {
		t.Fatal("duplicate databank accepted")
	}
	if _, err := nm.CreateDatabank([]byte(`{"bad json`)); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestQueryBankUnknown(t *testing.T) {
	nm, _ := Open(Config{})
	defer nm.Close()
	if _, err := nm.QueryBank(context.Background(), "ghost", xdb.Query{Context: "X"}); err == nil {
		t.Fatal("unknown bank accepted")
	}
}

func TestAddDatabankProgrammatic(t *testing.T) {
	nm, _ := Open(Config{})
	defer nm.Close()
	if _, err := nm.Ingest("a.html", []byte(`<html><body><h1>S</h1><p>x</p></body></html>`)); err != nil {
		t.Fatal(err)
	}
	bank := databank.New("prog")
	bank.AddSource(databank.NewLocalSource("self", nm.Engine()))
	if err := nm.AddDatabank(bank); err != nil {
		t.Fatal(err)
	}
	m, err := nm.QueryBank(context.Background(), "prog", xdb.Query{Context: "S"})
	if err != nil || len(m.Sections()) != 1 {
		t.Fatalf("bank query: %v %v", m, err)
	}
}

func TestHTTPServerConstruction(t *testing.T) {
	nm, _ := Open(Config{DropDir: t.TempDir()})
	defer nm.Close()
	srv, err := nm.HTTPServer()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}

func TestServeLifecycle(t *testing.T) {
	nm, _ := Open(Config{DropDir: t.TempDir(), PollInterval: 10 * time.Millisecond})
	defer nm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- nm.Serve(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not stop on cancel")
	}
}

// TestServeWaitsForDaemonBatch: cancelling Serve while the daemon is
// inside a batch must not return before the batch is done, or the
// caller's Close would checkpoint and close the store under it.
func TestServeWaitsForDaemonBatch(t *testing.T) {
	drop := t.TempDir()
	nm, err := Open(Config{DropDir: drop, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	nm.Daemon().OnIngest = func(string, uint64, error) {
		once.Do(func() { close(entered) })
		<-release
	}
	if err := os.WriteFile(filepath.Join(drop, "x.html"),
		[]byte(`<html><body><h1>T</h1><p>dropped</p></body></html>`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- nm.Serve(ctx, "127.0.0.1:0") }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon never ingested the dropped file")
	}
	cancel()
	select {
	case err := <-done:
		close(release)
		t.Fatalf("Serve returned %v with the daemon's batch still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return once the batch was done")
	}
	// Serve returned after the batch archived the file, not before.
	if _, err := os.Stat(filepath.Join(drop, ".processed", "x.html")); err != nil {
		t.Fatalf("stored file not archived when Serve returned: %v", err)
	}
}

func TestServeSurfacesDaemonExit(t *testing.T) {
	drop := filepath.Join(t.TempDir(), "drop")
	if err := os.MkdirAll(drop, 0o755); err != nil {
		t.Fatal(err)
	}
	nm, err := Open(Config{DropDir: drop, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- nm.Serve(ctx, "127.0.0.1:0") }()
	if err := nm.DaemonErr(); err != nil {
		t.Fatalf("daemon unhealthy before failure: %v", err)
	}
	// Break the daemon's world: the next scan fails, Run exits, and the
	// failure must land in DaemonErr rather than dying with the
	// goroutine while the server keeps serving.  Serve's webdav setup
	// recreates the drop dir once on startup, so keep removing it until
	// the daemon trips over the absence.
	deadline := time.Now().Add(2 * time.Second)
	for nm.DaemonErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon exit never surfaced via DaemonErr")
		}
		if err := os.RemoveAll(drop); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not stop on cancel")
	}
}

func TestCacheBytesConfig(t *testing.T) {
	// Default: cache on at DefaultCacheBytes.
	nm, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	st, ok := nm.Engine().CacheStats()
	if !ok || st.Capacity != DefaultCacheBytes {
		t.Fatalf("default cache = ok:%v %+v", ok, st)
	}
	// Explicit cap.
	nm2, err := Open(Config{CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer nm2.Close()
	if st, ok := nm2.Engine().CacheStats(); !ok || st.Capacity != 1<<16 {
		t.Fatalf("explicit cache = ok:%v %+v", ok, st)
	}
	// Negative disables.
	nm3, err := Open(Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer nm3.Close()
	if _, ok := nm3.Engine().CacheStats(); ok {
		t.Fatal("negative CacheBytes left the cache enabled")
	}
	// Cached answers stay correct across mutations through the facade:
	// the engine's serving path, ExecuteInto, is the one the cache serves
	// (Query evaluates uncached).
	serve := func() string {
		t.Helper()
		q, err := xdb.Parse("context=K")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nm.Engine().ExecuteInto(q, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if _, err := nm.Ingest("a.html", []byte(`<html><head><title>A</title></head><body><h1>K</h1><p>one</p></body></html>`)); err != nil {
		t.Fatal(err)
	}
	if body := serve(); !strings.Contains(body, "one") || strings.Contains(body, "two") {
		t.Fatalf("query 1 served:\n%s", body)
	}
	before, _ := nm.Engine().CacheStats()
	if body := serve(); !strings.Contains(body, "one") {
		t.Fatalf("query 1 again served:\n%s", body)
	}
	if after, _ := nm.Engine().CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeated query missed the cache: %+v -> %+v", before, after)
	}
	if _, err := nm.Ingest("b.html", []byte(`<html><head><title>B</title></head><body><h1>K</h1><p>two</p></body></html>`)); err != nil {
		t.Fatal(err)
	}
	if body := serve(); !strings.Contains(body, "one") || !strings.Contains(body, "two") {
		t.Fatalf("query 2 after ingest served (stale cache?):\n%s", body)
	}
}
