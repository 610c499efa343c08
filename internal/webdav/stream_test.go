package webdav

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/vfs"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// deepReport is a document whose indented form, about 145 KB, takes
// several of GET /doc's buffers.
func deepReport(i int) corpus.Document { return corpus.New(1).DeepReport(i, 6, 24, 16) }

// openDeepStore opens a durable store in dir over fsys, and stores one
// deep report first when the directory is new.
func openDeepStore(t *testing.T, dir string, fsys vfs.FS) (*ordbms.DB, *xmlstore.Store) {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	st, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumDocuments() == 0 {
		d := deepReport(0)
		if _, err := st.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	return db, st
}

// walkPages lists the pages a walk from document id's root reads, each
// at its first visit, in the order the walk reaches them.
func walkPages(t *testing.T, st *xmlstore.Store, id uint64) []uint32 {
	t.Helper()
	info, err := st.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	var pages []uint32
	var walk func(rid ordbms.RowID, siblings bool)
	walk = func(rid ordbms.RowID, siblings bool) {
		for !rid.IsZero() {
			n, err := st.FetchNode(rid)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[rid.Page] {
				seen[rid.Page] = true
				pages = append(pages, rid.Page)
			}
			walk(n.ChildRowID, true)
			if !siblings {
				return
			}
			rid = n.NextRowID
		}
	}
	walk(info.RootRowID, false)
	return pages
}

// A read that fails while GET /doc streams never passes for a document.
// Before the first buffer's worth has gone out the client gets a 500, as
// when the document was built whole before writing; after it, the
// connection is cut, so the client sees a transport error and not a 200
// whose body parses.  The fault is a real one: the store is reopened so
// no XML page is in memory, and the data file's read of the document's
// first or last page fails.
func TestDocReadFaultMidStream(t *testing.T) {
	dir := t.TempDir()
	db, st := openDeepStore(t, dir, nil)
	docs, err := st.Documents()
	if err != nil {
		t.Fatal(err)
	}
	id := docs[0].DocID
	pages := walkPages(t, st, id)
	if len(pages) < 4 {
		t.Fatalf("the report spans %d pages", len(pages))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		after int // data-file reads that succeed before the fault
	}{
		{"first page", 0},
		{"last page", len(pages) - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ffs := vfs.NewFaultFS(nil)
			db, st := openDeepStore(t, dir, ffs)
			defer func() {
				ffs.ClearFaults()
				db.CloseDiscard()
			}()
			s, err := NewServer(xdb.NewEngine(st), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			ffs.AddRule(vfs.Rule{Op: vfs.OpRead, Path: "data.nmdb", After: c.after})
			resp, err := http.Get(fmt.Sprintf("%s/doc/%d", ts.URL, id))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ffs.Injected() == 0 {
				t.Fatal("no read fault was injected")
			}
			if c.after == 0 {
				if err != nil || resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("fault before the first flush: %d, %v, %.200s", resp.StatusCode, err, body)
				}
				return
			}
			if err == nil {
				t.Fatalf("fault after the first flush: %d with a whole body of %d bytes, want a transport error", resp.StatusCode, len(body))
			}
			if len(body) < docBufBytes {
				t.Errorf("the client read %d bytes before the cut, want at least the first buffer's %d", len(body), docBufBytes)
			}
		})
	}
}

// hookWriter runs first, once, after the first write of a response body
// has gone through.
type hookWriter struct {
	http.ResponseWriter
	once  *sync.Once
	first func()
}

func (h hookWriter) Write(p []byte) (int, error) {
	n, err := h.ResponseWriter.Write(p)
	h.once.Do(h.first)
	return n, err
}

// A DELETE that lands while GET /doc streams the document succeeds, since
// the stream holds no lock while it writes, and the stream is cut: the
// client never gets a document half of which is gone.  The handler is
// held after its first buffer has gone out until the delete is done.
func TestDeleteMidStream(t *testing.T) {
	e := newEngine(t)
	st := e.Store()
	st.EnableNodeCache(1 << 24)
	d := deepReport(0)
	id, err := st.StoreRaw(d.Name, d.Data)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(e, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	flushed, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w = hookWriter{w, &once, func() { close(flushed); <-resume }}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	url := fmt.Sprintf("%s/doc/%d", ts.URL, id)

	type reply struct {
		code int
		n    int
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, len(body), err}
	}()
	<-flushed
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE mid-stream = %d", resp.StatusCode)
	}
	close(resume)
	r := <-replies
	if r.err == nil {
		t.Fatalf("GET across the delete: %d with a whole body of %d bytes, want a transport error", r.code, r.n)
	}
	if code, _ := get(t, url); code != http.StatusNotFound {
		t.Errorf("GET after the delete = %d, want 404", code)
	}
}

// smallBufListener shrinks the send buffer of every connection it
// accepts, so a response stalls in the server's write once the client
// stops reading.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// A client that stops reading a document's stream pins no server work.
// While its handler is blocked writing, an ingest batch and a checkpoint
// complete, so no table lock, page latch or checkpoint barrier is held
// across the write; and cancelling Serve returns once the grace is out,
// with every goroutine the server started gone.
func TestStalledClientPinsNothing(t *testing.T) {
	db, st := openDeepStore(t, t.TempDir(), nil)
	defer db.CloseDiscard()
	docs, err := st.Documents()
	if err != nil {
		t.Fatal(err)
	}
	id := docs[0].DocID
	s, err := NewServer(xdb.NewEngine(st), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	s.ShutdownGrace = 200 * time.Millisecond
	started, done := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h := s.Handler()
	s.mux = http.NewServeMux()
	s.mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		defer close(done)
		h.ServeHTTP(w, r)
	}))

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(ctx, smallBufListener{ln}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := fmt.Fprintf(conn, "GET /doc/%d HTTP/1.1\r\nHost: netmark\r\n\r\n", id); err != nil {
		t.Fatal(err)
	}
	<-started // and the client reads nothing from here on

	writes := make(chan error, 1)
	go func() {
		var batch []xmlstore.BatchDoc
		for _, d := range corpus.New(2).Mixed(20) {
			batch = append(batch, xmlstore.BatchDoc{Name: d.Name, Data: d.Data})
		}
		for _, r := range st.StoreBatch(batch, 2) {
			if r.Err != nil {
				writes <- fmt.Errorf("ingest %s: %w", r.Name, r.Err)
				return
			}
		}
		writes <- db.Checkpoint()
	}()
	select {
	case err := <-writes:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("an ingest batch and a checkpoint did not complete while a client stalled a document's stream")
	}
	select {
	case <-done:
		t.Fatal("the handler finished: the document fit the socket buffers, so nothing stalled")
	default:
	}

	cancel()
	t0 := time.Now()
	select {
	case <-served: // the grace ran out, so Serve reports the forced close
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return with a stalled client")
	}
	if took := time.Since(t0); took > s.ShutdownGrace+2*time.Second {
		t.Errorf("Serve returned %v after its context was cancelled, grace %v", took, s.ShutdownGrace)
	}
	<-done
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d before serving:\n%s", runtime.NumGoroutine(), baseline,
				strings.TrimSpace(string(buf[:runtime.Stack(buf, true)])))
		}
	}
}
