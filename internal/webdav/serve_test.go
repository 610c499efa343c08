package webdav

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netmark/internal/ordbms"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// TestGracefulDrain verifies that cancelling Serve's context lets an
// in-flight request finish (srv.Shutdown) instead of killing its
// connection (the old srv.Close behaviour).
func TestGracefulDrain(t *testing.T) {
	e := newEngine(t)
	s, err := NewServer(e, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	s.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "drained")
	}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeListener(ctx, ln) }()

	type reply struct {
		code int
		body string
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{code: resp.StatusCode, body: string(b), err: err}
	}()

	<-started // request is in the handler
	cancel()  // shut the server down while the request is in flight

	// The server must not return until the request drains.
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", r.err)
	}
	if r.code != 200 || r.body != "drained" {
		t.Fatalf("in-flight request got %d %q", r.code, r.body)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve = %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// New connections are refused after shutdown.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestForcedCloseWaitsForHandlers: when the grace expires with a handler
// still running, ServeListener force-closes its connection but returns
// only once the handler has, so the caller may tear the store down.
func TestForcedCloseWaitsForHandlers(t *testing.T) {
	e := newEngine(t)
	s, err := NewServer(e, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	s.ShutdownGrace = 10 * time.Millisecond
	started := make(chan struct{})
	release := make(chan struct{})
	s.Handle("/stuck", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeListener(ctx, ln) }()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String() + "/stuck"); err == nil {
			resp.Body.Close()
		}
	}()

	<-started
	cancel()
	select {
	case err := <-serveDone:
		close(release)
		t.Fatalf("ServeListener returned %v with a handler still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-serveDone:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ServeListener = %v, want the expired grace", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not return once the handler did")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, e := testServer(t)
	e.EnableCache(1 << 20)

	// One miss then one hit.
	for i := 0; i < 2; i++ {
		if code, body := get(t, ts.URL+"/xdb?context=Budget"); code != 200 {
			t.Fatalf("query %d: %d %s", i, code, body)
		}
	}
	code, body := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	if st.Documents != 1 || st.Nodes == 0 {
		t.Fatalf("store counters: %+v", st)
	}
	if !st.Cache.Enabled || st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.Pool.Hits == 0 {
		t.Fatalf("pool counters missing: %+v", st.Pool)
	}
	if st.Heap.Pages < 2 || st.Heap.Bytes != int64(st.Heap.Pages)*8192 { // at least a page each for XML and DOC
		t.Fatalf("heap counters: %+v", st.Heap)
	}
	// One small document trains no table: its strings are stored as they are.
	if st.Heap.StringsRawBytes == 0 || st.Heap.StringsStoredBytes != st.Heap.StringsRawBytes || st.Heap.SymbolTables != 0 {
		t.Fatalf("string counters before training: %+v", st.Heap)
	}
	if st.Generation == 0 {
		t.Fatalf("generation not bumped by ingest: %+v", st)
	}
	// The ingested document must show up in the text-index storage
	// counters, and the derived sizes must be self-consistent.
	ti := st.TextIndex
	if ti.Terms == 0 || ti.Postings == 0 || ti.Bytes == 0 {
		t.Fatalf("textindex counters empty: %+v", ti)
	}
	if ti.CompressionRatio <= 0 {
		t.Fatalf("textindex compression ratio missing: %+v", ti)
	}
}

// Once the tables have trained their symbol tables, /stats shows the
// strings stored since in fewer bytes than they hold.
func TestStatsShowStringCoding(t *testing.T) {
	_, ts, e := testServer(t)
	var docs []xmlstore.BatchDoc
	for i := 0; i < 240; i++ { // 120 of them pass the 16 KiB sample
		docs = append(docs, xmlstore.BatchDoc{Name: fmt.Sprintf("d%d.html", i), Data: []byte(fmt.Sprintf(
			"<html><head><title>Report %d</title></head><body><h1>Budget</h1><p>The cryogenic turbine budget request for year %d was reviewed.</p>"+
				"<h2>Risk</h2><p>Propulsion systems risk assessment with corrective action %d.</p></body></html>", i, i, i))})
	}
	for _, half := range [][]xmlstore.BatchDoc{docs[:120], docs[120:]} { // the first batch's commit trains XML
		for _, r := range e.Store().StoreBatch(half, 2) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	_, body := get(t, ts.URL+"/stats")
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Heap.SymbolTables == 0 || st.Heap.StringsStoredBytes >= st.Heap.StringsRawBytes {
		t.Fatalf("string counters after training: %+v", st.Heap)
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts, _ := testServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/docs"},
		{http.MethodDelete, "/docs"},
		{http.MethodPost, "/capabilities"},
		{http.MethodPut, "/stats"},
		{http.MethodPost, "/xdb?context=Budget"},
		{http.MethodPost, "/bank/app?context=Budget"},
		{http.MethodPost, "/doc/1"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: no Allow header", c.method, c.path)
		}
	}
}

// TestDeleteDurableAcrossCrash: DELETE /doc/{id} answers 204 only after
// the delete is WAL-synced, so a crash (abandoning the DB without Close)
// must not resurrect the document on replay.
func TestDeleteDurableAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	// Persist the catalog (table + index definitions) like a long-lived
	// server would have; the WAL carries everything after this point.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res := store.StoreBatch([]xmlstore.BatchDoc{{
		Name: "r.html",
		Data: []byte(`<html><head><title>R</title></head><body><h1>Budget</h1><p>$9M</p></body></html>`),
	}}, 1)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	docID := res[0].DocID

	s, err := NewServer(xdb.NewEngine(store), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/doc/%d", docID), nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 204 {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body)
	}
	// Crash: abandon db without Close — only WAL-synced state survives.

	db2, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	store2, err := xmlstore.Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	if n := store2.NumDocuments(); n != 0 {
		t.Fatalf("deleted document resurrected after crash: %d documents", n)
	}
	if secs, err := store2.ContextSearchN("Budget", 0); err != nil || len(secs) != 0 {
		t.Fatalf("search after replay: %d sections, err=%v", len(secs), err)
	}
}

// TestDAVGetRejectsDirectory: the streamed GET path must not serve
// directories.
func TestDAVGetRejectsDirectory(t *testing.T) {
	_, ts, _ := testServer(t)
	if code, _ := davReq(t, "MKCOL", ts.URL+"/dav/adir", "", nil); code != 201 {
		t.Fatalf("MKCOL = %d", code)
	}
	code, _ := davReq(t, http.MethodGet, ts.URL+"/dav/adir", "", nil)
	if code != 404 {
		t.Fatalf("GET on directory = %d, want 404", code)
	}
}

// TestConcurrentServing hammers the handler from many goroutines with
// mixed reads, stylesheet registrations, ingests, and deletes — the
// -race umbrella for the serving layer.
func TestConcurrentServing(t *testing.T) {
	_, ts, e := testServer(t)
	e.EnableCache(1 << 20)

	const sheet = `<xsl:stylesheet><xsl:template match="/">
<summary><xsl:for-each select="//result"><s><xsl:value-of select="content"/></s></xsl:for-each></summary>
</xsl:template></xsl:stylesheet>`

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	// do issues a request without t.Fatal (unlike davReq): these run on
	// load goroutines, where FailNow is off-limits.
	do := func(method, url, body string) (int, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// Readers: hot query, stats, docs listing.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				for _, p := range []string{"/xdb?context=Budget", "/stats", "/docs", "/capabilities"} {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						fail("GET %s: %v", p, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						fail("GET %s = %d", p, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	// Writers: stylesheet churn + ingest/delete churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 30; j++ {
			code, err := do(http.MethodPut, ts.URL+"/xslt/churn", sheet)
			if err != nil || code != 201 {
				fail("PUT /xslt/churn = %d, %v", code, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 15; j++ {
			name := fmt.Sprintf("extra%d.html", j)
			id, err := e.Store().StoreRaw(name,
				[]byte(`<html><head><title>X</title></head><body><h1>Budget</h1><p>more money</p></body></html>`))
			if err != nil {
				fail("ingest: %v", err)
				return
			}
			code, err := do(http.MethodDelete, fmt.Sprintf("%s/doc/%d", ts.URL, id), "")
			if err != nil || code != 204 {
				fail("DELETE doc %d = %d, %v", id, code, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The base document must have survived the churn.
	code, body := get(t, ts.URL+"/xdb?context=Budget")
	if code != 200 || !strings.Contains(body, "Costs $9M") {
		t.Fatalf("final query: %d %s", code, body)
	}
}

// TestHeadAllowedOnReadEndpoints: HEAD must ride along with GET (health
// checks and probes), with the body discarded by net/http.
func TestHeadAllowedOnReadEndpoints(t *testing.T) {
	_, ts, _ := testServer(t)
	for _, p := range []string{"/xdb?context=Budget", "/capabilities", "/stats", "/docs"} {
		resp, err := http.Head(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("HEAD %s = %d, want 200", p, resp.StatusCode)
		}
	}
}
