// Package webdav implements NETMARK's network face: the HTTP query
// endpoint ("HTTP provides an extremely simple yet powerful mechanism for
// users and clients to access NETMARK", §2.1.2 — XDB queries are appended
// to a URL) and the WebDAV subset used for drop-folder ingestion
// ("Communication between the user folders and the NETMARK server is done
// using WebDAV [12]").
//
// Endpoints:
//
//	GET  /xdb?context=...&content=...&xslt=...   query the local store
//	GET  /capabilities                           capability discovery
//	GET  /stats                                  WAL/pool/cache counters
//	GET  /bank/{name}?...                        databank fan-out query
//	GET  /docs                                   list stored documents
//	GET  /doc/{id}                               reconstructed document
//	     /dav/...                                WebDAV: OPTIONS, GET,
//	                                             PUT, DELETE, MKCOL,
//	                                             PROPFIND (depth 0/1)
//
// The server is hardened for concurrent production traffic: per-endpoint
// method enforcement, read/write/idle timeouts, streamed (not
// string-buffered) XML responses, and graceful drain on shutdown so
// in-flight queries complete instead of being dropped.
package webdav

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"netmark/internal/databank"
	"netmark/internal/sgml"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// Default timeouts for the hardened http.Server.  Zero-valued Server
// fields fall back to these.
const (
	DefaultReadTimeout   = 30 * time.Second
	DefaultWriteTimeout  = 60 * time.Second
	DefaultIdleTimeout   = 2 * time.Minute
	DefaultShutdownGrace = 15 * time.Second
)

// Server is the NETMARK HTTP server.
type Server struct {
	engine *xdb.Engine
	banks  *databank.Registry
	davDir string
	mux    *http.ServeMux

	// ReadTimeout/WriteTimeout/IdleTimeout harden the listener against
	// slow or stalled clients; ShutdownGrace bounds how long Serve waits
	// for in-flight requests to drain after its context is cancelled.
	// Set before Serve; zero values use the Default* constants.
	ReadTimeout   time.Duration
	WriteTimeout  time.Duration
	IdleTimeout   time.Duration
	ShutdownGrace time.Duration
}

// NewServer builds a server.  davDir is the drop-folder root exposed over
// WebDAV (created if missing); empty disables the DAV tree.
func NewServer(engine *xdb.Engine, banks *databank.Registry, davDir string) (*Server, error) {
	s := &Server{engine: engine, banks: banks, davDir: davDir, mux: http.NewServeMux()}
	if davDir != "" {
		if err := os.MkdirAll(davDir, 0o755); err != nil {
			return nil, fmt.Errorf("webdav: create dav root: %w", err)
		}
	}
	s.mux.HandleFunc("/xdb", s.handleXDB)
	s.mux.HandleFunc("/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/bank/", s.handleBank)
	s.mux.HandleFunc("/docs", s.handleDocs)
	s.mux.HandleFunc("/doc/", s.handleDoc)
	s.mux.HandleFunc("/xslt/", s.handleStylesheet)
	if davDir != "" {
		s.mux.HandleFunc("/dav/", s.handleDAV)
	}
	return s, nil
}

// Handler returns the http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle registers an extension endpoint on the server's mux (embedders
// add health checks, debug hooks, and the like).  Register before Serve.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// allowOnly enforces an endpoint's method set, answering 405 with an
// Allow header otherwise.  HEAD rides along wherever GET is allowed
// (net/http discards the body), so probes and health checks keep
// working.
func allowOnly(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m || (r.Method == http.MethodHead && m == http.MethodGet) {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// writeXML streams a tree to the client instead of materialising the
// serialized document in memory first.
func writeXML(w http.ResponseWriter, n *sgml.Node) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	sgml.WriteIndent(w, n)
}

func (s *Server) handleXDB(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	q, err := xdb.Parse(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// ExecuteInto writes the cached response body (rendered on a miss),
	// or streams the result when the cache is off; execution errors
	// surface before any bytes go out, so a 500 is only valid while the
	// response is still unwritten (an error after the first byte means
	// the client went away mid-stream).
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	cw := &countingWriter{w: w}
	if err := s.engine.ExecuteInto(q, cw); err != nil && cw.n == 0 {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// countingWriter tracks whether any response bytes have gone out.
type countingWriter struct {
	w io.Writer
	n int64
}

// Write sits on every response chunk of a streamed query result; it
// must forward without per-chunk allocation.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// retryAfterSeconds is the Retry-After hint sent with every degraded
// 503: long enough to shed load, short enough that clients probe again
// soon after an operator clears the fault and a checkpoint restores
// write service.
const retryAfterSeconds = "30"

// rejectIfDegraded answers 503 + Retry-After when the store is in
// degraded read-only mode, reporting whether it wrote the response.
// Write endpoints call it first; read endpoints never do — degraded
// mode exists precisely so reads keep flowing.
func (s *Server) rejectIfDegraded(w http.ResponseWriter) bool {
	h := s.engine.Store().Health()
	if !h.Degraded {
		return false
	}
	w.Header().Set("Retry-After", retryAfterSeconds)
	http.Error(w, "store degraded (read-only): "+h.Reason, http.StatusServiceUnavailable)
	return true
}

// storeError maps a store-write error onto the response: degraded-mode
// errors are 503 + Retry-After (the client should retry elsewhere or
// later), vanished documents 404, everything else 500.
func storeError(w http.ResponseWriter, err error) {
	if xmlstore.IsDegraded(err) {
		w.Header().Set("Retry-After", retryAfterSeconds)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), docErrStatus(err))
}

// handleHealthz is the liveness probe: 200 whenever the process is up
// and serving, degraded or not (restarting the process does not fix a
// full disk).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 503 while the store is degraded,
// so load balancers stop routing writes here (reads-only replicas can
// still be addressed directly; /stats carries the detail).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	h := s.engine.Store().Health()
	if h.Degraded {
		w.Header().Set("Retry-After", retryAfterSeconds)
		http.Error(w, "degraded: "+h.Reason, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, databank.Full.String())
}

// Stats is the /stats payload: storage, WAL, buffer-pool, and query-cache
// counters in one snapshot, so operators can watch cache efficiency and
// commit behaviour under live traffic.
type Stats struct {
	Documents  int64  `json:"documents"`
	Nodes      int64  `json:"nodes"`
	Generation uint64 `json:"generation"`

	DocsIngested  uint64 `json:"docs_ingested"`
	NodesInserted uint64 `json:"nodes_inserted"`

	// Health reports degraded read-only mode: while degraded the node
	// keeps serving reads, writes answer 503, and /readyz fails so load
	// balancers route writes elsewhere.
	Health struct {
		Degraded    bool   `json:"degraded"`
		Reason      string `json:"reason,omitempty"`
		Since       string `json:"since,omitempty"`
		WriteErrors uint64 `json:"write_errors"`
	} `json:"health"`

	WAL struct {
		Appends   uint64 `json:"appends"`
		Syncs     uint64 `json:"syncs"`
		Bytes     uint64 `json:"bytes"`      // records appended since open, framing included
		FileBytes uint64 `json:"file_bytes"` // written to the log's files since open, deflated
		Replayed  int    `json:"replayed"`
	} `json:"wal"`

	// Heap is the tables' pages: bytes uncompressed, and file_bytes what
	// the data file's extents as the last checkpoint committed them take,
	// each page compressed.  Over the bytes ingested, file_bytes is the
	// store's space amplification, as wal.file_bytes is the log's.
	// strings_stored_bytes over strings_raw_bytes, both summed at insert
	// since open, is what the tables' symbol tables save on the strings
	// inserted since; it drifts up when later documents differ from those
	// the tables trained on.  symbol_tables counts the tables that have one.
	Heap struct {
		Pages              int    `json:"pages"`
		Bytes              int64  `json:"bytes"`
		FileBytes          int64  `json:"file_bytes"`
		StringsRawBytes    uint64 `json:"strings_raw_bytes"`
		StringsStoredBytes uint64 `json:"strings_stored_bytes"`
		SymbolTables       int    `json:"symbol_tables"`
	} `json:"heap"`

	// Snapshot reports how this process's store came up and how its
	// checkpoint snapshots are faring: loaded=true means reopen skipped
	// rebuilding the derived indexes from every document; fallback names
	// why it could not.
	Snapshot struct {
		Enabled    bool   `json:"enabled"`
		Loaded     bool   `json:"loaded"`
		Fallback   string `json:"fallback,omitempty"`
		Saves      uint64 `json:"saves"`
		SaveErrors uint64 `json:"save_errors"`
	} `json:"snapshot"`

	Pool struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"pool"`

	Cache struct {
		Enabled   bool   `json:"enabled"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Evictions uint64 `json:"evictions"`
		Entries   int    `json:"entries"`
		Bytes     int64  `json:"bytes"`
		Capacity  int64  `json:"capacity"`
	} `json:"cache"`

	NodeCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Entries   int    `json:"entries"`
		Bytes     int64  `json:"bytes"`
		Capacity  int64  `json:"capacity"`
	} `json:"node_cache"`

	// TextIndex reports the inverted index's block-compressed posting
	// storage: bytes is what the id lists cost resident, and
	// compression_ratio is the multiple a flat 8-bytes-per-id layout
	// would cost instead.
	TextIndex struct {
		Terms            int     `json:"terms"`
		Postings         int     `json:"postings"`
		Blocks           int     `json:"blocks"`
		TailIDs          int     `json:"tail_ids"`
		DeadIDs          int     `json:"dead_ids"`
		Bytes            int64   `json:"bytes"`
		CompressionRatio float64 `json:"compression_ratio"`
	} `json:"textindex"`
}

// Snapshot gathers the current counters.
func (s *Server) Snapshot() Stats {
	store := s.engine.Store()
	var st Stats
	st.Documents = store.NumDocuments()
	st.Nodes = store.NumNodes()
	st.Generation = store.Generation()
	st.DocsIngested, st.NodesInserted = store.Stats()
	h := store.Health()
	st.Health.Degraded = h.Degraded
	st.Health.Reason = h.Reason
	if !h.Since.IsZero() {
		st.Health.Since = h.Since.UTC().Format(time.RFC3339)
	}
	st.Health.WriteErrors = h.WriteErrors
	st.WAL.Appends, st.WAL.Syncs, st.WAL.Bytes = store.DB().WALStats()
	st.WAL.FileBytes = store.DB().WALFileBytes()
	st.WAL.Replayed = store.DB().Replayed
	st.Heap.Pages, st.Heap.Bytes = store.DB().HeapStats()
	st.Heap.FileBytes = store.DB().HeapFileBytes()
	st.Heap.StringsRawBytes, st.Heap.StringsStoredBytes, st.Heap.SymbolTables = store.DB().StringStats()
	st.Pool.Hits, st.Pool.Misses, st.Pool.Evictions = store.DB().Pool().Stats()
	ss := store.SnapshotStats()
	st.Snapshot.Enabled = ss.Enabled
	st.Snapshot.Loaded = ss.Loaded
	st.Snapshot.Fallback = ss.Fallback
	st.Snapshot.Saves = ss.Saves
	st.Snapshot.SaveErrors = ss.SaveErrors
	if cs, ok := s.engine.CacheStats(); ok {
		st.Cache.Enabled = true
		st.Cache.Hits = cs.Hits
		st.Cache.Misses = cs.Misses
		st.Cache.Coalesced = cs.Coalesced
		st.Cache.Evictions = cs.Evictions
		st.Cache.Entries = cs.Entries
		st.Cache.Bytes = cs.Bytes
		st.Cache.Capacity = cs.Capacity
	}
	ti := store.TextIndexStats()
	st.TextIndex.Terms = ti.Terms
	st.TextIndex.Postings = ti.Postings
	st.TextIndex.Blocks = ti.Blocks
	st.TextIndex.TailIDs = ti.TailIDs
	st.TextIndex.DeadIDs = ti.DeadIDs
	st.TextIndex.Bytes = ti.BytesResident
	st.TextIndex.CompressionRatio = ti.CompressionRatio
	ns := store.NodeCacheStats()
	st.NodeCache.Hits = ns.Hits
	st.NodeCache.Misses = ns.Misses
	st.NodeCache.Evictions = ns.Evictions
	st.NodeCache.Entries = ns.Entries
	st.NodeCache.Bytes = ns.Bytes
	st.NodeCache.Capacity = ns.Capacity
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleBank(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/bank/")
	if name == "" || s.banks == nil {
		http.Error(w, "no such databank", http.StatusNotFound)
		return
	}
	bank := s.banks.Get(name)
	if bank == nil {
		http.Error(w, "no such databank", http.StatusNotFound)
		return
	}
	q, err := xdb.Parse(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := bank.Query(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeXML(w, MergedXML(m))
}

// MergedXML renders a databank result with per-source attribution.
func MergedXML(m *databank.Merged) *sgml.Node {
	root := sgml.NewElement("results")
	root.SetAttr("databank-elapsed", m.Elapsed.String())
	n := 0
	for _, sr := range m.PerSource {
		if sr.Err != nil {
			el := sgml.NewElement("source-error")
			el.SetAttr("source", sr.Source)
			el.AppendChild(sgml.NewText(sr.Err.Error()))
			root.AppendChild(el)
			continue
		}
		for _, sec := range sr.Sections {
			el := sgml.NewElement("result")
			el.SetAttr("source", sr.Source)
			el.SetAttr("doc", sec.DocName)
			el.SetAttr("doc-title", sec.DocTitle)
			ctx := sgml.NewElement("context")
			ctx.AppendChild(sgml.NewText(sec.Context))
			el.AppendChild(ctx)
			content := sgml.NewElement("content")
			content.AppendChild(sgml.NewText(sec.Content))
			el.AppendChild(content)
			root.AppendChild(el)
			n++
		}
		for _, d := range sr.Docs {
			el := sgml.NewElement("document")
			el.SetAttr("source", sr.Source)
			el.SetAttr("name", d.FileName)
			el.SetAttr("title", d.Title)
			root.AppendChild(el)
			n++
		}
	}
	root.SetAttr("count", strconv.Itoa(n))
	return root
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	docs, err := s.engine.Store().Documents()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	root := sgml.NewElement("documents")
	root.SetAttr("count", strconv.Itoa(len(docs)))
	for _, d := range docs {
		el := sgml.NewElement("document")
		el.SetAttr("id", strconv.FormatUint(d.DocID, 10))
		el.SetAttr("name", d.FileName)
		el.SetAttr("title", d.Title)
		el.SetAttr("format", d.Format)
		el.SetAttr("nodes", strconv.FormatInt(d.NNodes, 10))
		root.AppendChild(el)
	}
	writeXML(w, root)
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/doc/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.Error(w, "bad document id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.writeDocument(w, id)
	case http.MethodDelete:
		if err := s.engine.Store().DeleteDocument(id); err != nil {
			// 404 only when the document is genuinely gone; an I/O error
			// mid-delete leaves it half-removed and must read as a server
			// failure, not a missing resource; degraded mode is 503 +
			// Retry-After.
			storeError(w, err)
			return
		}
		// Make the delete durable before acknowledging it: a crash after
		// the 204 must not resurrect the document on WAL replay.  A
		// failed commit must never turn into a 2xx — the document's
		// removal is not durable and the store has degraded.
		if err := s.engine.Store().DB().Commit(); err != nil {
			storeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// docBufBytes is the buffer a document is written to the client
// through: a document that fits goes out in one write, and an error
// before the buffer first fills still gets a status of its own.
const docBufBytes = 32 << 10

// docBufs keeps the document buffers between requests: most documents
// are a few KB, and a fresh 32 KiB buffer each would cost more than
// writing them.
var docBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, docBufBytes) }}

// writeDocument streams document id to the client straight from the
// store's node images: no tree is built, and the store holds no lock
// while a write to the client blocks.  A read that fails before the
// first buffer's worth has gone out is answered 404 or 500; one that
// fails after it aborts the connection, so the client sees a transport
// error and never a complete-looking document.
func (s *Server) writeDocument(w http.ResponseWriter, id uint64) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	cw := &countingWriter{w: w}
	bw := docBufs.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil) // keep no reference to this response
		docBufs.Put(bw)
	}()
	if err := s.engine.Store().EmitDocument(id, sgml.NewEncoder(bw, true)); err != nil {
		if cw.n == 0 {
			http.Error(w, err.Error(), docErrStatus(err))
			return
		}
		panic(http.ErrAbortHandler)
	}
	bw.Flush() // an error here is the client's: it went away
}

// docErrStatus maps a store error to the right status for /doc/{id}:
// vanished documents are 404, anything else (I/O, corruption) is 500.
func docErrStatus(err error) int {
	if xmlstore.IsGone(err) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleStylesheet lets clients register result-composition stylesheets
// over HTTP (PUT /xslt/{name}), completing the Fig 7 loop: upload a
// sheet, then query with xslt={name}.
func (s *Server) handleStylesheet(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/xslt/")
	if name == "" || strings.ContainsAny(name, "/\\") {
		http.Error(w, "bad stylesheet name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.engine.RegisterStylesheet(name, string(body)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		if s.engine.Stylesheet(name) == nil {
			http.Error(w, "no such stylesheet", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "registered")
	default:
		w.Header().Set("Allow", "GET, PUT, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// davPath maps a /dav/ URL to a filesystem path, rejecting traversal.
func (s *Server) davPath(urlPath string) (string, error) {
	rel := strings.TrimPrefix(urlPath, "/dav/")
	rel = path.Clean("/" + rel)[1:] // normalise, strip leading /
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("webdav: path escapes root")
	}
	return filepath.Join(s.davDir, filepath.FromSlash(rel)), nil
}

func (s *Server) handleDAV(w http.ResponseWriter, r *http.Request) {
	fsPath, err := s.davPath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	switch r.Method {
	case http.MethodOptions:
		w.Header().Set("DAV", "1")
		w.Header().Set("Allow", "OPTIONS, GET, PUT, DELETE, MKCOL, PROPFIND")
		w.WriteHeader(http.StatusOK)
	case http.MethodGet, http.MethodHead:
		// Stream from disk: drop-folder files can be hundreds of MB and
		// must not be buffered whole per request.  ServeContent handles
		// ranges, HEAD, and conditional requests.
		f, err := os.Open(fsPath)
		if err != nil {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil || st.IsDir() {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		// The server-wide WriteTimeout is sized for API responses; a large
		// file on a slow link legitimately outlives it.  Lift the write
		// deadline for this download only.
		http.NewResponseController(w).SetWriteDeadline(time.Time{})
		http.ServeContent(w, r, st.Name(), st.ModTime(), f)
	case http.MethodPut:
		// Accepting a drop-folder upload promises eventual ingestion;
		// while the store cannot persist anything, honest behaviour is
		// to refuse the upload and let the client retry elsewhere.
		if s.rejectIfDegraded(w) {
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := os.MkdirAll(filepath.Dir(fsPath), 0o755); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := os.WriteFile(fsPath, body, 0o644); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if s.rejectIfDegraded(w) {
			return
		}
		if err := os.Remove(fsPath); err != nil {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case "MKCOL":
		if s.rejectIfDegraded(w) {
			return
		}
		if err := os.MkdirAll(fsPath, 0o755); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case "PROPFIND":
		s.handlePropfind(w, r, fsPath)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handlePropfind implements depth 0/1 PROPFIND with the core properties
// (displayname, getcontentlength, resourcetype).
func (s *Server) handlePropfind(w http.ResponseWriter, r *http.Request, fsPath string) {
	st, err := os.Stat(fsPath)
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	depth := r.Header.Get("Depth")
	if depth == "" {
		depth = "1"
	}
	type entry struct {
		href string
		st   os.FileInfo
	}
	entries := []entry{{href: r.URL.Path, st: st}}
	if depth != "0" && st.IsDir() {
		files, err := os.ReadDir(fsPath)
		if err == nil {
			for _, f := range files {
				fi, err := f.Info()
				if err != nil {
					continue
				}
				entries = append(entries, entry{
					href: path.Join(r.URL.Path, f.Name()),
					st:   fi,
				})
			}
		}
	}
	ms := sgml.NewElement("D:multistatus")
	ms.SetAttr("xmlns:D", "DAV:")
	for _, e := range entries {
		resp := sgml.NewElement("D:response")
		href := sgml.NewElement("D:href")
		href.AppendChild(sgml.NewText(e.href))
		resp.AppendChild(href)
		prop := sgml.NewElement("D:prop")
		dn := sgml.NewElement("D:displayname")
		dn.AppendChild(sgml.NewText(e.st.Name()))
		prop.AppendChild(dn)
		rt := sgml.NewElement("D:resourcetype")
		if e.st.IsDir() {
			rt.AppendChild(sgml.NewElement("D:collection"))
		}
		prop.AppendChild(rt)
		if !e.st.IsDir() {
			cl := sgml.NewElement("D:getcontentlength")
			cl.AppendChild(sgml.NewText(strconv.FormatInt(e.st.Size(), 10)))
			prop.AppendChild(cl)
		}
		stat := sgml.NewElement("D:propstat")
		stat.AppendChild(prop)
		status := sgml.NewElement("D:status")
		status.AppendChild(sgml.NewText("HTTP/1.1 200 OK"))
		stat.AppendChild(status)
		resp.AppendChild(stat)
		ms.AppendChild(resp)
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.WriteHeader(207) // Multi-Status
	io.WriteString(w, `<?xml version="1.0" encoding="utf-8"?>`+"\n")
	sgml.WriteIndent(w, ms)
}

func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Serve listens on addr and runs the hardened server until ctx is
// cancelled, then drains gracefully: in-flight requests get up to
// ShutdownGrace to complete before connections are forced closed.
// Returns nil after a clean drain, and never while a handler still runs.
func (s *Server) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Serve over an existing listener (tests and embedders
// that need the bound address before traffic starts).  The listener and
// every connection are closed when ServeListener returns, and no handler
// is still running, so callers may tear the store down.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	// conns counts connections until their serving goroutine is done,
	// handler included: http.Server.Close drops the connections but does
	// not wait for handlers still running on them.  StateNew is reported
	// by the accept loop before srv.Serve returns, so every Add happens
	// before the Wait below.
	var conns sync.WaitGroup
	srv := &http.Server{
		Handler:           s.mux,
		ReadTimeout:       orDefault(s.ReadTimeout, DefaultReadTimeout),
		ReadHeaderTimeout: orDefault(s.ReadTimeout, DefaultReadTimeout),
		WriteTimeout:      orDefault(s.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       orDefault(s.IdleTimeout, DefaultIdleTimeout),
		ConnState: func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew:
				conns.Add(1)
			case http.StateClosed, http.StateHijacked:
				conns.Done()
			}
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
		grace := orDefault(s.ShutdownGrace, DefaultShutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err = srv.Shutdown(sctx); err != nil {
			// Grace expired with handlers still running: force-close
			// their connections, then wait for the handlers below.
			srv.Close()
		}
		<-errc // reap the serve goroutine (returns http.ErrServerClosed)
	case err = <-errc:
		srv.Close()
	}
	conns.Wait()
	return err
}
