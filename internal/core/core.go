// Package core assembles the NETMARK system of Fig 2/3: the schema-less
// XML store over the ORDBMS, the SGML parser and upmark converters, the
// XDB query engine with XSLT result composition, the databank registry
// for on-the-fly multi-source integration, the drop-folder ingestion
// daemon, and the HTTP/WebDAV access layer.
//
// This is the paper's primary contribution as a single embeddable
// component; the repo-root netmark package re-exports it as the public
// API.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netmark/internal/daemon"
	"netmark/internal/databank"
	"netmark/internal/ordbms"
	"netmark/internal/webdav"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// Config configures a NETMARK instance.
type Config struct {
	// Dir is the storage directory.  Empty runs fully in memory
	// (volatile, unlogged) — the right mode for tests and experiments.
	Dir string
	// PoolPages caps the buffer pool (default 4096 pages).
	PoolPages int
	// DropDir enables the ingestion daemon over the given folder.
	DropDir string
	// PollInterval is the daemon's scan period (default 1s).
	PollInterval time.Duration
	// IngestWorkers sets the batch-ingestion pipeline's parse/upmark
	// fan-out (default GOMAXPROCS).  It applies to IngestBatch and to
	// the drop-folder daemon.
	IngestWorkers int
	// IngestBatchSize is how many documents one WAL group commit covers
	// (default DefaultIngestBatch), in IngestBatch and the drop-folder
	// daemon.  The pipeline does not stop between commits.  It also caps
	// how many documents the pipeline holds at once, and the tables
	// train their symbol tables only at a chunk's end, so larger chunks
	// amortise the fsync further at the cost of more documents held at
	// once and of a later start to coding strings.
	IngestBatchSize int
	// CacheBytes caps the invalidation-aware query result cache: the
	// exact bytes of the keys and rendered response bodies it keeps for
	// the HTTP query path, Engine.ExecuteInto (0 = DefaultCacheBytes,
	// negative = disabled).  The cache keys on the text index's
	// generations of a query's words, its heading's included (on the
	// store's generation for XPath, a prefix heading or a heading with no
	// word), so bodies never outlive the data they were computed from
	// while writes to other documents leave them cached; tune it to the
	// working set of hot queries.
	CacheBytes int64
}

// DefaultCacheBytes is the query result cache cap used when Config
// leaves CacheBytes zero.
const DefaultCacheBytes int64 = 64 << 20

// DefaultNodeCacheBytes is the XML store's decoded-node cache cap.
const DefaultNodeCacheBytes = xmlstore.DefaultNodeCacheBytes

// DefaultIngestBatch is the batch size used when Config leaves
// IngestBatchSize zero.
const DefaultIngestBatch = daemon.DefaultBatchSize

// Netmark is a running instance.
type Netmark struct {
	cfg    Config
	db     *ordbms.DB
	store  *xmlstore.Store
	engine *xdb.Engine
	banks  *databank.Registry
	daemon *daemon.Daemon
	server *webdav.Server

	mu        sync.Mutex
	daemonErr error // abnormal ingestion-daemon exit, nil while healthy
}

// Open creates or reopens an instance.
func Open(cfg Config) (*Netmark, error) {
	db, err := ordbms.Open(ordbms.Options{Dir: cfg.Dir, PoolPages: cfg.PoolPages})
	if err != nil {
		return nil, err
	}
	store, err := xmlstore.Open(db)
	if err != nil {
		// The open is already doomed; fold a close failure into the
		// reported error rather than dropping it.
		return nil, errors.Join(err, db.Close())
	}
	n := &Netmark{
		cfg:    cfg,
		db:     db,
		store:  store,
		engine: xdb.NewEngine(store),
		banks:  databank.NewRegistry(),
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	if cacheBytes > 0 {
		n.engine.EnableCache(cacheBytes)
	}
	if cfg.DropDir != "" {
		d, err := daemon.New(cfg.DropDir, store, cfg.PollInterval)
		if err != nil {
			return nil, errors.Join(err, db.Close())
		}
		d.Workers = cfg.IngestWorkers
		d.BatchSize = cfg.IngestBatchSize
		n.daemon = d
	}
	return n, nil
}

// Close checkpoints and shuts the instance down.
func (n *Netmark) Close() error { return n.db.Close() }

// DB exposes the storage engine (stats, checkpoints).
func (n *Netmark) DB() *ordbms.DB { return n.db }

// Store exposes the XML store.
func (n *Netmark) Store() *xmlstore.Store { return n.store }

// Engine exposes the XDB query engine.
func (n *Netmark) Engine() *xdb.Engine { return n.engine }

// Banks exposes the databank registry.
func (n *Netmark) Banks() *databank.Registry { return n.banks }

// Daemon exposes the ingestion daemon (nil when DropDir unset).
func (n *Netmark) Daemon() *daemon.Daemon { return n.daemon }

// Ingest converts and stores one document.
func (n *Netmark) Ingest(name string, data []byte) (uint64, error) {
	return n.store.StoreRaw(name, data)
}

// IngestFile reads and ingests a file from disk.
func (n *Netmark) IngestFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return n.Ingest(filepath.Base(path), data)
}

// Doc is one raw input document for IngestBatch.
type Doc = xmlstore.BatchDoc

// IngestResult reports one batch document's outcome, in input order.
type IngestResult = xmlstore.BatchResult

// IngestBatch converts and stores many documents through the concurrent
// pipeline: parsing and upmarking fan out across IngestWorkers, a single
// ordered writer feeds the store (document IDs follow input order), and
// each IngestBatchSize chunk is made durable by one WAL group commit
// instead of a commit per document.  The pipeline runs straight across
// the chunks: the commits deflate and fsync behind the writer.
// Per-document failures are isolated in their result slot.
func (n *Netmark) IngestBatch(docs []Doc) []IngestResult {
	batch := n.cfg.IngestBatchSize
	if batch <= 0 {
		batch = DefaultIngestBatch
	}
	out := make([]IngestResult, len(docs))
	n.store.StoreChunks(len(docs), n.cfg.IngestWorkers, batch,
		func(i int) (Doc, error) { return docs[i], nil },
		func(first int, rs []IngestResult) { copy(out[first:], rs) })
	return out
}

// IngestFiles reads and batch-ingests files from disk.  Results match
// the input paths by index; unreadable files fail in place while the
// rest of the batch proceeds.
func (n *Netmark) IngestFiles(paths []string) []IngestResult {
	results := make([]IngestResult, len(paths))
	docs := make([]Doc, 0, len(paths))
	slots := make([]int, 0, len(paths))
	for i, path := range paths {
		name := filepath.Base(path)
		results[i].Name = name
		data, err := os.ReadFile(path)
		if err != nil {
			results[i].Err = err
			continue
		}
		docs = append(docs, Doc{Name: name, Data: data})
		slots = append(slots, i)
	}
	for j, r := range n.IngestBatch(docs) {
		results[slots[j]] = r
	}
	return results
}

// Query parses and executes a URL-form XDB query against the local
// store.  It always evaluates: the result cache holds response bodies
// for the HTTP path only, and no benchmark workload calls Query.
func (n *Netmark) Query(raw string) (*xdb.Result, error) {
	return n.engine.ExecuteString(raw)
}

// Search runs a context/content search directly.
func (n *Netmark) Search(contextHeading, content string) ([]xmlstore.Section, error) {
	return n.store.SearchN(contextHeading, content, 0)
}

// RegisterStylesheet names a stylesheet for the xslt= query parameter.
func (n *Netmark) RegisterStylesheet(name, src string) error {
	return n.engine.RegisterStylesheet(name, src)
}

// CreateDatabank assembles an integration application from its
// declarative spec.  Local/legacy source names resolve to this
// instance's engine; for multi-instance topologies use AddDatabank with
// explicitly constructed sources.
func (n *Netmark) CreateDatabank(specJSON []byte) (*databank.Databank, error) {
	spec, err := databank.ParseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	bank, err := spec.Build(func(string) (*xdb.Engine, error) { return n.engine, nil })
	if err != nil {
		return nil, err
	}
	if err := n.banks.Add(bank); err != nil {
		return nil, err
	}
	return bank, nil
}

// AddDatabank registers a programmatically assembled databank.
func (n *Netmark) AddDatabank(b *databank.Databank) error { return n.banks.Add(b) }

// QueryBank fans a query out across a databank's sources.
func (n *Netmark) QueryBank(ctx context.Context, bank string, q xdb.Query) (*databank.Merged, error) {
	b := n.banks.Get(bank)
	if b == nil {
		return nil, fmt.Errorf("netmark: no databank %q", bank)
	}
	return b.Query(ctx, q)
}

// Serve starts the HTTP/WebDAV server and, when configured, the
// ingestion daemon, until ctx is cancelled.  It returns only once both
// have stopped — no handler running and no daemon batch in flight — so
// the caller may Close the instance right after.
func (n *Netmark) Serve(ctx context.Context, addr string) error {
	srv, err := webdav.NewServer(n.engine, n.banks, n.cfg.DropDir)
	if err != nil {
		return err
	}
	n.server = srv
	if n.daemon == nil {
		return srv.Serve(ctx, addr)
	}
	// The daemon stops when the server does, a listen error included.
	dctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := n.daemon.Run(dctx); err != nil && !errors.Is(err, context.Canceled) {
			n.noteDaemonExit(err)
		}
	}()
	err = srv.Serve(ctx, addr)
	stop()
	<-done
	return err
}

// noteDaemonExit records an abnormal ingestion-daemon exit.  The server
// keeps serving queries — stored data is intact — but ingestion has
// stopped, so the failure is kept visible via DaemonErr rather than
// vanishing with the goroutine.
func (n *Netmark) noteDaemonExit(err error) {
	n.mu.Lock()
	n.daemonErr = err
	n.mu.Unlock()
	log.Printf("netmark: ingestion daemon stopped: %v", err)
}

// DaemonErr reports whether the ingestion daemon has exited abnormally
// since Serve started, and why.  It is nil while the daemon is healthy
// (or was never configured).
func (n *Netmark) DaemonErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.daemonErr
}

// HTTPServer builds the HTTP server for custom hosting (its Handler
// method yields an http.Handler for tests and embedding).
func (n *Netmark) HTTPServer() (*webdav.Server, error) {
	return webdav.NewServer(n.engine, n.banks, n.cfg.DropDir)
}
