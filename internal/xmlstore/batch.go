package xmlstore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"netmark/internal/docform"
	"netmark/internal/sgml"
)

// This file implements the concurrent batch-ingestion pipeline.  The
// paper's thesis is that upmark + shred + store is cheap enough to skip
// heavyweight middleware; the pipeline makes it cheap per *batch* too:
//
//	parse workers  -->  ordered writer  -->  derived indexer  -->  committer
//	(convert, flatten,   (linked insert       (text + context       (group commit:
//	 encode, tokenize)    in input order)      index inserts)        fsync, report)
//
// The CPU-bound preparation fans out across a worker pool, a single
// writer feeds the tables in submission order (so document IDs are
// deterministic), the derived-index stage overlaps with the writer's
// next document, and one WAL group commit makes each chunk of documents
// durable — one fsync per chunk instead of one per document.  No stage
// waits for a commit: at a chunk's end the writer hands its end LSN to
// the committer and goes on with the next chunk, and the log deflates,
// writes and fsyncs behind it.  A chunk's results are reported once its
// fsync has landed and its documents are indexed.  No more than a chunk
// of documents is in the pipeline at once, from a worker taking one to
// the indexer finishing it, so no more than a chunk of prepared
// documents is held.  A worker encodes each record
// straight from the flattened tree into one buffer per document,
// building no Go row that outlives the encode (see preparedDoc.add),
// and cuts text into terms with a prepWorker it keeps for the run: a
// word the worker has seen before costs no allocation.
//
// The tables train their symbol tables on the writer, at a chunk's end
// (ordbms.DB.CommitPoint), never on the committer: which records are
// coded then depends only on the chunk boundaries, not on when an fsync
// lands.  A document a worker prepared before its table trained is
// encoded again by the writer (see storePrepared).

// BatchDoc is one raw input document for StoreBatch.
type BatchDoc struct {
	Name string
	Data []byte
}

// BatchResult reports one document's outcome, in input order.
type BatchResult struct {
	Name  string
	DocID uint64
	Err   error
}

// StoreBatch runs the full ingest path — format conversion, upmark,
// shredding, storage, index maintenance, durability — over a batch of
// documents, and makes the whole batch durable with one group commit.
// workers sets the preparation fan-out (<= 0 means GOMAXPROCS).
// Per-document failures are isolated: a document that cannot be
// converted reports its error in its slot while the rest of the batch
// proceeds.
func (s *Store) StoreBatch(docs []BatchDoc, workers int) []BatchResult {
	results := []BatchResult{}
	s.StoreChunks(len(docs), workers, len(docs),
		func(i int) (BatchDoc, error) { return docs[i], nil },
		func(_ int, rs []BatchResult) { results = rs })
	return results
}

// ingestChunk is one group commit's worth of documents, docs [first,
// end), as the writer hands it to the committer: commit it through lsn
// (unless err already failed it), then report it once indexed is
// closed.
type ingestChunk struct {
	first, end int
	lsn        uint64
	err        error
	indexed    chan struct{}
}

// indexItem is what the writer hands the indexer: a stored document, or
// the end of a chunk, whose indexed channel the indexer closes once every
// document before it is indexed.
type indexItem struct {
	p       *preparedDoc
	indexed chan struct{}
}

// StoreChunks runs n documents through the pipeline as one ordered run
// and commits every chunk of them (chunk <= 0 means all n) with one WAL
// group commit, without stopping the pipeline at the chunk boundaries.
// load returns document i; the workers call it, once per document, so a
// caller reading files reads them in parallel, and no more than a chunk
// of documents is read and not yet indexed.  A document load fails keeps load's name and
// error.  done hears each chunk's results in input order: first is the
// index of results[0] in the run.  It is called once per chunk, in
// order, from one goroutine, after the chunk's fsync has landed and its
// documents are indexed, and before StoreChunks returns; the caller may
// keep results.  If the commit fails, every document of the chunk that
// had stored reports the error.  Every goroutine StoreChunks starts has
// ended when it returns.
func (s *Store) StoreChunks(n, workers, chunk int, load func(i int) (BatchDoc, error), done func(first int, results []BatchResult)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, chunk)
	results := make([]BatchResult, n)

	// Document IDs are reserved up front so they follow input order no
	// matter which worker finishes first.
	docBase := s.reserveDocIDs(n)
	cfg := sgml.XMLConfig()

	preps := make([]*preparedDoc, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}

	// A worker takes a token before it takes a document, and the token
	// is handed back once the document is indexed, or has failed: no
	// more than a chunk of documents is between a worker and the end of
	// the pipeline, however the stages' speeds differ.  The tokens of
	// workers that found nothing left to take are never handed back;
	// there are at most workers <= chunk of them.
	window := make(chan struct{}, chunk)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pw prepWorker // this worker's, for this run
			for {
				window <- struct{}{}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				doc, err := load(i)
				results[i].Name = doc.Name
				if err == nil {
					// Fail fast while degraded, before burning parse work
					// the engine will refuse to persist.
					err = s.db.Writable()
				}
				if err == nil {
					var tree *sgml.Node
					var meta docform.Meta
					if tree, meta, err = docform.Convert(doc.Name, doc.Data); err == nil {
						preps[i], err = s.prepareDocument(meta, tree, cfg, docBase+uint64(i), &pw)
					}
				}
				results[i].Err = err
				close(ready[i])
			}
		}()
	}

	// Derived indexing runs one stage downstream of the writer: the
	// indexes have their own locks, so document N's postings land while
	// document N+1's rows are being written.  Each document's checkpoint-
	// barrier hold (acquired by the writer before its rows land) is
	// released here once its index entries land, so a snapshot
	// serialisation never slips into the gap between the two stages.
	idxCh := make(chan indexItem, chunk)
	idxDone := make(chan struct{})
	go func() {
		defer close(idxDone)
		for it := range idxCh {
			if it.p == nil {
				close(it.indexed)
				continue
			}
			s.indexPrepared(it.p)
			s.ckptMu.RUnlock()
			<-window
		}
	}()

	// The committer makes each chunk durable and reports it.  A later
	// chunk's fsync covers an earlier one's, so a committer that falls
	// behind pays one fsync for the chunks waiting; the writer waits for
	// it only when two chunks are queued.
	commitCh := make(chan ingestChunk, 1)
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		for c := range commitCh {
			err := c.err
			if err == nil {
				err = s.db.CommitTo(c.lsn)
			}
			<-c.indexed
			// If durability fails, every stored document in the chunk is
			// suspect, so the error lands on each success slot.
			rs := results[c.first:c.end]
			for i := range rs {
				if rs[i].Err == nil {
					rs[i].Err = err
				}
			}
			done(c.first, rs)
		}
	}()

	// Ordered writer: stores each document as soon as its preparation
	// lands, in input order, and closes a chunk at its last document.
	for first := 0; first < n; first += chunk {
		c := ingestChunk{first: first, end: min(first+chunk, n), indexed: make(chan struct{})}
		for i := c.first; i < c.end; i++ {
			<-ready[i]
			p := preps[i]
			preps[i] = nil
			if results[i].Err != nil {
				<-window
				continue
			}
			s.ckptMu.RLock()
			if err := s.storePrepared(p); err != nil {
				s.ckptMu.RUnlock()
				results[i].Err = err
				<-window
				continue
			}
			results[i].DocID = p.docID
			idxCh <- indexItem{p: p}
		}
		// Where a chunk-at-a-time loop would commit: the tables train
		// here, and the commit point is the log's end.
		c.lsn, c.err = s.db.CommitPoint()
		idxCh <- indexItem{indexed: c.indexed}
		commitCh <- c
	}
	close(idxCh)
	close(commitCh)
	<-idxDone
	<-commitDone
	wg.Wait()
}
