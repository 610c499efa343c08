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
//	parse workers  -->  ordered writer  -->  derived indexer
//	(convert, flatten,   (linked insert       (text + context
//	 encode, tokenize)    in input order)      index inserts)
//
// The CPU-bound preparation fans out across a worker pool, a single
// writer feeds the tables in submission order (so document IDs are
// deterministic), the derived-index stage overlaps with the writer's
// next document, and one WAL group-commit makes the whole batch durable
// — one fsync per batch instead of one per document.  A worker encodes
// each record straight from the flattened tree into one buffer per
// document, building no Go row that outlives the encode (see
// preparedDoc.add), and cuts text into terms with a prepWorker it
// keeps for the batch: a word the worker has seen before costs no
// allocation.

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
// documents.  workers sets the preparation fan-out (<= 0 means
// GOMAXPROCS).  Per-document failures are isolated: a document that
// cannot be converted reports its error in its slot while the rest of
// the batch proceeds.
func (s *Store) StoreBatch(docs []BatchDoc, workers int) []BatchResult {
	results := make([]BatchResult, len(docs))
	for i := range docs {
		results[i].Name = docs[i].Name
	}
	if len(docs) == 0 {
		return results
	}
	// Fail the whole batch fast while degraded, before burning parse
	// work the engine will refuse to persist.
	if err := s.db.Writable(); err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}

	// Document IDs are reserved up front so they follow input order no
	// matter which worker finishes first.
	docBase := s.reserveDocIDs(len(docs))
	cfg := sgml.XMLConfig()

	preps := make([]*preparedDoc, len(docs))
	ready := make([]chan struct{}, len(docs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}

	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pw prepWorker // this worker's, for this batch
			for {
				i := int(next.Add(1))
				if i >= len(docs) {
					return
				}
				tree, meta, err := docform.Convert(docs[i].Name, docs[i].Data)
				if err == nil {
					preps[i], err = s.prepareDocument(meta, tree, cfg, docBase+uint64(i), &pw)
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
	idxCh := make(chan *preparedDoc, workers)
	idxDone := make(chan struct{})
	go func() {
		defer close(idxDone)
		for p := range idxCh {
			s.indexPrepared(p)
			s.ckptMu.RUnlock()
		}
	}()

	// Ordered writer: stores each document as soon as its preparation
	// lands, in input order.
	for i := range docs {
		<-ready[i]
		if results[i].Err != nil {
			continue
		}
		s.ckptMu.RLock()
		if err := s.storePrepared(preps[i]); err != nil {
			s.ckptMu.RUnlock()
			results[i].Err = err
			preps[i] = nil
			continue
		}
		results[i].DocID = preps[i].docID
		idxCh <- preps[i]
		preps[i] = nil
	}
	close(idxCh)
	<-idxDone
	wg.Wait()

	// Group commit: one WAL fsync covers every document in the batch.
	// If durability fails, every stored document in the batch is suspect,
	// so the error lands on each success slot.
	if err := s.db.Commit(); err != nil {
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	return results
}
