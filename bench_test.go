// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablations described in README.md.  The
// human-readable reports behind the same experiments are produced by
// cmd/nmbench; these benches measure the kernels under the Go benchmark
// framework so regressions are visible in -benchmem terms.
package netmark_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"netmark"
	"netmark/internal/core"
	"netmark/internal/corpus"
	"netmark/internal/costmodel"
	"netmark/internal/databank"
	"netmark/internal/docform"
	"netmark/internal/experiments"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/shred"
	"netmark/internal/webdav"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// loadedStore builds a volatile store, its files held in memory,
// pre-loaded with n proposals.  Its node cache is on at core's default
// size, as netmarkd's is, so the benchmarks built on it measure the read
// path the product serves.
func loadedStore(b *testing.B, n int, seed int64) *xmlstore.Store {
	b.Helper()
	s, err := experiments.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	s.EnableNodeCache(core.DefaultNodeCacheBytes)
	gen := corpus.New(seed)
	if err := experiments.LoadCorpus(s, gen.Proposals(n)); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1AppAssembly measures what Table 1 claims is cheap: the
// complete assembly of an integration application — databank declaration
// plus first integrated query — for the Anomaly Tracking shape (one full
// source, one content-only legacy source).
func BenchmarkTable1AppAssembly(b *testing.B) {
	sa, err := experiments.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	sb, err := experiments.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	gen := corpus.New(41)
	if err := experiments.LoadCorpus(sa, gen.Anomalies(50)); err != nil {
		b.Fatal(err)
	}
	if err := experiments.LoadCorpus(sb, gen.Anomalies(50)); err != nil {
		b.Fatal(err)
	}
	ea, eb := xdb.NewEngine(sa), xdb.NewEngine(sb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := databank.New("anomaly")
		bank.AddSource(databank.NewLocalSource("tracker-a", ea))
		bank.AddSource(databank.NewLegacySource("lessons", databank.ContentOnly, eb))
		m, err := bank.Query(context.Background(), xdb.Query{Context: "System", Content: "Engine"})
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Sections()) == 0 {
			b.Fatal("assembled app returned nothing")
		}
	}
}

// BenchmarkFig1CostScaling measures the cost-model assembly itself:
// building the mediator (schemas+views+mappings) versus the databank
// specs for a 64-source, 4-application deployment.
func BenchmarkFig1CostScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := costmodel.Measure(64, 4)
		if err != nil {
			b.Fatal(err)
		}
		if p.MediatorCost <= p.NetmarkCost {
			b.Fatal("cost ordering violated")
		}
	}
}

// BenchmarkFig6ContextSearch measures the Fig 6 operation — one context
// query returning the matching section of every document — across
// collection sizes.
func BenchmarkFig6ContextSearch(b *testing.B) {
	for _, docs := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			s := loadedStore(b, docs, int64(docs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				secs, err := s.ContextSearchN("Budget", 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(secs) != docs {
					b.Fatalf("sections = %d, want %d", len(secs), docs)
				}
			}
		})
	}
}

// BenchmarkFig6ContentSearch measures the content half of the kernel
// (text-index probe + traversal to governing contexts).
func BenchmarkFig6ContentSearch(b *testing.B) {
	s := loadedStore(b, 500, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ContentSearchN("cryogenic", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7QueryTransform measures the full Fig 7 pipeline: XDB
// query plus XSLT composition of the result document, against the plain
// query for comparison.
func BenchmarkFig7QueryTransform(b *testing.B) {
	s, err := experiments.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	gen := corpus.New(7)
	if err := experiments.LoadCorpus(s, gen.TaskPlans(300)); err != nil {
		b.Fatal(err)
	}
	eng := xdb.NewEngine(s)
	if err := eng.RegisterStylesheet("ibpd", experiments.IBPDStylesheet); err != nil {
		b.Fatal(err)
	}
	b.Run("search-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ExecuteString("context=Budget"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("search+xslt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.ExecuteString("context=Budget&xslt=ibpd")
			if err != nil {
				b.Fatal(err)
			}
			if res.Transformed == nil {
				b.Fatal("no composed document")
			}
		}
	})
}

// BenchmarkFig8MultiSourceFanout measures the thin router's own overhead
// across source counts, parallel versus sequential, with all sources
// local (no network).  The Fig 8 wall-clock shape — near-flat parallel
// latency versus linear sequential growth — appears once sources carry
// realistic round-trip latency; `nmbench -exp fig8` reproduces that with
// a simulated 2 ms RTT per source (see internal/experiments).
func BenchmarkFig8MultiSourceFanout(b *testing.B) {
	build := func(n int) *databank.Databank {
		bank := databank.New("fig8")
		for i := 0; i < n; i++ {
			s, err := experiments.NewStore()
			if err != nil {
				b.Fatal(err)
			}
			gen := corpus.New(int64(100*n + i))
			if err := experiments.LoadCorpus(s, gen.Anomalies(20)); err != nil {
				b.Fatal(err)
			}
			eng := xdb.NewEngine(s)
			name := fmt.Sprintf("src%02d", i)
			if i%3 == 2 {
				bank.AddSource(databank.NewLegacySource(name, databank.ContentOnly, eng))
			} else {
				bank.AddSource(databank.NewLocalSource(name, eng))
			}
		}
		return bank
	}
	q := xdb.Query{Context: "System", Content: "Engine"}
	for _, n := range []int{2, 8, 32} {
		bank := build(n)
		b.Run(fmt.Sprintf("parallel/sources=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bank.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sequential/sources=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bank.QuerySequential(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAugmentation isolates §2.1.5 query augmentation: decompose,
// pushdown to a content-only source, residual filter.
func BenchmarkAugmentation(b *testing.B) {
	s, err := experiments.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	gen := corpus.New(15)
	if err := experiments.LoadCorpus(s, gen.LessonsLearned(100)); err != nil {
		b.Fatal(err)
	}
	eng := xdb.NewEngine(s)
	bank := databank.New("aug")
	bank.AddSource(databank.NewLegacySource("lessons", databank.ContentOnly, eng))
	q := xdb.Query{Context: "Title", Content: "Engine"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bank.Query(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Errs()) != 0 {
			b.Fatalf("errors: %v", m.Errs())
		}
	}
}

// BenchmarkAblationRowidTraversal compares one parent-chain walk via
// physical RowID links against the same walk via key B-tree probes.
func BenchmarkAblationRowidTraversal(b *testing.B) {
	s := loadedStore(b, 200, 17)
	secs, err := s.ContextSearchN("Budget", 0)
	if err != nil || len(secs) == 0 {
		b.Fatalf("setup: %v", err)
	}
	start, err := s.FetchNode(secs[0].ContextRID)
	if err != nil {
		b.Fatal(err)
	}
	byRowID, byKey, err := experiments.ParentClimbs(s)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		climb func(*xmlstore.Node) (int, error)
	}{{"rowid-links", byRowID}, {"btree-probe", byKey}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arm.climb(start); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShredVsUniversal compares document ingest into the
// universal two-table store against schema-aware shredding.
func BenchmarkAblationShredVsUniversal(b *testing.B) {
	gen := corpus.New(23)
	docs := gen.Mixed(50)
	b.Run("universal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := experiments.NewStore()
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.LoadCorpus(s, docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shredded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := ordbms.Open(ordbms.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sh, err := shred.Open(db)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				tree, _, err := docform.Convert(d.Name, d.Data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sh.StoreDocument(d.Name, tree); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationTextIndexVsScan compares index-first content search
// (§2.1.4) against a full node scan that counts the distinct sections
// holding the term, walking each matching node to its heading.
func BenchmarkAblationTextIndexVsScan(b *testing.B) {
	s := loadedStore(b, 300, 29)
	b.Run("text-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ContentSearchN("cryogenic", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.ScanSections(s, "cryogenic"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestByFormat measures the upmark+store path per source
// format (documents/op).
func BenchmarkIngestByFormat(b *testing.B) {
	gen := corpus.New(31)
	formats := map[string]corpus.Document{
		"html": gen.Proposal(1), // html variant
		"rtf":  gen.Proposal(0), // rtf variant
		"text": gen.Proposal(2), // text variant
		"csv":  gen.BudgetSpreadsheet(50),
	}
	for name, doc := range formats {
		b.Run(name, func(b *testing.B) {
			nm, err := netmark.Open(netmark.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer nm.Close()
			b.SetBytes(int64(len(doc.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nm.Ingest(fmt.Sprintf("%d-%s", i, doc.Name), doc.Data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestParallel measures the concurrent batch-ingestion
// pipeline against the sequential one-document-at-a-time path over the
// same mixed corpus.  "sequential" is the old write path (Ingest per
// document); the parallel variants fan parse/upmark/shred across
// workers, feed a single ordered writer, and overlap derived indexing —
// on a multi-core runner the worker sweep shows the pipeline's
// throughput multiple.  Those cases run on a volatile store, logged as
// any is, its files held in memory; "durable" runs the pipeline on a
// directory and reports what storage cost: WAL
// bytes — the records (wal-B/user-B) and what the log's file took of
// them, deflated (walfile-B/user-B) — and heap bytes (whole pages) per
// ingested byte, WAL records and
// stored XML rows per document, read before the close (its checkpoint
// appends nothing, but truncates the log), and the bytes the batch
// ingest allocates per ingested byte and the allocations it makes per
// stored node.  Its 200 documents are one batch and one commit, so no
// table has trained a symbol table before every row is stored: the byte
// figures are those of uncoded strings.  "deep" is "durable" over eight
// deep reports of some 2 500 nodes each, where the per-node costs of
// preparing a document show and those of converting it do not.
// "chunked" is the drag-and-drop path as IngestBatch and the daemon run
// it: 640 documents at the default batch size, ten group commits the
// pipeline does not stop for, so the tables train after the first and
// the heap figure is that of coded strings.  It reports no
// walfile-B/user-B: where its frames are cut follows the scheduler.  It
// reports datafile-B/heap-B, the data file's bytes after the close over
// the heap's whole pages: what compressing pages at rest saves, holes
// included.
func BenchmarkIngestParallel(b *testing.B) {
	gen := corpus.New(47)
	docs := gen.Mixed(200)
	batch, total := ingestBatch(docs)
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nm, err := netmark.Open(netmark.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				if _, err := nm.Ingest(d.Name, d.Data); err != nil {
					b.Fatal(err)
				}
			}
			nm.Close()
		}
	})
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("parallel/workers=%d", w), func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nm, err := netmark.Open(netmark.Config{
					IngestWorkers:   w,
					IngestBatchSize: len(batch),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range nm.IngestBatch(batch) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				nm.Close()
			}
		})
	}
	b.Run("durable", func(b *testing.B) { benchDurableIngest(b, batch, total) })
	deep, deepTotal := ingestBatch(gen.DeepReports(8, 6, 24, 16))
	b.Run("deep", func(b *testing.B) { benchDurableIngest(b, deep, deepTotal) })
	chunked, chunkedTotal := ingestBatch(gen.Mixed(640))
	b.Run("chunked", func(b *testing.B) { benchChunkedIngest(b, chunked, chunkedTotal) })
}

// benchChunkedIngest ingests batch, of total bytes, into a fresh
// directory store per iteration, at the default batch size on two
// workers, and reports what the heap cost (see BenchmarkIngestParallel).
func benchChunkedIngest(b *testing.B, batch []netmark.Doc, total int64) {
	b.SetBytes(total)
	b.ReportAllocs()
	var heapBytes, fileBytes, rows int64
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		nm, err := netmark.Open(netmark.Config{Dir: dir, IngestWorkers: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range nm.IngestBatch(batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		rows += nm.Store().NumNodes()
		_, h := nm.DB().HeapStats()
		heapBytes += h
		if err := nm.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "data.nmdb"))
		if err != nil {
			b.Fatal(err)
		}
		fileBytes += st.Size()
	}
	b.ReportMetric(float64(heapBytes)/float64(total*int64(b.N)), "heap-B/user-B")
	b.ReportMetric(float64(fileBytes)/float64(heapBytes), "datafile-B/heap-B")
	b.ReportMetric(float64(rows)/float64(len(batch)*b.N), "rows/doc")
}

// ingestBatch is docs as one IngestBatch, and their bytes.
func ingestBatch(docs []corpus.Document) (batch []netmark.Doc, total int64) {
	batch = make([]netmark.Doc, len(docs))
	for i, d := range docs {
		batch[i] = netmark.Doc{Name: d.Name, Data: d.Data}
		total += int64(len(d.Data))
	}
	return batch, total
}

// benchDurableIngest ingests batch, of total bytes, into a fresh
// directory store per iteration, as one batch on two workers, and
// reports what it cost (see BenchmarkIngestParallel).
func benchDurableIngest(b *testing.B, batch []netmark.Doc, total int64) {
	b.SetBytes(total)
	b.ReportAllocs()
	var appends, walBytes, walFileBytes, allocBytes, allocs uint64
	var heapBytes, rows int64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		nm, err := netmark.Open(netmark.Config{
			Dir:             b.TempDir(),
			IngestWorkers:   2,
			IngestBatchSize: len(batch),
		})
		if err != nil {
			b.Fatal(err)
		}
		a0, _, w0 := nm.DB().WALStats() // the open logged the schema
		f0 := nm.DB().WALFileBytes()
		runtime.ReadMemStats(&m0)
		for _, r := range nm.IngestBatch(batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
		rows += nm.Store().NumNodes()
		a1, _, w1 := nm.DB().WALStats()
		appends += a1 - a0
		walBytes += w1 - w0
		walFileBytes += nm.DB().WALFileBytes() - f0
		_, h := nm.DB().HeapStats()
		heapBytes += h
		if err := nm.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(walBytes)/float64(total*int64(b.N)), "wal-B/user-B")
	b.ReportMetric(float64(walFileBytes)/float64(total*int64(b.N)), "walfile-B/user-B")
	b.ReportMetric(float64(heapBytes)/float64(total*int64(b.N)), "heap-B/user-B")
	b.ReportMetric(float64(appends)/float64(len(batch)*b.N), "wal-appends/doc")
	b.ReportMetric(float64(rows)/float64(len(batch)*b.N), "rows/doc")
	b.ReportMetric(float64(allocBytes)/float64(total*int64(b.N)), "alloc-B/user-B")
	b.ReportMetric(float64(allocs)/float64(rows), "allocs/node")
}

// BenchmarkColdContentSearch measures the uncached §2.1.4 kernel — text
// index probe, whose hits are sections, and section materialisation —
// over a deep-document corpus (long sibling runs, nested blocks) where
// pointer-chasing is at its worst.  No query result cache is involved:
// every iteration executes the full kernel.  Its one arm, optimized,
// reads through the decoded-node cache, as every store does
// ("optimized-serial" in the recordings before BENCH_PR17.json).  The
// recordings through BENCH_PR46.json also have a baseline arm, with no
// node cache and every hop decoding its row; that configuration no
// longer exists.
func BenchmarkColdContentSearch(b *testing.B) {
	b.Run("optimized", func(b *testing.B) {
		s, err := experiments.NewStore()
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range corpus.New(61).DeepReports(20, 6, 24, 16) {
			if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
				b.Fatal(err)
			}
		}
		s.EnableNodeCache(64 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			secs, err := s.ContentSearchN("cryogenic", 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(secs) == 0 {
				b.Fatal("no sections")
			}
		}
		b.StopTimer()
		// Record the block-compressed text index's resident footprint and
		// its multiple over the flat 8-bytes-per-id layout it replaced, so
		// BENCH_PR*.json tracks the memory side of this kernel too.
		st := s.TextIndexStats()
		b.ReportMetric(float64(st.BytesResident), "index-bytes")
		b.ReportMetric(st.CompressionRatio, "index-compression-x")
	})
}

// BenchmarkMixedWriteHeavy measures the serving stack under write-heavy
// mixed traffic: half of all operations are writes (1/4 ingests plus
// 1/4 deletes of churn documents), the other half are queries over a
// stable set of documents whose headings and terms the churn never
// touches.  Each delete takes the churn document the previous ingest
// added, and an ingest that finds one still there deletes it, so the
// store keeps a fixed size and allocs/op do not follow b.N.  With PR 2's single global
// cache generation every write invalidated everything and each read ran
// the kernel cold; with caching keyed on the generations of the posting
// lists each query reads, the untouched-document queries keep being
// served from cache — the reported hit metric is the proof (hits ≈
// reads, misses ≈ distinct queries).
func BenchmarkMixedWriteHeavy(b *testing.B) {
	store := loadedStore(b, 200, 43)
	e := xdb.NewEngine(store)
	e.EnableCache(64 << 20)
	srv, err := webdav.NewServer(e, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	// Churn documents share no headings/terms with the proposal corpus
	// queries below.
	churn := `<report><heading>Warehouse Logistics</heading><para>inventory relocation memo</para></report>`
	queries := []string{
		"/xdb?context=Budget",
		"/xdb?context=Schedule",
		"/xdb?content=cryogenic",
		"/xdb?context=Budget&content=request&limit=20",
	}
	var seq atomic.Int64
	var lastDoc atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			switch {
			case n%4 == 0: // write: ingest a churn doc
				id, err := store.StoreRaw(fmt.Sprintf("churn-%d.xml", n), []byte(churn))
				if err != nil {
					b.Error(err)
					return
				}
				if prev := lastDoc.Swap(id); prev != 0 {
					if err := store.DeleteDocument(prev); err != nil && !xmlstore.IsGone(err) {
						b.Error(err)
						return
					}
				}
			case n%4 == 2: // write: delete the churn doc the last ingest added
				if id := lastDoc.Swap(0); id != 0 {
					if err := store.DeleteDocument(id); err != nil && !xmlstore.IsGone(err) {
						b.Error(err)
						return
					}
				}
			default: // read over untouched documents
				req := httptest.NewRequest(http.MethodGet, queries[n/2%int64(len(queries))], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Errorf("GET = %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}
	})
	b.StopTimer()
	if st, ok := e.CacheStats(); ok {
		b.ReportMetric(float64(st.Hits), "hits")
		b.ReportMetric(float64(st.Misses), "misses")
	}
}

// BenchmarkCombinedQueryPlans measures the heading-plus-terms query, the
// paper's Context=Technology Gap & Content=Shrinking shape: one
// intersection of the heading's posting list with the term's.
func BenchmarkCombinedQueryPlans(b *testing.B) {
	s := loadedStore(b, 400, 37)
	b.Run("intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.SearchN("Budget", "request", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeParallel measures the concurrent read-serving subsystem:
// parallel HTTP queries through the hardened handler, with and without
// the invalidation-aware result cache, plus a mixed workload where hot
// repeats, cold one-off queries, and invalidating writes interleave —
// the traffic shape of the ROADMAP's heavy-read north star.  The hot
// cached/uncached pair is the headline: repeated queries served from the
// cache versus re-executed every time.
func BenchmarkServeParallel(b *testing.B) {
	const docs = 300
	newServer := func(b *testing.B, cacheBytes int64) (http.Handler, *xdb.Engine) {
		b.Helper()
		store := loadedStore(b, docs, 42)
		e := xdb.NewEngine(store)
		if cacheBytes > 0 {
			e.EnableCache(cacheBytes)
		}
		srv, err := webdav.NewServer(e, nil, "")
		if err != nil {
			b.Fatal(err)
		}
		return srv.Handler(), e
	}
	// hit runs inside RunParallel workers: Errorf (goroutine-safe), not
	// Fatalf (FailNow must run on the benchmark goroutine).
	hit := func(b *testing.B, h http.Handler, path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}

	const hotQuery = "/xdb?context=Budget"
	for _, cfg := range []struct {
		name       string
		cacheBytes int64
	}{
		{"hot/uncached", 0},
		{"hot/cached", 64 << 20},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			h, _ := newServer(b, cfg.cacheBytes)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					hit(b, h, hotQuery)
				}
			})
		})
	}

	// Mixed traffic: mostly the hot query, a slice of distinct cold
	// queries, and occasional writes that invalidate it.  Each write
	// deletes the document the previous write added, so the store keeps
	// a fixed size and allocs/op do not follow b.N.
	b.Run("mixed/cached", func(b *testing.B) {
		h, e := newServer(b, 64<<20)
		var seq atomic.Int64
		var lastDoc atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := seq.Add(1)
				switch {
				case n%100 == 0: // invalidating write
					name := fmt.Sprintf("inv%d.html", n)
					doc := `<html><head><title>I</title></head><body><h1>Budget</h1><p>invalidator</p></body></html>`
					id, err := e.Store().StoreRaw(name, []byte(doc))
					if err != nil {
						b.Error(err)
						return
					}
					if prev := lastDoc.Swap(id); prev != 0 {
						if err := e.Store().DeleteDocument(prev); err != nil {
							b.Error(err)
							return
						}
					}
				case n%10 == 0: // cold query, distinct key
					hit(b, h, fmt.Sprintf("/xdb?context=Budget&content=funding&limit=%d", 200+n%97))
				default:
					hit(b, h, hotQuery)
				}
			}
		})
		b.StopTimer()
		// The same counters are what GET /stats surfaces in production.
		if st, ok := e.CacheStats(); ok {
			b.ReportMetric(float64(st.Hits), "hits")
			b.ReportMetric(float64(st.Misses), "misses")
			b.ReportMetric(float64(st.Evictions), "evictions")
		}
	})
}

// BenchmarkReopen measures restarting the middle tier over an existing
// persistent store — the paper keeps everything derivable in the ORDBMS,
// and a reopen that rebuilt the text index and the heading index from
// every stored document would make restart O(corpus).
//
//	snapshot = load the text index and heading index from
//	           xmlstore.nmsnap (stamp-validated against catalog + WAL,
//	           then inflated); snap-B/raw-B is its file's bytes over
//	           the payload's
//	scan     = the ablation: rebuild them a document at a time, each
//	           DOC row's document walked from its root a decoded page at
//	           a time and indexed by ingest's posting code
//
// Both arms take each heap's row count and free-space map from the
// catalog and rebuild DOC's secondary indexes by scanning DOC.  Snapshot
// reopen should stay ≥10x faster than scan reopen on the DeepReports
// corpus, with the gap widening as the corpus grows (snapshot cost
// tracks derived-state size, not heap size).
func BenchmarkReopen(b *testing.B) {
	for _, docs := range []int{8, 32} {
		dir := b.TempDir()
		db, err := ordbms.Open(ordbms.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		s, err := xmlstore.Open(db)
		if err != nil {
			b.Fatal(err)
		}
		gen := corpus.New(61)
		for _, d := range gen.DeepReports(docs, 6, 24, 16) {
			if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		// snap-B/raw-B is the snapshot file's bytes over its payload's,
		// which the frame's size word (bytes 16..24, the top bit the
		// deflate flag) records.
		snap, err := os.ReadFile(filepath.Join(dir, "xmlstore.nmsnap"))
		if err != nil {
			b.Fatal(err)
		}
		snapRatio := float64(len(snap)) / float64(binary.LittleEndian.Uint64(snap[16:24])&^(1<<63))

		reopen := func(b *testing.B, disable bool) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, err := ordbms.Open(ordbms.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				s, err := xmlstore.OpenWith(db, xmlstore.OpenOptions{DisableSnapshot: disable})
				if err != nil {
					b.Fatal(err)
				}
				if st := s.SnapshotStats(); st.Loaded == disable {
					b.Fatalf("unexpected snapshot state: %+v", st)
				}
				b.StopTimer()
				db.CloseDiscard()
				b.StartTimer()
			}
		}
		b.Run(fmt.Sprintf("snapshot/docs=%d", docs), func(b *testing.B) {
			reopen(b, false)
			b.ReportMetric(snapRatio, "snap-B/raw-B")
		})
		b.Run(fmt.Sprintf("scan/docs=%d", docs), func(b *testing.B) { reopen(b, true) })
	}
}

// BenchmarkReconstruct measures the XPath path's read of whole
// documents on a cold store: each op opens a directory store of 100 deep
// reports (some 260 000 nodes, more than the default node cache holds)
// off the clock, then rebuilds every document as a tree with Reconstruct
// and serializes it with sgml.WriteIndent.  ns/node and allocs/node are
// the per-hop cost of the ROWID-linked traversal through the node cache
// plus the tree's.  BenchmarkWriteDocument is the same read as an HTTP
// GET makes it, with no tree.
func BenchmarkReconstruct(b *testing.B) {
	benchColdDocuments(b, func(s *xmlstore.Store, id uint64) error {
		tree, err := s.Reconstruct(id)
		if err != nil {
			return err
		}
		return sgml.WriteIndent(io.Discard, tree)
	})
}

// BenchmarkWriteDocument measures the read path of an HTTP GET /doc on
// the store BenchmarkReconstruct reads: every document's events go from
// the node cache's page images straight into an indenting sgml.Encoder
// over a 32 KiB buffered writer, as the server writes them to the
// client.  ns/node and allocs/node compare with BenchmarkReconstruct's.
func BenchmarkWriteDocument(b *testing.B) {
	bw := bufio.NewWriterSize(io.Discard, 32<<10)
	benchColdDocuments(b, func(s *xmlstore.Store, id uint64) error {
		if err := s.EmitDocument(id, sgml.NewEncoder(bw, true)); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// benchColdDocuments times read over each of 100 deep reports: every op
// opens their directory store off the clock, its node cache at core's
// default size, and reads every document.  It reports ns/node and
// allocs/node over the stored nodes.
func benchColdDocuments(b *testing.B, read func(s *xmlstore.Store, id uint64) error) {
	dir := b.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		b.Fatal(err)
	}
	var ids []uint64
	for _, d := range corpus.New(1).DeepReports(100, 6, 24, 16) {
		id, err := s.StoreRaw(d.Name, d.Data)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	nodes := s.NumNodes()
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	var allocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := ordbms.Open(ordbms.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		s, err := xmlstore.Open(db)
		if err != nil {
			b.Fatal(err)
		}
		s.EnableNodeCache(core.DefaultNodeCacheBytes)
		runtime.ReadMemStats(&ms)
		allocs -= ms.Mallocs
		b.StartTimer()
		for _, id := range ids {
			if err := read(s, id); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs
		db.CloseDiscard()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes*int64(b.N)), "ns/node")
	b.ReportMetric(float64(allocs)/float64(nodes*int64(b.N)), "allocs/node")
}

// BenchmarkDeleteDocument measures removing one deep report (some 2 600
// nodes) from a durable store of 300 mixed documents, its node cache on
// at core's default size, through to the commit that makes the delete
// durable.  Each iteration re-ingests the
// report off the clock, onto new slots: a deleted one is never reused.
// ns/node is the per-row cost, comparable across document sizes;
// wal-B/node and wal-appends/op are what each delete costs the log.
func BenchmarkDeleteDocument(b *testing.B) {
	db, err := ordbms.Open(ordbms.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s, err := xmlstore.Open(db)
	if err != nil {
		b.Fatal(err)
	}
	s.EnableNodeCache(core.DefaultNodeCacheBytes)
	gen := corpus.New(71)
	if err := experiments.LoadCorpus(s, gen.Mixed(300)); err != nil {
		b.Fatal(err)
	}
	victim := gen.DeepReport(0, 6, 24, 16)
	var nodes int64
	var walAppends, walBytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id, err := s.StoreRaw(victim.Name, victim.Data)
		if err != nil {
			b.Fatal(err)
		}
		info, err := s.Document(id)
		if err != nil {
			b.Fatal(err)
		}
		nodes += info.NNodes
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
		appends0, _, bytes0 := db.WALStats()
		b.StartTimer()
		if err := s.DeleteDocument(id); err != nil {
			b.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		appends, _, bytes := db.WALStats()
		walAppends += appends - appends0
		walBytes += bytes - bytes0
		b.StartTimer()
	}
	b.StopTimer() // the deferred Close checkpoints: not part of a delete
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(walBytes)/float64(nodes), "wal-B/node")
	b.ReportMetric(float64(walAppends)/float64(b.N), "wal-appends/op")
}
