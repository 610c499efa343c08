package load

import "fmt"

// Workload fixes one traffic mix: the corpus netmarkd is started on,
// its flags, the query pool, and how the run's seconds are split
// between querying and writing.  Sizes are for nproc = 2 and relative
// to netmarkd's defaults: a 4096-page (32 MiB) buffer pool, a 32 MiB
// decoded-node cache and a 64 MiB result cache.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Corpus is "mixed" (flat HTML/RTF/text proposals, task plans,
	// anomalies, lessons) or "deep" (nested XML engineering reports).
	Corpus string
	// Preload is how many documents are built into the store before
	// netmarkd starts.
	Preload int
	// PutsPerSecond sizes the PUT set: documents per second of run.
	PutsPerSecond float64
	// Deletes is how many documents the write phase deletes (mixed_rw
	// deletes one per writer tick instead).
	Deletes int
	// DeletePuts takes the delete targets from the PUT set, not the
	// preloaded one: nothing is preloaded, or a preloaded document is a
	// 2600-node report whose delete takes seconds.
	DeletePuts bool
	// Flags are the netmarkd flags beyond -addr, -dir, -drop and -poll.
	Flags []string
	// QueryShare is the part of the run's seconds spent in the query
	// phase.  1 with Concurrent set means queries and writes overlap.
	QueryShare float64
	// Concurrent runs the query client and the open-loop writer side by
	// side for the whole run (mixed_rw).
	Concurrent bool
	// QueryFirst orders the phases: query then write, or write then
	// query.
	QueryFirst bool

	PoolSize int
	// Zipf is the pool draw's exponent; 0 draws uniformly.
	Zipf float64
	// Mix is the pool's shape mix in per cent.
	Mix    []share
	Limits []int
	// StableHalf makes half the pool content queries on per-document
	// serials that no write touches, and saturates the other half.
	StableHalf bool
	// PinBodies checks every response byte for byte: the store netmarkd
	// serves is the one the oracle answered from.
	PinBodies bool
	// WarmQueries is how many pool queries the warm-up runs, one at a
	// time, before anything is measured.
	WarmQueries int
	// MinHitRatio and WantEvictions are the workload's validity guards:
	// the result-cache hit ratio its query window must reach, and
	// whether that window must evict from the node cache (the corpus is
	// meant to be larger than it).
	MinHitRatio   float64
	WantEvictions bool
}

// allShapes is the serve_hot and mixed_rw mix: every kernel arm.
var allShapes = []share{
	{ShapeContent, 25}, {ShapeBoth, 20}, {ShapeContext, 15}, {ShapePrefix, 10},
	{ShapePhrase, 10}, {ShapeDocs, 10}, {ShapeXSLT, 10},
}

// Workloads are the four traffic mixes, in the order A/A runs them.
var Workloads = []*Workload{
	{
		Name:   "serve_hot",
		Why:    "everything fits every cache: webdav, net/http and the xdb result cache do the work, the store almost none",
		Corpus: "mixed", Preload: 3000, PutsPerSecond: 600, Deletes: 32,
		QueryShare: 0.7, QueryFirst: true,
		PoolSize: 64, Zipf: 1.1, Mix: allShapes, Limits: []int{10},
		PinBodies: true, WarmQueries: 64, MinHitRatio: 0.99,
	},
	{
		Name:   "serve_cold",
		Why:    "no result cache and a corpus that decodes to more than the node cache: every request runs the query kernel",
		Corpus: "deep", Preload: 100, PutsPerSecond: 600, Deletes: 32, DeletePuts: true,
		Flags:      []string{"-cache-bytes=-1"},
		QueryShare: 0.7, QueryFirst: true,
		PoolSize: 256,
		Mix: []share{
			{ShapeContent, 55}, {ShapeBoth, 15}, {ShapeContext, 5}, {ShapePrefix, 5},
			{ShapePhrase, 10}, {ShapeDocs, 5}, {ShapeXSLT, 5},
		},
		Limits:    []int{10, 50},
		PinBodies: true, WarmQueries: 16, WantEvictions: true,
	},
	{
		Name:   "ingest_bulk",
		Why:    "the drag-and-drop path end to end: docform, sgml, textindex, the batch pipeline, WAL and fsync; caches idle",
		Corpus: "mixed", Preload: 0, PutsPerSecond: 1000, Deletes: 32, DeletePuts: true,
		QueryShare: 0.25,
		PoolSize:   64, Zipf: 1.1, Mix: allShapes, Limits: []int{10},
		WarmQueries: 0,
	},
	{
		Name:   "mixed_rw",
		Why:    "writes beside reads: invalidation, lock stalls and group commit show up in query and delete latency",
		Corpus: "mixed", Preload: 3000, PutsPerSecond: tickPuts / tickMean,
		QueryShare: 1, Concurrent: true,
		PoolSize: 256, Zipf: 1.1, Mix: allShapes, Limits: []int{10},
		StableHalf: true, WarmQueries: 256,
	},
}

// The open-loop writer: a tick is due every tickMean seconds on
// average, and each tick deletes one preloaded document and PUTs
// tickPuts new ones.
const (
	tickMean = 0.2
	tickPuts = 16
)

// maxMixedDocs and maxDeepPuts keep data.nmdb under 28 MB, inside the
// default buffer pool: BufferPool.Fetch publishes a missed frame before
// its read finishes, so concurrent readers must never miss.
const (
	maxMixedDocs = 8000
	maxDeepPuts  = 2000
)

// ResultCache reports whether netmarkd runs with its query result cache
// under this workload.
func (w *Workload) ResultCache() bool {
	for _, f := range w.Flags {
		if f == "-cache-bytes=-1" {
			return false
		}
	}
	return true
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// counts sizes the document sets for a run.
func (w *Workload) counts(scale, seconds float64) (preload, puts int) {
	preload = int(float64(w.Preload) * scale)
	if w.Concurrent {
		puts = tickPuts * ticks(seconds, tickMean)
	} else {
		puts = int(w.PutsPerSecond * seconds * scale)
	}
	if puts < 2*tickPuts {
		puts = 2 * tickPuts
	}
	limit := maxMixedDocs - preload
	if w.Corpus == "deep" {
		limit = maxDeepPuts
	}
	if puts > limit {
		puts = limit
	}
	return preload, puts
}
