package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"netmark/bench/load"
	"netmark/internal/core"
	"netmark/internal/databank"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/webdav"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// Span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.  The spans of one replayed operation share Op;
// Parent names the rung above.  Each rung is a separate execution in
// the same warm state, so a layer's self time is its span's duration
// minus its children's, not an interval subtraction.
type Span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	origin time.Time
	spans  []Span
}

func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Time runs fn as one span and returns how long it took.
func (r *Recorder) Time(op int, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	return r.Add(op, name, parent, start, time.Since(start))
}

// Add records a span that was timed elsewhere.
func (r *Recorder) Add(op int, name, parent string, start time.Time, d time.Duration) time.Duration {
	s := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, Span{op, name, parent, s, s + d.Nanoseconds()})
	return d
}

// WriteFile writes the spans out as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stack is netmarkd's serving stack re-hosted in this process, assembled
// the way core.Open does, over a counting filesystem.  Two engines share
// the store: kernel has no result cache, so every rung below ExecuteInto
// really runs and the rungs nest; asRun has the workload's own cache
// setting, for the cache-hit rung and the tracing overhead.
type stack struct {
	db     *ordbms.DB
	store  *xmlstore.Store
	kernel *xdb.Engine
	asRun  *xdb.Engine

	kernelURL, asRunURL string
	cancel              context.CancelFunc
	served              chan error
}

// openStack opens (or creates) the store in dir through fsys.
func openStack(dir string, fsys *CountFS, resultCache bool) (*stack, error) {
	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: fsys})
	if err != nil {
		return nil, err
	}
	store, err := xmlstore.OpenWith(db, xmlstore.OpenOptions{})
	if err != nil {
		db.CloseDiscard()
		return nil, err
	}
	store.EnableNodeCache(core.DefaultNodeCacheBytes)
	store.SetQueryWorkers(0)
	s := &stack{db: db, store: store, kernel: xdb.NewEngine(store), asRun: xdb.NewEngine(store)}
	if resultCache {
		s.asRun.EnableCache(core.DefaultCacheBytes)
	}
	for _, e := range []*xdb.Engine{s.kernel, s.asRun} {
		if err := e.RegisterStylesheet(load.SheetName, load.Sheet); err != nil {
			db.CloseDiscard()
			return nil, err
		}
	}
	return s, nil
}

// serve starts one HTTP server per engine on loopback ports.
func (s *stack) serve(davDir string) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.served = make(chan error, 2)
	for _, e := range []struct {
		engine *xdb.Engine
		url    *string
	}{{s.kernel, &s.kernelURL}, {s.asRun, &s.asRunURL}} {
		srv, err := webdav.NewServer(e.engine, databank.NewRegistry(), davDir)
		if err != nil {
			cancel()
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			return err
		}
		*e.url = "http://" + ln.Addr().String()
		go func() { s.served <- srv.ServeListener(ctx, ln) }()
	}
	return nil
}

// stopServing drains both servers.
func (s *stack) stopServing() error {
	s.cancel()
	err := <-s.served
	if err2 := <-s.served; err == nil {
		err = err2
	}
	return err
}

// kernelChunk is how many posting ids the query kernel pulls from the
// text index at a time (xmlstore's sectionChunk).  A query whose result
// reached its limit consumed at least one chunk; one that did not
// drained the iterator.  The benchmark cannot see the exact count
// without instrumenting the product, so the iterator rung replays this
// lower bound.
const kernelChunk = 512

// search calls the xmlstore entry point that xdb's executeUncached
// picks for the query's shape.
func search(store *xmlstore.Store, q xdb.Query) ([]xmlstore.Section, []*xmlstore.DocInfo, error) {
	switch {
	case q.DocsOnly:
		docs, err := store.ContentSearchDocsN(q.Content, q.Limit)
		return nil, docs, err
	case q.ContextPrefix && q.Content == "":
		secs, err := store.ContextPrefixSearchN(q.Context, q.Limit)
		return secs, nil, err
	case q.Phrase && q.Context == "":
		secs, err := phraseSections(store, q.Content, q.Limit)
		return secs, nil, err
	default:
		secs, err := store.SearchN(q.Context, q.Content, q.Limit)
		return secs, nil, err
	}
}

// phraseSections is xdb's phrase arm over the store's public calls:
// positional probe, then each hit resolved to its governing section.
func phraseSections(store *xmlstore.Store, phrase string, limit int) ([]xmlstore.Section, error) {
	seen := map[ordbms.RowID]bool{}
	var out []xmlstore.Section
	for _, h := range store.ContentIndex().Phrase(phrase) {
		node, err := store.FetchNode(ordbms.RowIDFromUint64(h))
		if err != nil {
			return nil, err
		}
		ctx, err := store.ContextFor(node)
		if err != nil {
			return nil, err
		}
		if ctx == nil || seen[ctx.RowID] {
			continue
		}
		seen[ctx.RowID] = true
		sec, err := store.SectionOf(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, sec)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// drainIter replays the text-index work of one query: the posting
// iterator for its terms, pulled as far as the kernel pulls it.
func drainIter(store *xmlstore.Store, q xdb.Query, saturated bool) (ids int) {
	if q.Content == "" {
		return 0
	}
	if q.Phrase {
		return len(store.ContentIndex().Phrase(q.Content))
	}
	it := store.ContentIndex().AndIter(q.Content)
	for {
		if _, ok := it.Next(); !ok {
			return ids
		}
		ids++
		if saturated && ids == kernelChunk {
			return ids
		}
	}
}

// countingWriter counts bytes on their way to nowhere.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// rungs is one replayed query's ladder, in microseconds, plus counts.
type rungs struct {
	rtt, asRunRTT, parse, execInto, cacheHit  float64
	search, iter, fetch, write, transform     float64
	sections, ids, fetches, respBytes, wbytes float64
	xslt                                      bool
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rungRepeats is how many times each rung of one operation is executed.
// The rung's time is the fastest of them: a garbage collection or a slow
// spell of the processor lands on single executions, and nested rungs
// only subtract cleanly when both are free of it.
const rungRepeats = 3

// best runs fn rungRepeats times, each one a span, and returns the
// fastest in microseconds.
func best(rec *Recorder, op int, name, parent string, fn func()) float64 {
	fastest := rec.Time(op, name, parent, fn)
	for i := 1; i < rungRepeats; i++ {
		if d := rec.Time(op, name, parent, fn); d < fastest {
			fastest = d
		}
	}
	return us(fastest)
}

// replay runs one pool query down the ladder.  Every rung is executed
// separately, after one discarded full execution has put the store in
// the state a repeated request finds it in.
func (s *stack) replay(rec *Recorder, op int, pq *load.PoolQuery, kernel, asRun *load.Conn, fetchNs float64) (rungs, error) {
	var r rungs
	var err error
	roundTrip := func(conn *load.Conn, name string) float64 {
		var fastest time.Duration
		for i := 0; i <= rungRepeats && err == nil; i++ {
			start := time.Now()
			lat, size, qerr := conn.Query(pq)
			if err = qerr; i == 0 || err != nil {
				continue // the first execution is the discarded one
			}
			rec.Add(op, name, "", start, lat)
			if r.respBytes = float64(size); fastest == 0 || lat < fastest {
				fastest = lat
			}
		}
		return us(fastest)
	}
	r.rtt = roundTrip(kernel, "webdav.rtt")
	r.asRunRTT = roundTrip(asRun, "webdav.rtt_as_run")
	if err != nil {
		return r, err
	}

	var q xdb.Query
	r.parse = best(rec, op, "xdb.parse", "webdav.rtt", func() { q, err = xdb.Parse(pq.Raw) })
	if err != nil {
		return r, err
	}
	r.execInto = best(rec, op, "xdb.execinto", "webdav.rtt", func() { err = errors.Join(err, s.kernel.ExecuteInto(q, io.Discard)) })
	r.cacheHit = best(rec, op, "xdb.cache_hit", "webdav.rtt_as_run", func() { err = errors.Join(err, s.asRun.ExecuteInto(q, io.Discard)) })

	var secs []xmlstore.Section
	var docs []*xmlstore.DocInfo
	h0, m0, _ := s.db.Pool().Stats()
	r.search = best(rec, op, "xmlstore.search", "xdb.execinto", func() {
		var serr error
		secs, docs, serr = search(s.store, q)
		err = errors.Join(err, serr)
	})
	if err != nil {
		return r, err
	}
	h1, m1, _ := s.db.Pool().Stats()
	r.fetches = float64(h1+m1-h0-m0) / rungRepeats
	r.fetch = r.fetches * fetchNs / 1000
	r.sections = float64(len(secs) + len(docs))
	saturated := q.Limit > 0 && len(secs)+len(docs) >= q.Limit
	r.iter = best(rec, op, "textindex.iter", "xmlstore.search", func() { r.ids = float64(drainIter(s.store, q, saturated)) })

	res := &xdb.Result{Query: q, Sections: secs, Docs: docs}
	tree := res.XML()
	if q.XSLT != "" {
		r.xslt = true
		sheet := s.kernel.Stylesheet(q.XSLT)
		r.transform = best(rec, op, "xslt.transform", "xdb.execinto", func() {
			var terr error
			tree, terr = sheet.Transform(res.XML())
			err = errors.Join(err, terr)
		})
	}
	var cw countingWriter
	r.write = best(rec, op, "sgml.write", "xdb.execinto", func() {
		cw.n = 0
		err = errors.Join(err, sgml.WriteIndent(&cw, tree))
	})
	if err != nil {
		return r, err
	}
	r.wbytes = float64(cw.n)

	return r, nil
}

// mean of one field over the replayed operations.
func mean(rs []rungs, f func(*rungs) float64, only func(*rungs) bool) float64 {
	var sum float64
	n := 0
	for i := range rs {
		if only != nil && !only(&rs[i]) {
			continue
		}
		sum += f(&rs[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ladderSample is how many operations the ladder replays: a fixed
// count, so the traced run does the same work on every commit.
const ladderSample = 64

// ladder replays a seeded sample of the workload's queries and reduces
// the rungs to the per-layer metrics.  Means, not medians: they add, so
// the self times along webdav -> xdb -> {xmlstore -> {textindex,
// ordbms}, sgml, xslt} sum to the round trip and "where did the time
// go" has an exact answer.
func (s *stack) ladder(rec *Recorder, w *load.Workload, in *load.Inputs, seed int64, fetchNs float64, out map[string]float64) error {
	kernel, asRun := load.NewConn(s.kernelURL), load.NewConn(s.asRunURL)
	defer kernel.Close()
	defer asRun.Close()
	draw := w.Drawer(seed, 0, len(in.Pool))
	var rs []rungs
	var sizes, asRuns load.Samples
	for op := 0; op < ladderSample; op++ {
		r, err := s.replay(rec, op, &in.Pool[draw()], kernel, asRun, fetchNs)
		if err != nil {
			return fmt.Errorf("ladder op %d: %w", op, err)
		}
		rs = append(rs, r)
		sizes = append(sizes, r.respBytes)
		asRuns = append(asRuns, r.asRunRTT)
	}
	all := func(f func(*rungs) float64) float64 { return mean(rs, f, nil) }
	out["webdav.rtt_us"] = all(func(r *rungs) float64 { return r.rtt })
	out["webdav.resp_bytes_p50"] = sizes.Median()
	out["xdb.parse_us"] = all(func(r *rungs) float64 { return r.parse })
	out["xdb.execinto_us"] = all(func(r *rungs) float64 { return r.execInto })
	out["xdb.cache_hit_us"] = all(func(r *rungs) float64 { return r.cacheHit })
	out["xslt.transform_us"] = mean(rs, func(r *rungs) float64 { return r.transform }, func(r *rungs) bool { return r.xslt })
	out["sgml.write_us"] = all(func(r *rungs) float64 { return r.write })
	out["sgml.write_ns_per_byte"] = 1000 * all(func(r *rungs) float64 { return r.write }) / all(func(r *rungs) float64 { return r.wbytes })
	out["xmlstore.search_us"] = all(func(r *rungs) float64 { return r.search })
	out["xmlstore.sections_per_query"] = all(func(r *rungs) float64 { return r.sections })
	out["textindex.iter_us"] = all(func(r *rungs) float64 { return r.iter })
	out["textindex.ids_per_result"] = all(func(r *rungs) float64 { return r.ids }) / all(func(r *rungs) float64 { return r.sections })
	out["ordbms.fetch_us"] = all(func(r *rungs) float64 { return r.fetch })
	out["ordbms.fetches_per_query"] = all(func(r *rungs) float64 { return r.fetches })

	// Self time is a rung minus the rungs below it, taken on the means: a
	// single operation's rungs are separate executions that differ by a
	// third either way, so per-operation differences are mostly noise.
	// Every request pays the transform's mean share, not the mean over
	// the requests that have one.  The self times add up to the round
	// trip by construction; what can go wrong is that separately timed
	// children come out above their parent.  Such a self time is set to
	// zero, and ladder.clamped_us is how much was cut off in all: how far
	// the rungs are from nesting.  It is often not zero.  The kernel fans
	// section work out to parallel workers that stop at the limit, so the
	// work an identical query does depends on timing (one content query
	// at limit=10 fetched 17 000 to 47 000 nodes from one execution to the
	// next, against 4 445 with one worker).
	transformShare := all(func(r *rungs) float64 { return r.transform })
	clamped := 0.0
	self := func(parent float64, children ...float64) float64 {
		for _, c := range children {
			parent -= c
		}
		if parent < 0 {
			clamped -= parent
			return 0
		}
		return parent
	}
	out["webdav.self_us"] = self(out["webdav.rtt_us"], out["xdb.execinto_us"], out["xdb.parse_us"])
	out["xdb.self_us"] = self(out["xdb.execinto_us"], out["xmlstore.search_us"], out["sgml.write_us"], transformShare)
	out["xmlstore.self_us"] = self(out["xmlstore.search_us"], out["textindex.iter_us"], out["ordbms.fetch_us"])
	out["ladder.clamped_us"] = clamped
	out["overhead.middleware_x"] = out["webdav.rtt_us"] / out["xmlstore.search_us"]
	out["ladder.as_run_rtt_p50_us"] = asRuns.Median()
	return nil
}
