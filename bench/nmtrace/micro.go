package main

import (
	"fmt"
	"path/filepath"
	"time"

	"netmark"
	"netmark/bench/load"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
	"netmark/internal/xmlstore"
)

const mb = 1e6

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// formatCap bounds how many bytes of one format the converter rungs
// chew through, so the traced run's length does not follow corpus size.
const formatCap = 1 << 20

// convertRungs times the ingest path's pure functions over a sample of
// the documents: upmark conversion per format, SGML parsing of the
// markup formats, and tokenisation.
func convertRungs(docs []netmark.Doc, out map[string]float64) error {
	type acc struct {
		bytes int64
		d     time.Duration
	}
	convert, parse, tokenize := map[string]*acc{}, &acc{}, &acc{}
	total := &acc{}
	for _, d := range docs {
		conv, err := docform.Detect(d.Name, d.Data)
		if err != nil {
			return err
		}
		a := convert[conv.Name()]
		if a == nil {
			a = &acc{}
			convert[conv.Name()] = a
		}
		if a.bytes >= formatCap {
			continue
		}
		start := time.Now()
		if _, _, err := docform.Convert(d.Name, d.Data); err != nil {
			return err
		}
		el := time.Since(start)
		a.bytes, a.d = a.bytes+int64(len(d.Data)), a.d+el
		total.bytes, total.d = total.bytes+int64(len(d.Data)), total.d+el

		src := string(d.Data)
		if f := conv.Name(); f == "html" || f == "xml" {
			start = time.Now()
			if _, err := sgml.ParseString(src, sgml.SniffMode(src)); err != nil {
				return err
			}
			parse.bytes, parse.d = parse.bytes+int64(len(src)), parse.d+time.Since(start)
		}
		start = time.Now()
		toks := textindex.Tokenize(src)
		tokenize.bytes, tokenize.d = tokenize.bytes+int64(len(src)), tokenize.d+time.Since(start)
		if len(toks) == 0 {
			return fmt.Errorf("%s tokenises to nothing", d.Name)
		}
	}
	rate := func(a *acc) float64 {
		if a == nil || a.bytes == 0 {
			return 0
		}
		return msOf(a.d) / (float64(a.bytes) / mb)
	}
	out["docform.convert_ms_per_mb"] = rate(total)
	for _, f := range []string{"html", "rtf", "text", "csv", "xml"} {
		out["docform.convert_ms_per_mb."+f] = rate(convert[f])
	}
	out["sgml.parse_ms_per_mb"] = rate(parse)
	out["textindex.tokenize_ms_per_mb"] = rate(tokenize)
	return nil
}

// batchSize is the ingest pipeline's group-commit batch
// (core.DefaultIngestBatch): every batch rung times 64 documents.
const batchSize = 64

// batches cuts docs into group-commit batches, at most max of them.
func batches(docs []netmark.Doc, max int) [][]netmark.Doc {
	var out [][]netmark.Doc
	for start := 0; start+batchSize <= len(docs) && len(out) < max; start += batchSize {
		out = append(out, docs[start:start+batchSize])
	}
	if len(out) == 0 && len(docs) > 0 {
		out = append(out, docs)
	}
	return out
}

// buildStore ingests docs into a fresh store in dir through the counting
// filesystem, batch by batch, closes it cleanly, and reports the write
// path's rungs: batch time, checkpoint time, and what reached the vfs.
func buildStore(dir string, fsys *CountFS, docs []netmark.Doc, out map[string]float64) error {
	s, err := openStack(dir, fsys, false)
	if err != nil {
		return err
	}
	var perBatch load.Samples
	for start := 0; start < len(docs); start += batchSize {
		end := start + batchSize
		if end > len(docs) {
			end = len(docs)
		}
		t := time.Now()
		for _, r := range s.store.StoreBatch(docs[start:end], 0) {
			if r.Err != nil {
				s.db.CloseDiscard()
				return fmt.Errorf("store %s: %w", r.Name, r.Err)
			}
		}
		if end-start == batchSize {
			perBatch = append(perBatch, msOf(time.Since(t)))
		}
	}
	t := time.Now()
	if err := s.db.Close(); err != nil {
		return err
	}
	out["xmlstore.storebatch_ms"] = perBatch.Median()
	out["ordbms.checkpoint_ms"] = msOf(time.Since(t))

	tally := fsys.Snapshot()
	user := float64(load.UserBytes(docs))
	var syncMs load.Samples
	for _, d := range tally.Syncs {
		syncMs = append(syncMs, msOf(d))
	}
	out["vfs.fsyncs"] = float64(len(tally.Syncs))
	out["vfs.fsync_p50_ms"] = syncMs.Median()
	out["vfs.fsync_ms_total"] = syncMs.Sum()
	out["vfs.write_calls"] = float64(tally.WriteCalls)
	out["vfs.wal_bytes_per_user_byte"] = float64(tally.Bytes[classWAL]) / user
	out["vfs.data_bytes_per_user_byte"] = float64(tally.Bytes[classData]) / user
	out["vfs.snapshot_bytes_per_user_byte"] = float64(tally.Bytes[classSnapshot]) / user
	return nil
}

// openRungs times reopening the closed store three ways: the engine
// alone, the XML store from its checkpoint snapshot, and the XML store
// by the full heap scan.
func openRungs(dir string, out map[string]float64) error {
	for _, scan := range []bool{true, false} {
		t := time.Now()
		db, err := ordbms.Open(ordbms.Options{Dir: dir})
		if err != nil {
			return err
		}
		opened := time.Since(t)
		t = time.Now()
		if _, err := xmlstore.OpenWith(db, xmlstore.OpenOptions{DisableSnapshot: scan}); err != nil {
			db.CloseDiscard()
			return err
		}
		if scan {
			out["xmlstore.open_scan_ms"] = msOf(time.Since(t))
		} else {
			out["xmlstore.open_snapshot_ms"] = msOf(time.Since(t))
			out["ordbms.open_ms"] = msOf(opened)
		}
		// Nothing was written: drop the handles without a checkpoint.
		if err := db.CloseDiscard(); err != nil {
			return err
		}
	}
	return nil
}

// fetchRungs times the two cheapest reads on resident rows: the engine's
// FetchView and the store's node-cache-warm FetchNode.
func (s *stack) fetchRungs(out map[string]float64) error {
	var rids []ordbms.RowID
	if err := s.store.ScanNodes(func(n *xmlstore.Node) bool {
		rids = append(rids, n.RowID)
		return len(rids) < 4096
	}); err != nil {
		return err
	}
	if len(rids) == 0 {
		return fmt.Errorf("store has no nodes")
	}
	xml := s.db.Table("XML")
	const passes = 8
	for _, rid := range rids { // warm both the pool and the node cache
		if _, err := s.store.FetchNode(rid); err != nil {
			return err
		}
	}
	t := time.Now()
	for p := 0; p < passes; p++ {
		for _, rid := range rids {
			if err := xml.FetchView(rid, func([]byte) error { return nil }); err != nil {
				return err
			}
		}
	}
	out["ordbms.fetchview_ns"] = float64(time.Since(t).Nanoseconds()) / float64(passes*len(rids))
	t = time.Now()
	for p := 0; p < passes; p++ {
		for _, rid := range rids {
			if _, err := s.store.FetchNode(rid); err != nil {
				return err
			}
		}
	}
	out["xmlstore.fetchnode_warm_ns"] = float64(time.Since(t).Nanoseconds()) / float64(passes*len(rids))
	return nil
}

// docRungs times whole-document work on the serving stack: reconstruct,
// then delete with the durable commit the DELETE handler makes.
func (s *stack) docRungs(docs []netmark.Doc, out map[string]float64) error {
	// At most 16 documents and about 64 KB: deleting one 2600-node
	// report takes seconds.
	var reconstruct, del, commit load.Samples
	budget := 64 << 10
	for i := len(docs) - 1; i >= 0 && len(del) < 16 && budget > 0; i-- {
		d := docs[i]
		budget -= len(d.Data)
		info, err := s.store.DocumentByName(d.Name)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := s.store.Reconstruct(info.DocID); err != nil {
			return err
		}
		reconstruct = append(reconstruct, us(time.Since(t)))
		t = time.Now()
		if err := s.store.DeleteDocument(info.DocID); err != nil {
			return err
		}
		del = append(del, msOf(time.Since(t)))
		t = time.Now()
		if err := s.db.Commit(); err != nil {
			return err
		}
		commit = append(commit, msOf(time.Since(t)))
	}
	out["xmlstore.reconstruct_us"] = reconstruct.Median()
	out["xmlstore.delete_ms"] = del.Median()
	out["ordbms.commit_ms"] = commit.Median()
	return nil
}

// putRung times PUT /dav/ round trips against the in-process server.
func (s *stack) putRung(docs []netmark.Doc, out map[string]float64) error {
	conn := load.NewConn(s.kernelURL)
	defer conn.Close()
	if len(docs) > batchSize {
		docs = docs[:batchSize]
	}
	var lat load.Samples
	for _, d := range docs {
		l, err := conn.Put(d.Name, d.Data)
		if err != nil {
			return err
		}
		lat = append(lat, us(l))
	}
	out["webdav.put_us"] = lat.Median()
	return nil
}

// batchAndRecoverRungs drives the public batch API on a store of its
// own, then abandons it without a checkpoint, as a crash would, and
// times the reopen that replays the WAL.
func batchAndRecoverRungs(dir string, docs []netmark.Doc, out map[string]float64) error {
	nm, err := netmark.Open(netmark.Config{Dir: dir})
	if err != nil {
		return err
	}
	var perBatch load.Samples
	for _, b := range batches(docs, 16) {
		t := time.Now()
		for _, r := range nm.IngestBatch(b) {
			if r.Err != nil {
				nm.DB().CloseDiscard()
				return fmt.Errorf("ingest %s: %w", r.Name, r.Err)
			}
		}
		perBatch = append(perBatch, msOf(time.Since(t)))
	}
	out["core.ingestbatch_p50_ms"] = perBatch.Median()
	if err := nm.DB().CloseDiscard(); err != nil {
		return err
	}
	t := time.Now()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		return err
	}
	out["ordbms.recover_ms"] = msOf(time.Since(t))
	out["ordbms.recover_records"] = float64(db.Replayed)
	return db.Close()
}

// trace runs every traced rung for the workload and fills out.  The
// serving stack is built on exactly the documents the workload's query
// phase sees.
func trace(o load.Options, w *load.Workload, in *load.Inputs, spans string, out map[string]float64) error {
	served := in.Preload
	if len(served) == 0 {
		served = in.Puts
	}
	sample := append(append([]netmark.Doc(nil), in.Puts...), served...)
	if err := convertRungs(sample, out); err != nil {
		return err
	}
	dir := filepath.Join(o.WorkDir, "ladder-store")
	if err := buildStore(dir, NewCountFS(), served, out); err != nil {
		return err
	}
	if err := openRungs(dir, out); err != nil {
		return err
	}
	if err := batchAndRecoverRungs(filepath.Join(o.WorkDir, "batch-store"), in.Puts, out); err != nil {
		return err
	}

	s, err := openStack(dir, NewCountFS(), w.ResultCache())
	if err != nil {
		return err
	}
	if err := s.serve(filepath.Join(o.WorkDir, "ladder-dav")); err != nil {
		s.db.CloseDiscard()
		return err
	}
	rec := NewRecorder()
	err = s.fetchRungs(out)
	if err == nil {
		err = s.ladder(rec, w, in, o.Seed, out["ordbms.fetchview_ns"], out)
	}
	if err == nil {
		err = s.putRung(in.Puts, out)
	}
	if err == nil {
		err = s.docRungs(served, out)
	}
	if serr := s.stopServing(); err == nil {
		err = serr
	}
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return rec.WriteFile(spans)
}
