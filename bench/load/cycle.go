package load

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netmark"
)

// tally counts operations attempted and failed.  A failed operation is a
// non-2xx response, a transport error, a wrong result count or body, or
// a missing document; it never aborts the run.
type tally struct {
	attempted, failed int
	firstErr          error
}

// fail counts one failed operation.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// add folds another tally in.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// state is one set-up store with its netmarkd child.
type state struct {
	w     *Workload
	o     Options
	in    Inputs
	dir   string
	drop  string
	child *Child
	ctl   *Conn   // control connection: warm-up, /stats, verification
	conns []*Conn // load connections

	or   *oracle
	ids  map[string]uint64 // preloaded name -> document id
	warm ServerStats       // /stats after warm-up

	tally // warm-up and verification operations
}

func (st *state) flags() []string {
	return append(append([]string(nil), st.w.Flags...), "-drop", st.drop, "-poll", "100ms")
}

// ingestAll stores docs through the public batch API and fails on the
// first per-document error: generated inputs must all convert.
func ingestAll(nm *netmark.Netmark, docs []netmark.Doc) ([]netmark.IngestResult, error) {
	res := nm.IngestBatch(docs)
	for _, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("ingest %s: %w", r.Name, r.Err)
		}
	}
	return res, nil
}

// BuildInputs generates everything a cycle feeds netmarkd except the
// pool, which needs the oracle: documents, delete targets, writer
// schedule.  seconds is the cycle's share of the run.
//
// The documents are the same on every run (corpusSeed): the corpus is
// the benchmark's data set.  The run's seed drives the traffic over it
// (which queries in what order, the upload order, the delete targets,
// the writer's schedule).
func (w *Workload) BuildInputs(seed int64, scale, seconds float64) Inputs {
	var in Inputs
	in.Preload, in.Puts = w.BuildDocs(scale, seconds)
	rand.New(rand.NewSource(seed^0x707574)).Shuffle(len(in.Puts), func(i, j int) {
		in.Puts[i], in.Puts[j] = in.Puts[j], in.Puts[i]
	})
	targets := in.Preload
	if w.DeletePuts {
		targets = in.Puts
	}
	nDel := w.Deletes
	if w.Concurrent {
		in.Gaps = Schedule(seed, seconds, tickMean)
		nDel = len(in.Gaps)
	}
	if nDel > len(targets)/2 {
		nDel = len(targets) / 2
	}
	for _, i := range rand.New(rand.NewSource(seed ^ 0x64656c)).Perm(len(targets))[:nDel] {
		in.Deletes = append(in.Deletes, targets[i].Name)
	}
	return in
}

// oracle is what in-memory reference instances say about a run's
// inputs.  It is worked out once per run, before anything is timed, and
// netmarkd never sees it.
type oracle struct {
	pool                []PoolQuery
	baseDocs, baseNodes int64            // the preloaded store
	putNodes            int64            // nodes the PUT set shreds into
	nodes               map[string]int64 // node count of every delete target
}

// answers builds the oracle: one in-memory instance holds the preloaded
// documents, another the PUT set.  The pool is answered by whichever the
// query phase will see.
func answers(w *Workload, in *Inputs, scale float64) (*oracle, error) {
	or := &oracle{nodes: map[string]int64{}}
	churn := map[string]bool{}
	for _, name := range in.Deletes {
		churn[name] = true
	}
	load := func(docs []netmark.Doc, targets bool, pool bool) (nodes int64, err error) {
		nm, err := netmark.Open(netmark.Config{})
		if err != nil {
			return 0, err
		}
		defer func() { err = errors.Join(err, nm.Close()) }()
		if _, err := ingestAll(nm, docs); err != nil {
			return 0, err
		}
		for _, name := range in.Deletes {
			if !targets {
				break
			}
			info, err := nm.Store().DocumentByName(name)
			if err != nil {
				return 0, err
			}
			or.nodes[name] = info.NNodes
		}
		if pool {
			if or.pool, err = w.BuildPool(nm, docs, churn); err != nil {
				return 0, err
			}
			if short := w.PoolSize - len(or.pool); short > 0 && (scale >= 1 || len(or.pool) < 8) {
				return 0, fmt.Errorf("pool: %d of %d queries short", short, w.PoolSize)
			}
		}
		return nm.Store().NumNodes(), nil
	}
	var err error
	if or.putNodes, err = load(in.Puts, w.DeletePuts, len(in.Preload) == 0); err != nil {
		return nil, err
	}
	if len(in.Preload) > 0 {
		or.baseDocs = int64(len(in.Preload))
		if or.baseNodes, err = load(in.Preload, !w.DeletePuts, true); err != nil {
			return nil, err
		}
	}
	return or, nil
}

// setup is what setup_s times: generate the corpus, build the store
// in-process through the public API, close it cleanly, start netmarkd on
// it and warm it.
func setup(w *Workload, o Options, n int, or *oracle) (st *state, err error) {
	st = &state{w: w, o: o, or: or, ids: map[string]uint64{}}
	st.dir = filepath.Join(o.WorkDir, fmt.Sprintf("store-%d", n))
	st.drop = filepath.Join(o.WorkDir, fmt.Sprintf("drop-%d", n))
	st.in = w.BuildInputs(o.Seed, o.Scale, o.Seconds)
	st.in.Pool = or.pool
	if len(st.in.Preload) > 0 {
		nm, err := netmark.Open(netmark.Config{Dir: st.dir})
		if err != nil {
			return nil, err
		}
		res, err := ingestAll(nm, st.in.Preload)
		for _, r := range res {
			st.ids[r.Name] = r.DocID
		}
		if err = errors.Join(err, nm.Close()); err != nil {
			return nil, err
		}
	}
	if st.child, err = StartChild(o.Netmarkd, st.dir, runtime.NumCPU(), st.flags()...); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.child.Stop()
		}
	}()
	st.ctl = NewConn(st.child.Base)
	for i := 0; i < o.Conns; i++ {
		st.conns = append(st.conns, NewConn(st.child.Base))
	}
	if err = st.ctl.RegisterSheet(); err != nil {
		return nil, err
	}
	// Warm-up.  One connection, one document at a time: Reconstruct is
	// single-threaded, so every heap page is read into the buffer pool
	// without two fetches ever racing for the same missing page.
	for _, d := range st.in.Preload {
		st.attempted++
		status, _, gerr := st.ctl.GetDoc(st.ids[d.Name])
		if gerr != nil || status != 200 {
			st.fail(fmt.Errorf("warm GET /doc/%d: status %d: %v", st.ids[d.Name], status, gerr))
		}
	}
	for i := 0; i < w.WarmQueries && i < len(st.in.Pool); i++ {
		st.attempted++
		if _, _, qerr := st.ctl.Query(&st.in.Pool[i]); qerr != nil {
			st.fail(qerr)
		}
	}
	st.warm, err = st.ctl.Stats()
	return st, err
}

// abandon stops the child of a run that cannot go on.
func (st *state) abandon() error {
	st.closeConns()
	if !st.child.Stop() {
		return fmt.Errorf("netmarkd did not exit cleanly: %s", st.child.Output())
	}
	return nil
}

// closeConns drops every connection to the current child.
func (st *state) closeConns() {
	st.ctl.Close()
	for _, c := range st.conns {
		c.Close()
	}
}

// resolve maps delete-target names to document ids, through /docs when
// the targets were PUT (the daemon, not the generator, numbered them).
func (st *state) resolve() ([]uint64, error) {
	ids := st.ids
	if st.w.DeletePuts {
		var err error
		if ids, err = st.ctl.DocIDs(); err != nil {
			return nil, err
		}
	}
	out := make([]uint64, 0, len(st.in.Deletes))
	for _, name := range st.in.Deletes {
		id, ok := ids[name]
		if !ok {
			return nil, fmt.Errorf("delete target %s is not stored", name)
		}
		out = append(out, id)
	}
	return out, nil
}

// verify checks the reopened store against what the run did to it:
// document and node counts, every PUT document listed and every deleted
// one gone, and a sample of documents fetched one at a time.
func (st *state) verify(ids []uint64, deleted []bool) error {
	check := func(ok bool, format string, args ...any) {
		st.attempted++
		if !ok {
			st.fail(fmt.Errorf(format, args...))
		}
	}
	s, err := st.ctl.Stats()
	if err != nil {
		return err
	}
	wantDocs := st.or.baseDocs + int64(len(st.in.Puts))
	wantNodes := st.or.baseNodes + st.or.putNodes
	gone := map[string]bool{}
	for i, name := range st.in.Deletes {
		if deleted[i] {
			wantDocs--
			wantNodes -= st.or.nodes[name]
			gone[name] = true
		}
	}
	check(s.Documents == wantDocs, "reopened store has %d documents, want %d", s.Documents, wantDocs)
	check(s.Nodes == wantNodes, "reopened store has %d nodes, want %d", s.Nodes, wantNodes)
	check(s.Snapshot.Loaded, "reopen did not load the checkpoint snapshot")
	listing, err := st.ctl.DocIDs()
	if err != nil {
		return err
	}
	for _, set := range [][]netmark.Doc{st.in.Preload, st.in.Puts} {
		for _, d := range set {
			_, listed := listing[d.Name]
			check(listed != gone[d.Name], "document %s: listed=%v, deleted=%v", d.Name, listed, gone[d.Name])
		}
	}
	var live []uint64
	for name, id := range listing {
		if !gone[name] {
			live = append(live, id)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	rng := rand.New(rand.NewSource(st.o.Seed ^ 0x766572))
	for i := 0; i < docSamples && len(live) > 0; i++ {
		id := live[rng.Intn(len(live))]
		status, size, err := st.ctl.GetDoc(id)
		check(err == nil && status == 200 && size > 0, "GET /doc/%d: status %d: %v", id, status, err)
	}
	for i, id := range ids {
		if deleted[i] {
			status, _, err := st.ctl.GetDoc(id)
			check(err == nil && status == 404, "GET deleted /doc/%d: status %d: %v", id, status, err)
		}
	}
	return nil
}

// cycle is what one set-up-to-verification pass observed.  Run pools
// the cycles of a run with merge.
type cycle struct {
	tally
	invalid []string // run-validity guards that tripped
	in      Inputs
	flags   []string // netmarkd's flags

	setupS, reopenS, memMB, walRatio, diskRatio Samples
	// Raw samples, for tails and per-layer medians.
	latMs, sizes, lateMs, lagMs, deleteMs Samples
	// windowS is the total length of the query windows; putBytes and
	// putS the user bytes PUT and the seconds until they were visible.
	windowS, putBytes, putS float64
	overruns                int
	// layer holds the /stats-derived per-layer metrics.
	layer map[string]float64
}

// merge pools another cycle's observations into a.
func (a *cycle) merge(c *cycle) {
	a.tally.add(c.tally)
	a.invalid = append(a.invalid, c.invalid...)
	a.overruns += c.overruns
	for _, p := range []struct{ dst, src *Samples }{
		{&a.setupS, &c.setupS}, {&a.reopenS, &c.reopenS}, {&a.memMB, &c.memMB},
		{&a.walRatio, &c.walRatio}, {&a.diskRatio, &c.diskRatio},
		{&a.latMs, &c.latMs}, {&a.sizes, &c.sizes}, {&a.lateMs, &c.lateMs},
		{&a.lagMs, &c.lagMs}, {&a.deleteMs, &c.deleteMs},
	} {
		*p.dst = append(*p.dst, *p.src...)
	}
	a.windowS += c.windowS
	a.putBytes += c.putBytes
	a.putS += c.putS
}

// reopensPerCycle is how many times a cycle restarts netmarkd on the
// store it has just closed.
const reopensPerCycle = 2

// runCycle is one full pass: set-up, the workload's measured phases, a
// clean shutdown, restarts on the closed store, verification.
func runCycle(w *Workload, o Options, n int, or *oracle) (*cycle, error) {
	c := &cycle{}
	invalid := func(format string, args ...any) {
		c.invalid = append(c.invalid, fmt.Sprintf(format, args...))
	}
	stop := func(child *Child) {
		if !child.Stop() {
			invalid("netmarkd did not exit cleanly after SIGTERM: %s", child.Output())
		}
	}
	start := time.Now()
	st, err := setup(w, o, n, or)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	c.setupS = Samples{time.Since(start).Seconds()}
	c.in, c.flags = st.in, st.child.Flags

	// Measured phases.
	var q queryResult
	var wr writeResult
	base := st.warm.DocsIngested
	qdur := time.Duration(w.QueryShare * o.Seconds * float64(time.Second))
	var ids []uint64 // of the delete targets
	switch {
	case w.Concurrent:
		if ids, err = st.resolve(); err != nil {
			return nil, errors.Join(err, st.abandon())
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wr = st.writeOpen(st.conns[1], ids, base)
		}()
		q = st.runQueries(st.conns[:1], qdur)
		<-done
	case w.QueryFirst:
		q = st.runQueries(st.conns, qdur)
		wr = st.putClosed(base)
	default:
		wr = st.putClosed(base)
		q = st.runQueries(st.conns, qdur)
	}
	if !w.Concurrent {
		if ids, err = st.resolve(); err != nil {
			return nil, errors.Join(err, st.abandon())
		}
		st.deleteClosed(&wr, ids)
	}
	final, err := st.ctl.Stats()
	if err = errors.Join(err, q.statsErr); err != nil {
		return nil, errors.Join(err, st.abandon())
	}
	walEnd := st.walSize()
	mem, err := st.child.VmHWM()
	if err != nil {
		return nil, errors.Join(err, st.abandon())
	}
	st.closeConns()
	stop(st.child)
	disk, err := DirBytes(st.dir)
	if err != nil {
		return nil, err
	}

	// Restarts on the closed store; the last child stays up for the
	// verification.
	for i := 0; i < reopensPerCycle; i++ {
		if st.child, err = StartChild(o.Netmarkd, st.dir, runtime.NumCPU(), st.flags()...); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		c.reopenS = append(c.reopenS, st.child.Ready.Seconds())
		if i < reopensPerCycle-1 {
			stop(st.child)
		}
	}
	st.ctl = NewConn(st.child.Base)
	err = st.verify(ids, wr.deleted)
	st.ctl.Close()
	stop(st.child)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, d := range []string{st.dir, st.drop} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}

	c.tally.add(st.tally)
	c.tally.add(q.tally)
	c.tally.add(wr.tally)
	c.latMs, c.sizes, c.windowS = q.latMs, q.sizes, q.seconds
	c.lagMs, c.deleteMs, c.overruns = wr.lagMs, wr.deleteMs, wr.overruns
	c.putBytes, c.putS = float64(wr.userBytes), wr.seconds
	c.lateMs = q.lateMs
	if w.Concurrent {
		c.lateMs = wr.lateMs
	}
	c.memMB = Samples{mem}
	c.walRatio = Samples{per(float64(wr.walBytes), float64(wr.userBytes))}
	c.diskRatio = Samples{per(float64(disk), float64(UserBytes(st.in.Preload)+wr.userBytes))}

	// Per-layer, from outside: counters over the whole measured span,
	// cache behaviour over the query window alone.
	c.layer = StatsDelta(st.warm, final)
	window := StatsDelta(q.before, q.after)
	for _, name := range []string{
		"xdb.cache_hit_ratio", "xdb.cache_stale", "xdb.cache_evictions", "xdb.cache_coalesced",
		"xmlstore.nodecache_hit_ratio", "xmlstore.nodecache_evictions",
	} {
		c.layer[name] = window[name]
	}
	lookups := q.after.NodeCache.Hits + q.after.NodeCache.Misses - q.before.NodeCache.Hits - q.before.NodeCache.Misses
	c.layer["xmlstore.nodes_per_section"] = per(float64(lookups), float64(q.items))
	c.layer["ordbms.wal_bytes_per_append"] = per(float64(walEnd), float64(final.WAL.Appends-st.warm.WAL.Appends))

	// Run-validity guards.
	if m := c.layer["ordbms.pool_misses"]; m != 0 {
		invalid("ordbms.pool_misses = %v over the measured phases: the heap left the buffer pool", m)
	}
	if r := c.layer["xdb.cache_hit_ratio"]; r < w.MinHitRatio {
		invalid("xdb.cache_hit_ratio = %.4f on %s, want >= %v", r, w.Name, w.MinHitRatio)
	}
	if w.WantEvictions && o.Scale >= 1 && c.layer["xmlstore.nodecache_evictions"] == 0 {
		invalid("no node-cache evictions on %s: the corpus fits the node cache", w.Name)
	}
	return c, nil
}
