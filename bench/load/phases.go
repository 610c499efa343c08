package load

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// queryResult is what a closed-loop query phase observed inside its
// measurement window.
type queryResult struct {
	tally
	latMs    Samples
	sizes    Samples
	lateMs   Samples // completion of one request to the send of the next
	items    int     // result items returned by verified responses
	seconds  float64
	before   ServerStats
	after    ServerStats
	statsErr error
}

// runQueries drives a closed loop on conns: each client sends its next
// query only when the previous answer has been read and checked, because
// the paper's clients (browsers, applications, databank sources) wait
// for a reply.  The loop runs rampUp before the window opens and dur
// after.  /stats is read on the control connection at both window edges
// while the clients keep running.
func (st *state) runQueries(conns []*Conn, dur time.Duration) queryResult {
	type sample struct {
		at   time.Time
		lat  time.Duration
		gap  time.Duration
		size int
		idx  int
		err  error
	}
	var (
		wg      sync.WaitGroup
		quit    = make(chan struct{})
		perConn = make([][]sample, len(conns))
	)
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			draw := st.w.Drawer(st.o.Seed, c, len(st.in.Pool))
			last := time.Now()
			for {
				select {
				case <-quit:
					return
				default:
				}
				idx := draw()
				gap := time.Since(last)
				lat, size, err := conns[c].Query(&st.in.Pool[idx])
				last = time.Now()
				perConn[c] = append(perConn[c], sample{last, lat, gap, size, idx, err})
			}
		}(c)
	}
	var r queryResult
	time.Sleep(rampUp)
	open := time.Now()
	r.before, r.statsErr = st.ctl.Stats()
	time.Sleep(dur)
	var err error
	r.after, err = st.ctl.Stats()
	shut := time.Now()
	close(quit)
	wg.Wait()
	r.statsErr = errors.Join(r.statsErr, err)
	r.seconds = shut.Sub(open).Seconds()
	for _, samples := range perConn {
		for _, s := range samples {
			if s.at.Before(open) || !s.at.Before(shut) {
				continue
			}
			r.attempted++
			if s.err != nil {
				r.fail(s.err)
				continue
			}
			r.items += st.in.Pool[s.idx].Want
			r.latMs = append(r.latMs, ms(s.lat))
			r.sizes = append(r.sizes, float64(s.size))
			r.lateMs = append(r.lateMs, ms(s.gap))
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// obs is one control-connection reading of docs_ingested.
type obs struct {
	at       time.Time
	ingested uint64
}

// watcher polls /stats on the control connection for the length of a
// write phase, so that PUT acknowledgements can be paired with the
// moment netmarkd counted the document.
type watcher struct {
	stop   chan struct{}
	done   chan struct{}
	latest atomic.Uint64
	seen   []obs // owned by the goroutine until done is closed
}

func (st *state) startWatch() *watcher {
	w := &watcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			if s, err := st.ctl.Stats(); err == nil {
				w.seen = append(w.seen, obs{time.Now(), s.DocsIngested})
				w.latest.Store(s.DocsIngested)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// waitFor blocks until a reading shows at least want documents, stops
// the watcher, and returns the readings and the time of that reading
// (zero if visibleWait ran out first).
func (w *watcher) waitFor(want uint64) ([]obs, time.Time) {
	deadline := time.Now().Add(visibleWait)
	for w.latest.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(w.stop)
	<-w.done
	for _, o := range w.seen {
		if o.ingested >= want {
			return w.seen, o.at
		}
	}
	return w.seen, time.Time{}
}

// writeResult is what a write phase observed.
type writeResult struct {
	tally
	deleted   []bool // by delete target: its DELETE was acknowledged
	deleteMs  Samples
	lateMs    Samples // open loop only: due time to actual send, generator idle
	overruns  int     // open loop only: ticks that found the previous one still running
	lagMs     Samples // PUT ack to counted in docs_ingested
	userBytes int64
	seconds   float64 // first PUT sent until the last document is visible
	walBytes  int64   // wal.nmlog when the last document is visible
}

// lags pairs the k-th acknowledged PUT with the first reading that
// counted at least k new documents.
func lags(acks []time.Time, seen []obs, base uint64) Samples {
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	var out Samples
	j := 0
	for k, ack := range acks {
		for j < len(seen) && seen[j].ingested < base+uint64(k)+1 {
			j++
		}
		if j == len(seen) {
			break
		}
		if d := seen[j].at.Sub(ack); d > 0 {
			out = append(out, ms(d))
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// putClosed uploads the PUT set as fast as the connections allow, then
// waits until netmarkd's daemon has ingested every document.
func (st *state) putClosed(base uint64) writeResult {
	var r writeResult
	docs := st.in.Puts
	watch := st.startWatch()
	type ack struct {
		at   time.Time
		size int
		err  error
	}
	acks := make([][]ack, len(st.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range st.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(docs); i += len(st.conns) {
				_, err := st.conns[c].Put(docs[i].Name, docs[i].Data)
				acks[c] = append(acks[c], ack{time.Now(), len(docs[i].Data), err})
			}
		}(c)
	}
	wg.Wait()
	var ackTimes []time.Time
	for _, as := range acks {
		for _, a := range as {
			r.attempted++
			if a.err != nil {
				r.fail(a.err)
				continue
			}
			r.userBytes += int64(a.size)
			ackTimes = append(ackTimes, a.at)
		}
	}
	seen, reached := watch.waitFor(base + uint64(len(ackTimes)))
	st.finishWrite(&r, start, reached, ackTimes, seen, base)
	return r
}

// finishWrite records the write phase's elapsed time, WAL size and
// visibility lags; documents that never became visible are failures.
func (st *state) finishWrite(r *writeResult, start, reached time.Time, acks []time.Time, seen []obs, base uint64) {
	if reached.IsZero() {
		reached = time.Now()
		r.attempted++
		r.fail(fmt.Errorf("PUT documents not all ingested after %v", visibleWait))
	}
	r.seconds = reached.Sub(start).Seconds()
	r.walBytes = st.walSize()
	r.lagMs = lags(acks, seen, base)
}

// walSize is the size of the child's wal.nmlog.  netmarkd checkpoints
// only at open and close, so while it runs this is the WAL bytes it has
// written.
func (st *state) walSize() int64 {
	info, err := os.Stat(filepath.Join(st.dir, "wal.nmlog"))
	if err != nil {
		return 0
	}
	return info.Size()
}

// deleteClosed deletes the targets one after another on one connection.
func (st *state) deleteClosed(r *writeResult, ids []uint64) {
	r.deleted = make([]bool, len(ids))
	for i, id := range ids {
		r.attempted++
		lat, err := st.conns[0].Delete(id)
		if err != nil {
			r.fail(err)
			continue
		}
		r.deleted[i] = true
		r.deleteMs = append(r.deleteMs, ms(lat))
	}
}

// Pacer walks an open-loop schedule.  Each tick's due time is the
// previous due time plus the gap, never the previous completion, so
// slow work makes later ticks late instead of thinning the load.
type Pacer struct {
	due   time.Time
	gaps  []float64
	now   func() time.Time
	sleep func(time.Duration)
}

// NewPacer starts a schedule of gaps (seconds) at start.
func NewPacer(start time.Time, gaps []float64) *Pacer {
	return &Pacer{due: start, gaps: gaps, now: time.Now, sleep: time.Sleep}
}

// Next waits for the next tick and returns its due time and how long
// after it the tick starts; ok is false when the schedule is over.
// idle says the generator was waiting for the due time, so that late is
// its own wake-up delay; otherwise the previous tick's work overran and
// late is backlog, which the operations' due-time latencies carry.
func (p *Pacer) Next() (due time.Time, late time.Duration, idle, ok bool) {
	if len(p.gaps) == 0 {
		return time.Time{}, 0, false, false
	}
	p.due = p.due.Add(time.Duration(p.gaps[0] * float64(time.Second)))
	p.gaps = p.gaps[1:]
	if d := p.due.Sub(p.now()); d > 0 {
		idle = true
		p.sleep(d)
	}
	if late = p.now().Sub(p.due); late < 0 {
		late = 0
	}
	return p.due, late, idle, true
}

// writeOpen is the open-loop writer: ticks fall due on the seeded
// schedule whether or not the previous tick's work is done, and every
// operation is timed from its tick's due time, so a stall is charged to
// the operations that waited behind it.  Each tick deletes one
// preloaded document and PUTs tickPuts new ones.
func (st *state) writeOpen(conn *Conn, ids []uint64, base uint64) writeResult {
	r := writeResult{deleted: make([]bool, len(ids))}
	watch := st.startWatch()
	var acks []time.Time
	start := time.Now()
	pacer := NewPacer(start, st.in.Gaps)
	puts := st.in.Puts
	for tick := 0; ; tick++ {
		due, late, idle, ok := pacer.Next()
		if !ok {
			break
		}
		if idle {
			r.lateMs = append(r.lateMs, ms(late))
		} else {
			r.overruns++
		}
		if tick < len(ids) {
			r.attempted++
			if _, err := conn.Delete(ids[tick]); err != nil {
				r.fail(err)
			} else {
				r.deleted[tick] = true
				r.deleteMs = append(r.deleteMs, ms(time.Since(due)))
			}
		}
		for i := 0; i < tickPuts && len(puts) > 0; i++ {
			d := puts[0]
			puts = puts[1:]
			r.attempted++
			if _, err := conn.Put(d.Name, d.Data); err != nil {
				r.fail(err)
				continue
			}
			r.userBytes += int64(len(d.Data))
			acks = append(acks, time.Now())
		}
	}
	// What the PUT set holds beyond the ticks' share rides behind the
	// last tick.
	for _, d := range puts {
		r.attempted++
		if _, err := conn.Put(d.Name, d.Data); err != nil {
			r.fail(err)
			continue
		}
		r.userBytes += int64(len(d.Data))
		acks = append(acks, time.Now())
	}
	seen, reached := watch.waitFor(base + uint64(len(acks)))
	st.finishWrite(&r, start, reached, acks, seen, base)
	return r
}
