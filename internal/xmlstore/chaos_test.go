package xmlstore

import (
	"fmt"
	"testing"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/vfs"
)

// This file is the chaos suite the degraded-mode work is judged by:
// randomized fault schedules (vfs.RandomSchedule) crossed with the
// crash matrix.  The invariant under every schedule and crash timing is
// binary — each ingest either commits durably and stays readable
// byte-for-byte, or reports an error; never a phantom ack, never
// corruption of what was acked.

// chaosDoc builds a small but non-trivial document whose reconstruction
// exercises headings, paragraphs and attributes.
func chaosDoc(i int) (string, []byte) {
	name := fmt.Sprintf("doc-%03d.html", i)
	data := []byte(fmt.Sprintf(
		`<html><head><title>Chaos %d</title></head><body><h1>Doc %d</h1><p>payload %d with enough text to shred into sections</p></body></html>`,
		i, i, i))
	return name, data
}

// reconstructBytes reads a document back through the full reconstruction
// path and serialises it, so comparisons are byte-for-byte.
func reconstructBytes(t *testing.T, s *Store, name string) string {
	t.Helper()
	info, err := s.DocumentByName(name)
	if err != nil {
		t.Fatalf("acked document %s not found: %v", name, err)
	}
	tree, err := s.Reconstruct(info.DocID)
	if err != nil {
		t.Fatalf("acked document %s not reconstructable: %v", name, err)
	}
	return sgml.Serialize(tree)
}

// TestChaosRandomFaultSchedules runs the binary-outcome invariant over
// deterministic pseudo-random fault schedules.  Even seeds heal the
// store live (clear faults, checkpoint, verify write service returns)
// before crashing; odd seeds crash while still degraded — crossing the
// schedules with both crash timings.
func TestChaosRandomFaultSchedules(t *testing.T) {
	const nDocs = 25
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range vfs.RandomSchedule(seed, 4) {
				ffs.AddRule(r)
			}

			// Ingest under fire.  acked maps name -> the serialised
			// reconstruction captured at ack time.
			acked := make(map[string]string)
			errored := 0
			for i := 0; i < nDocs; i++ {
				name, data := chaosDoc(i)
				_, err := s.StoreRaw(name, data)
				if err == nil {
					err = db.Commit()
				}
				if err != nil {
					// Reported error: the one legal non-ack outcome.  An
					// I/O-rooted failure must be visibly transient or have
					// degraded the store — never a silent classification.
					errored++
					if !IsTransient(err) && ordbms.IsIOFault(err) {
						t.Fatalf("I/O failure not classified transient: %v", err)
					}
					continue
				}
				// Acked: must be readable right now, and we remember the
				// exact bytes the reopen must reproduce.
				acked[name] = reconstructBytes(t, s, name)
			}
			t.Logf("seed %d: %d acked, %d errored, %d faults injected",
				seed, len(acked), errored, ffs.Injected())

			// While degraded, writes refuse fast and reads keep serving.
			if s.Health().Degraded {
				if _, err := s.StoreRaw("refused.html", []byte("<x/>")); !IsDegraded(err) {
					t.Fatalf("write while degraded = %v, want ErrDegraded", err)
				}
				for name, want := range acked {
					if got := reconstructBytes(t, s, name); got != want {
						t.Fatalf("degraded read of %s differs from acked bytes", name)
					}
				}
			}

			if seed%2 == 0 {
				// Live heal: faults clear, a successful checkpoint restores
				// write service without a restart.
				ffs.ClearFaults()
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("healing checkpoint: %v", err)
				}
				if s.Health().Degraded {
					t.Fatal("degraded flag survived a successful checkpoint")
				}
				name, data := chaosDoc(1000)
				if _, err := s.StoreRaw(name, data); err != nil {
					t.Fatalf("ingest after heal: %v", err)
				}
				if err := db.Commit(); err != nil {
					t.Fatalf("commit after heal: %v", err)
				}
				acked[name] = reconstructBytes(t, s, name)
			}
			db.CloseDiscard() // crash (while degraded, for odd seeds)

			// Reopen on a healthy filesystem: every acked document must be
			// there, byte-identical to its acked reconstruction.
			db2, err := ordbms.Open(ordbms.Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after chaos: %v", err)
			}
			s2, err := Open(db2)
			if err != nil {
				t.Fatalf("store reopen after chaos: %v", err)
			}
			if s2.Health().Degraded {
				t.Fatal("fresh open started degraded")
			}
			for name, want := range acked {
				if got := reconstructBytes(t, s2, name); got != want {
					t.Fatalf("%s not byte-identical after reopen", name)
				}
			}
			// Write service is fully back.
			name, data := chaosDoc(2000)
			if _, err := s2.StoreRaw(name, data); err != nil {
				t.Fatalf("ingest after reopen: %v", err)
			}
			if err := db2.Commit(); err != nil {
				t.Fatalf("commit after reopen: %v", err)
			}
			post := reconstructBytes(t, s2, name)
			db2.CloseDiscard() // crash again

			// One more reopen: the post-recovery ingest survived too.
			db3, err := ordbms.Open(ordbms.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			s3, err := Open(db3)
			if err != nil {
				t.Fatal(err)
			}
			if got := reconstructBytes(t, s3, name); got != post {
				t.Fatalf("post-recovery ingest lost or corrupted")
			}
			for name, want := range acked {
				if got := reconstructBytes(t, s3, name); got != want {
					t.Fatalf("%s corrupted by second crash/reopen", name)
				}
			}
			db3.CloseDiscard()
		})
	}
}

// TestChaosByteBudget drives ingestion into a shrinking ENOSPC budget —
// the full-disk trajectory rather than point faults — and asserts the
// same binary outcome plus clean recovery once space returns.
func TestChaosByteBudget(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	db, err := ordbms.Open(ordbms.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]string)
	errored := 0
	store := func(i int) {
		name, data := chaosDoc(i)
		_, err := s.StoreRaw(name, data)
		if err == nil {
			err = db.Commit()
		}
		if err != nil {
			errored++
			return
		}
		acked[name] = reconstructBytes(t, s, name)
	}
	// The budget follows the log format: measure what a document costs the
	// log's file, then leave room for about twenty more before the disk
	// fills.  The log deflates what it writes, so the first documents,
	// which start its stream and carry the first use of every tag, cost
	// more than the ones after: they are stored before measuring.
	const warm, measured = 2, 2
	for i := 0; i < warm; i++ {
		store(i)
	}
	before := db.WALFileBytes()
	for i := warm; i < warm+measured; i++ {
		store(i)
	}
	after := db.WALFileBytes()
	ffs.SetBytesBudget(int64(after-before) / measured * 20)
	for i := warm + measured; i < 40; i++ {
		store(i)
	}
	if errored == 0 {
		t.Fatal("budget never exhausted — test proves nothing")
	}
	if len(acked) == 0 {
		t.Fatal("nothing acked before exhaustion — budget too small")
	}
	db.CloseDiscard() // crash with the disk full

	db2, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after full disk: %v", err)
	}
	s2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range acked {
		if got := reconstructBytes(t, s2, name); got != want {
			t.Fatalf("%s not byte-identical after full-disk crash", name)
		}
	}
	name, data := chaosDoc(999)
	if _, err := s2.StoreRaw(name, data); err != nil {
		t.Fatalf("ingest after space returned: %v", err)
	}
	if err := db2.Commit(); err != nil {
		t.Fatalf("commit after space returned: %v", err)
	}
	db2.CloseDiscard()
}

// A read that has to make room writes a dirty page back; when the device
// refuses that write the store degrades exactly as if a mutation had hit
// it — the read reports the fault, health says degraded, and the next
// ingest is refused with ErrDegraded rather than writing on.
func TestEvictionFaultDuringReadDegrades(t *testing.T) {
	const poolPages = 8
	ffs := vfs.NewFaultFS(nil)
	db, err := ordbms.Open(ordbms.Options{Dir: t.TempDir(), FS: ffs, PoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDiscard()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest until the first document's pages have left the pool: every
	// page still in it was written since and is dirty.
	first := longDoc("first.html", 20, "early")
	firstID, err := s.StoreRaw(first.Name, first.Data)
	if err != nil {
		t.Fatal(err)
	}
	firstRoot := docRowIDs(t, s, firstID)[0]
	for i := 0; ; i++ {
		if pages, _ := db.HeapStats(); pages >= 3*poolPages {
			break
		}
		d := longDoc(fmt.Sprintf("fill-%d.html", i), 20, "filler")
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	// A cold node cache: the walk above published the root's page image,
	// and the read must go to the pool.
	s.EnableNodeCache(DefaultNodeCacheBytes)
	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: "data.nmdb"})
	if _, err := s.FetchNode(firstRoot); !ordbms.IsIOFault(err) {
		t.Fatalf("FetchNode that must evict a dirty page under a failing data file = %v, want an I/O fault", err)
	}
	if h := s.Health(); !h.Degraded {
		t.Fatalf("health after a failed write-back = %+v, want degraded", h)
	}
	if _, err := s.StoreRaw("refused.html", []byte("<html><body><p>x</p></body></html>")); !IsDegraded(err) {
		t.Fatalf("ingest after a failed write-back = %v, want ErrDegraded", err)
	}
}
