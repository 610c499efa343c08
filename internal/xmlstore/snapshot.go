package xmlstore

// The derived-index snapshot makes reopening a large store O(1) in
// corpus size.  On every DB.Checkpoint (and therefore on Close) the
// store serialises everything rebuildDerived would otherwise reconstruct
// by walking every document — the posting lists of the text index and
// of the heading index, and the counters — into a file
// written inside the checkpoint critical section.  The indexes' term
// generations, which result caches key on, are not part of it: they are
// process-local, their only reader is a cache that is empty after a
// restart, so a loaded term simply starts over at 1.
//
// The engine frames, deflates, stamps and validates the file
// (ordbms.CheckpointInfo.WriteSnapshotFile, DB.ReadSnapshotFile): it is
// loaded only when it was written by the very checkpoint this open
// started from.  Anything else — a crash at any step of the checkpoint
// sequence, mutations after the checkpoint, corruption, version skew, the
// ablation flag — falls back to the derived rebuild, which walks each
// document DOC lists from its root and indexes it with the code ingest
// runs; the tables remain the source of truth.  The snapshot is an
// accelerator, never an authority.

import (
	"encoding/binary"
	"fmt"

	"netmark/internal/ordbms"
	"netmark/internal/textindex"
)

const (
	snapshotName = "xmlstore.nmsnap"
	// snapshotVersion 2 switched the embedded text index to the
	// block-compressed posting-list codec AND changed the tokenizer
	// (combining marks, CJK script boundaries); 3 stopped persisting the
	// cache-key generations; 4 dropped the node-ID counter along with the
	// node IDs; 5 writes each node→CONTEXT entry's heading as a delta from
	// the previous entry's; 6 drops the text index's token positions and
	// writes each heading's rids as deltas; 7 posts a folded heading's
	// words under its CONTEXT, which has no node→CONTEXT entry, instead of
	// under a text child; 8 posts every word under its section's key row
	// and drops the node→CONTEXT entries; 9 writes the headings as a
	// second text index, in its codec.  Any other version — older or
	// newer — falls back to the derived rebuild, which retokenizes every
	// document under the current contract; loading a v1 file's postings
	// verbatim would permanently serve old-tokenizer terms against
	// new-tokenizer queries.  The next checkpoint rewrites the file at the
	// current version, so the penalty is one slow reopen.
	snapshotVersion = 9
)

var snapshotMagic = [8]byte{'N', 'M', 'X', 'S', 'N', 'P', '1', 0}

// SnapshotStats reports the derived-snapshot lifecycle for /stats.
type SnapshotStats struct {
	// Enabled is true when the store participates in snapshotting (a
	// persistent store without the ablation flag).
	Enabled bool
	// Loaded is true when this Open was served by a valid snapshot
	// instead of the document-by-document rebuild.
	Loaded bool
	// Fallback names why the snapshot was not used ("" when Loaded):
	// "missing", "unreadable", "corrupt", "version" or "stale".
	Fallback string
	// Saves and SaveErrors count snapshot writes since this Open.
	Saves      uint64
	SaveErrors uint64
}

// SnapshotStats returns the snapshot lifecycle counters.
func (s *Store) SnapshotStats() SnapshotStats {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapStat
}

// snapshotHook runs inside the engine's checkpoint critical section:
// every dirty page is already flushed and the stamps in ci are the ones
// the checkpoint is about to commit.  Holding ckptMu for writing excludes
// every mutation path across its whole table+derived-index span, so the
// serialised state never captures a document between its rows landing
// and its index entries landing.
func (s *Store) snapshotHook(ci ordbms.CheckpointInfo) error {
	s.ckptMu.Lock()
	payload := s.encodeSnapshot()
	s.ckptMu.Unlock()

	err := ci.WriteSnapshotFile(snapshotName, snapshotMagic, snapshotVersion, payload)
	s.snapMu.Lock()
	if err != nil {
		s.snapStat.SaveErrors++
	} else {
		s.snapStat.Saves++
	}
	s.snapMu.Unlock()
	return err
}

// encodeSnapshot serialises the derived state.  Caller holds ckptMu for
// writing; the per-structure locks are still taken so readers (queries
// never touch ckptMu) stay race-free.
//
// netmarkvet:snap-encode
func (s *Store) encodeSnapshot() []byte {
	buf := make([]byte, 0, 1<<16)

	buf = binary.AppendUvarint(buf, s.nextDocID.Load())
	buf = binary.AppendUvarint(buf, s.docsIngested.Load())
	buf = binary.AppendUvarint(buf, s.nodesInserted.Load())

	buf = s.content.AppendSnapshot(buf)
	return s.headings.AppendSnapshot(buf)
}

// loadSnapshot applies the snapshot when the engine vouches for it.  It
// reports ok=false with a reason (never an error — a bad snapshot means
// the derived rebuild, not a failed open) unless the snapshot was fully
// applied.
// Called during Open, before the store is shared.
func (s *Store) loadSnapshot(db *ordbms.DB) (ok bool, reason string) {
	payload, reason := db.ReadSnapshotFile(snapshotName, snapshotMagic, snapshotVersion)
	if reason != "" {
		return false, reason
	}
	if err := s.applySnapshot(payload); err != nil {
		// The CRC passed, so this is version-skew territory; the scan
		// rebuild starts from the fresh structures applySnapshot left
		// untouched on failure.
		return false, "corrupt"
	}
	return true, ""
}

// applySnapshot decodes the payload into fresh structures and installs
// them only if the whole decode succeeds.  Runs during OpenWith, before
// the store is shared with any other goroutine.
//
// netmarkvet:snap-decode
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (s *Store) applySnapshot(p []byte) error {
	off := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return 0, fmt.Errorf("xmlstore: truncated snapshot at byte %d", off)
		}
		off += n
		return v, nil
	}
	nextDocID, err := uv()
	if err != nil {
		return err
	}
	docsIngested, err := uv()
	if err != nil {
		return err
	}
	nodesInserted, err := uv()
	if err != nil {
		return err
	}

	content, n, err := textindex.LoadSnapshot(p[off:])
	if err != nil {
		return err
	}
	off += n

	headings, n, err := textindex.LoadSnapshot(p[off:])
	if err != nil {
		return err
	}
	off += n

	if off != len(p) {
		return fmt.Errorf("xmlstore: %d trailing snapshot bytes", len(p)-off)
	}

	// Whole decode succeeded: install.
	s.nextDocID.Store(nextDocID)
	s.docsIngested.Store(docsIngested)
	s.nodesInserted.Store(nodesInserted)
	s.content = content
	s.headings = headings
	return nil
}
