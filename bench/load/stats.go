package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Samples is a set of measurements of one quantity (latencies in
// milliseconds, sizes in bytes).  Percentiles use the nearest-rank
// rule on a sorted copy, so every reported value is one that was
// actually observed.
type Samples []float64

// Percentile returns the p-th percentile (0 < p <= 100) by nearest
// rank, or 0 for an empty set.
func (s Samples) Percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(Samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Median is the 50th percentile.
func (s Samples) Median() float64 { return s.Percentile(50) }

// Sum adds the samples up.
func (s Samples) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// ServerStats is the subset of netmarkd's GET /stats payload the
// benchmark reads.  It is declared here, not imported from the server,
// so the wire format is what is checked.
type ServerStats struct {
	Documents    int64  `json:"documents"`
	Nodes        int64  `json:"nodes"`
	DocsIngested uint64 `json:"docs_ingested"`
	WAL          struct {
		Appends uint64 `json:"appends"`
		Syncs   uint64 `json:"syncs"`
	} `json:"wal"`
	Snapshot struct {
		Loaded bool `json:"loaded"`
	} `json:"snapshot"`
	Pool struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"pool"`
	Cache struct {
		Enabled   bool   `json:"enabled"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Evictions uint64 `json:"evictions"`
		Stale     uint64 `json:"stale"`
		Bytes     int64  `json:"bytes"`
	} `json:"cache"`
	NodeCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Bytes     int64  `json:"bytes"`
	} `json:"node_cache"`
	TextIndex struct {
		DeadIDs          int     `json:"dead_ids"`
		Bytes            int64   `json:"bytes"`
		CompressionRatio float64 `json:"compression_ratio"`
	} `json:"textindex"`
}

// ParseServerStats decodes a /stats body.
func ParseServerStats(r io.Reader) (ServerStats, error) {
	var st ServerStats
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return st, fmt.Errorf("parse /stats: %w", err)
	}
	return st, nil
}

// ratio is a/(a+b), or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// per is a/b, or 0 when b is 0.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// StatsDelta turns two /stats snapshots around a phase into the
// per-layer "stats" metrics.  Gauges (bytes, ratios kept by the server)
// are taken from the later snapshot; docs is the number of documents
// ingested between the two.
func StatsDelta(a, b ServerStats) map[string]float64 {
	docs := float64(b.DocsIngested - a.DocsIngested)
	appends := float64(b.WAL.Appends - a.WAL.Appends)
	syncs := float64(b.WAL.Syncs - a.WAL.Syncs)
	return map[string]float64{
		"xdb.cache_hit_ratio": ratio(b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses),
		"xdb.cache_stale":     float64(b.Cache.Stale - a.Cache.Stale),
		"xdb.cache_evictions": float64(b.Cache.Evictions - a.Cache.Evictions),
		"xdb.cache_coalesced": float64(b.Cache.Coalesced - a.Cache.Coalesced),
		"xdb.cache_bytes":     float64(b.Cache.Bytes),

		"xmlstore.nodecache_hit_ratio": ratio(b.NodeCache.Hits-a.NodeCache.Hits, b.NodeCache.Misses-a.NodeCache.Misses),
		"xmlstore.nodecache_evictions": float64(b.NodeCache.Evictions - a.NodeCache.Evictions),
		"xmlstore.nodecache_bytes":     float64(b.NodeCache.Bytes),

		"textindex.bytes":             float64(b.TextIndex.Bytes),
		"textindex.compression_ratio": b.TextIndex.CompressionRatio,
		"textindex.dead_ids":          float64(b.TextIndex.DeadIDs),

		"ordbms.pool_hit_ratio":       ratio(b.Pool.Hits-a.Pool.Hits, b.Pool.Misses-a.Pool.Misses),
		"ordbms.pool_misses":          float64(b.Pool.Misses - a.Pool.Misses),
		"ordbms.pool_evictions":       float64(b.Pool.Evictions - a.Pool.Evictions),
		"ordbms.wal_syncs":            syncs,
		"ordbms.wal_appends_per_doc":  per(appends, docs),
		"ordbms.wal_appends_per_sync": per(appends, syncs),
	}
}
