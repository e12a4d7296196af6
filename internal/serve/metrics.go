package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/power"
)

// histBuckets is the bucket count of the latency histograms: bucket i
// counts observations with ceil(log2(µs)) == i, so the range spans 1 µs to
// ~2⁴⁸ µs with one atomic increment per observation and no allocation.
const histBuckets = 48

// Histogram is a lock-free log₂-bucketed latency histogram. Quantiles are
// answered from the bucket counts as the upper bound of the covering
// bucket — a ≤2× overestimate by construction, which is the right
// direction for an SLO readout and costs nothing on the hot path.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumUs   atomic.Int64
}

// bucketOf maps a microsecond latency to its bucket index.
func bucketOf(us int64) int {
	if us < 1 {
		us = 1
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.buckets[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
}

// quantileUs returns the q-quantile in microseconds (upper bucket bound).
func (h *Histogram) quantileUs(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return int64(1) << uint(i+1) // upper bound of bucket i
		}
	}
	return int64(1) << histBuckets
}

// HistogramStats is one endpoint's latency summary in /metrics.
type HistogramStats struct {
	// Count is the number of requests observed; MeanUs their mean latency.
	Count  int64   `json:"count"`
	MeanUs float64 `json:"meanUs"`
	// P50Us and P99Us are bucketed quantiles (upper bucket bounds).
	P50Us int64 `json:"p50Us"`
	P99Us int64 `json:"p99Us"`
}

// Stats summarizes the histogram.
func (h *Histogram) Stats() HistogramStats {
	st := HistogramStats{Count: h.count.Load(), P50Us: h.quantileUs(0.50), P99Us: h.quantileUs(0.99)}
	if st.Count > 0 {
		st.MeanUs = float64(h.sumUs.Load()) / float64(st.Count)
	}
	return st
}

// Metrics aggregates the daemon's observability state: one latency
// histogram per endpoint family, the route/stretch query counters, and
// whatever the pool and store report at snapshot time.
type Metrics struct {
	start time.Time
	// Route, Stretch, Coverage, Lifetime and Snapshots are the per-endpoint
	// latency histograms.
	Route     Histogram
	Stretch   Histogram
	Coverage  Histogram
	Lifetime  Histogram
	Snapshots Histogram

	// queries and pairs count the route/stretch measurements run and the
	// pairs they carried.
	queries atomic.Int64
	pairs   atomic.Int64
}

// countQuery records one route/stretch measurement over npairs pairs.
func (m *Metrics) countQuery(npairs int) {
	m.queries.Add(1)
	m.pairs.Add(int64(npairs))
}

// BatcherStats is the query-counter readout served by /metrics under
// "batcher". Each route/stretch query is measured on its own, so one query
// is one measurement: Flushes equals Queries, MultiQueryFlushes stays 0,
// and MaxOccupancy and QueriesPerFlush are 1 once any query has run.
type BatcherStats struct {
	// Flushes counts measurements run; Queries and Pairs count what they
	// carried.
	Flushes int64 `json:"flushes"`
	Queries int64 `json:"queries"`
	Pairs   int64 `json:"pairs"`
	// MultiQueryFlushes counts measurements shared by ≥ 2 queries;
	// MaxOccupancy is the most queries one measurement carried.
	MultiQueryFlushes int64 `json:"multiQueryFlushes"`
	MaxOccupancy      int64 `json:"maxOccupancy"`
	// QueriesPerFlush is the mean occupancy (0 when nothing ran).
	QueriesPerFlush float64 `json:"queriesPerFlush"`
}

// batcherStats reads the query counters.
func (m *Metrics) batcherStats() BatcherStats {
	q := m.queries.Load()
	st := BatcherStats{Flushes: q, Queries: q, Pairs: m.pairs.Load()}
	if q > 0 {
		st.MaxOccupancy, st.QueriesPerFlush = 1, 1
	}
	return st
}

// NewMetrics returns a metrics registry anchored at now.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	// UptimeMs is the time since daemon start.
	UptimeMs int64 `json:"uptimeMs"`
	// Endpoints maps endpoint family → latency summary (encoding/json
	// sorts the keys, so the body is deterministic).
	Endpoints map[string]HistogramStats `json:"endpoints"`
	// Batcher carries the route/stretch query counters; Pool the worker
	// pool state.
	Batcher BatcherStats `json:"batcher"`
	Pool    PoolStats    `json:"pool"`
	// SnapshotCount is the number of live snapshots; the Slab* fields sum
	// their weight-slab cache counters, and Caches lists each snapshot's
	// counters, gateway rows included, in sorted-id order.
	SnapshotCount int                  `json:"snapshotCount"`
	SlabHits      int64                `json:"slabHits"`
	SlabMisses    int64                `json:"slabMisses"`
	SlabEvictions int64                `json:"slabEvictions"`
	Caches        []SnapshotCacheStats `json:"caches"`
}

// SnapshotCacheStats is one live snapshot's slab-cache readout in
// /metrics: slab lookups, and the gateway rows its base slabs keep (see
// power.SlabCache). RowFills stays at most 2·|gateways| per base entry
// created (one distance and one power row per gateway) while RowHits grows
// with every gateway-sourced stretch group.
type SnapshotCacheStats struct {
	ID string `json:"id"`
	power.SlabCacheStats
}

// Snapshot collects the current metrics across all subsystems.
func (m *Metrics) Snapshot(p *Pool, st *Store) MetricsSnapshot {
	ms := MetricsSnapshot{
		UptimeMs: time.Since(m.start).Milliseconds(),
		Endpoints: map[string]HistogramStats{
			"route":     m.Route.Stats(),
			"stretch":   m.Stretch.Stats(),
			"coverage":  m.Coverage.Stats(),
			"lifetime":  m.Lifetime.Stats(),
			"snapshots": m.Snapshots.Stats(),
		},
		Batcher:       m.batcherStats(),
		Pool:          p.Stats(),
		SnapshotCount: st.Len(),
	}
	for _, s := range st.List() {
		c := s.SlabStats()
		ms.SlabHits += c.Hits
		ms.SlabMisses += c.Misses
		ms.SlabEvictions += c.Evictions
		ms.Caches = append(ms.Caches, SnapshotCacheStats{ID: s.Info.ID, SlabCacheStats: c})
	}
	return ms
}
