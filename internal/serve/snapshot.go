// Package serve implements the topology-as-a-service daemon behind
// cmd/sensnetd: a long-running HTTP/JSON service that holds immutable
// built-network snapshots (deployment + SENS/HNG CSR + weight slabs,
// identified by the scenario engine's content-shaped cache keys) and
// answers route, stretch, coverage and lifetime-summary queries against
// them.
//
// The production machinery is the point of the package:
//
//   - Snapshots are immutable after construction and reached through one
//     atomic table pointer, so the query hot path takes no locks — a reader
//     resolves the table once and can never observe a half-swapped state.
//   - Rollover is copy-on-write: POST /snapshots builds off the request
//     path's table, then atomically publishes a fresh table. Replaced
//     snapshots are retired and drain gracefully — in-flight queries hold
//     reference counts, and the last release makes the snapshot's memory
//     collectable.
//   - Route and stretch queries are batched (see Batcher): concurrent
//     queries against one (snapshot, β, base) group are answered by a
//     single buffered Dijkstra sweep per (source, weight) through
//     power.Measurer, exactly the amortization the E11/E14 experiment
//     pipeline uses.
//   - A bounded worker pool (Pool) backpressures with 429 + Retry-After
//     instead of queueing unboundedly; /healthz and /metrics expose latency
//     histograms and batch-occupancy counters.
package serve

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/power"
)

// SnapshotInfo is the JSON-facing summary of a snapshot — everything the
// coverage query and the snapshot listing report.
type SnapshotInfo struct {
	// ID is the short content digest (fnv64a of Key, hex) used in URLs.
	ID string `json:"id"`
	// Key is the full content-shaped identity: the scenario engine's cache
	// key scheme, a pure function of (kind, seed, stream, box, parameters).
	// Two snapshots with equal keys are byte-identical structures, which is
	// what makes POST /snapshots idempotent.
	Key string `json:"key"`
	// Kind names the construction ("udg-sens" or "hng").
	Kind string `json:"kind"`
	// Points counts the deployed nodes; Members the vertices of the served
	// structure (the SENS largest component, or every node for HNG).
	Points  int `json:"points"`
	Members int `json:"members"`
	// Edges and MaxDegree describe the serving graph.
	Edges     int `json:"edges"`
	MaxDegree int `json:"maxDegree"`
	// GoodFraction is the fraction of good tiles (0 for HNG, which has no
	// tile coupling); ActiveFraction is Members / Points.
	GoodFraction   float64 `json:"goodFraction"`
	ActiveFraction float64 `json:"activeFraction"`
	// HasBase reports whether the snapshot carries a base graph — the
	// prerequisite for stretch queries.
	HasBase bool `json:"hasBase"`
	// BuildMillis is the wall-clock build cost observed at POST time.
	BuildMillis float64 `json:"buildMillis"`
	// Current marks the snapshot queries resolve to when no id is given.
	Current bool `json:"current,omitempty"`
}

// Snapshot is one immutable built network held by the daemon. All fields
// are written once during Build and never mutated afterwards; the only
// mutable state is the reference count and the retired flag, both atomic.
// That immutability is the torn-read defense: a query that resolved a
// snapshot works against a frozen structure no rollover can alter.
type Snapshot struct {
	// Info is the static summary (Current is filled in per response).
	Info SnapshotInfo
	// Pts are the deployment positions (vertex index = position index).
	Pts []geom.Point
	// Graph is the served structure over all deployment points.
	Graph *graph.CSR
	// Base is the dense base graph stretch queries compare against (nil
	// when the snapshot was built without one).
	Base *graph.CSR
	// Members lists the queryable vertices — the load generator's candidate
	// set and the lifetime simulation's participant set.
	Members []int32
	// slabs memoizes the per-(graph, β) edge-weight slabs of this
	// snapshot's measurers, LRU-bounded so a snapshot queried at many β
	// values over a long uptime cannot grow without bound.
	slabs *power.SlabCache

	refs    atomic.Int64
	retired atomic.Bool
}

// acquire takes a drain reference; release drops it. Queries hold a
// reference for exactly the duration of their computation.
func (s *Snapshot) acquire() { s.refs.Add(1) }

func (s *Snapshot) release() { s.refs.Add(-1) }

// SlabStats exposes the snapshot's weight-slab cache counters (hits,
// misses, evictions) for /metrics.
func (s *Snapshot) SlabStats() power.SlabCacheStats { return s.slabs.Counters() }

// measurer builds the batched measurement engine for this snapshot at the
// given β, against the base graph when withBase is set. Warm calls cost
// O(1) allocations: the per-(graph, β) weight slabs come from the
// snapshot's LRU cache.
func (s *Snapshot) measurer(beta float64, withBase bool) *power.Measurer {
	base := s.Base
	if !withBase {
		base = nil
	}
	return power.NewMeasurerCached(s.Graph, base, s.Pts, power.BatchSpec{Beta: beta, Hops: true}, s.slabs)
}

// snapshotID derives the URL-safe snapshot id from the content-shaped key:
// the fnv64a digest in hex. The full key stays in SnapshotInfo.Key.
func snapshotID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store holds the daemon's snapshot set behind one atomic pointer to an
// immutable table. Readers (the query path) do a single atomic load and
// then work on a frozen map — no locks, no torn state. Writers (snapshot
// add / retire / activate) serialize on a mutex, build a fresh table and
// publish it atomically; the previous table remains valid for readers that
// already hold it.
type Store struct {
	mu  sync.Mutex // writers only
	tab atomic.Pointer[storeTable]
}

// storeTable is one immutable generation of the snapshot set.
type storeTable struct {
	snaps   map[string]*Snapshot
	order   []string // sorted ids, for deterministic listings
	current *Snapshot
}

// NewStore returns an empty store.
func NewStore() *Store {
	st := &Store{}
	st.tab.Store(&storeTable{snaps: map[string]*Snapshot{}})
	return st
}

// Len returns the number of live snapshots.
func (st *Store) Len() int { return len(st.tab.Load().snaps) }

// Current returns the snapshot unnamed queries resolve to (nil when none
// has been activated).
func (st *Store) Current() *Snapshot { return st.tab.Load().current }

// List returns the live snapshots in sorted-id order.
func (st *Store) List() []*Snapshot {
	t := st.tab.Load()
	out := make([]*Snapshot, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.snaps[id])
	}
	return out
}

// Acquire resolves id ("" = current) against the present table and takes a
// drain reference on the resolved snapshot. The caller must invoke the
// returned release exactly once. ok is false when the id is unknown or no
// current snapshot exists; the release is then a no-op.
func (st *Store) Acquire(id string) (s *Snapshot, release func(), ok bool) {
	t := st.tab.Load()
	if id == "" {
		s = t.current
	} else {
		s = t.snaps[id]
	}
	if s == nil {
		return nil, func() {}, false
	}
	s.acquire()
	return s, s.release, true
}

// clone copies the table for copy-on-write mutation. Caller holds mu.
func (t *storeTable) clone() *storeTable {
	return &storeTable{snaps: maps.Clone(t.snaps), current: t.current}
}

// reindex rebuilds the sorted id listing. Caller holds mu.
func (t *storeTable) reindex() {
	t.order = slices.Sorted(maps.Keys(t.snaps))
}

// Add inserts s (idempotently: an existing snapshot with the same id wins
// and is returned with added == false). When activate is set the resulting
// snapshot becomes current; when replace is also set, the previously
// current snapshot — if different — is retired in the same atomic
// publication, so readers switch from old to new in one step with no
// window where neither is visible.
func (st *Store) Add(s *Snapshot, activate, replace bool) (live *Snapshot, added bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.tab.Load().clone()
	live, added = t.snaps[s.Info.ID], false
	if live == nil {
		live, added = s, true
		t.snaps[s.Info.ID] = s
	}
	if activate {
		if prev := t.current; replace && prev != nil && prev != live {
			delete(t.snaps, prev.Info.ID)
			defer prev.retired.Store(true)
		}
		t.current = live
	}
	t.reindex()
	st.tab.Store(t)
	return live, added
}

// Remove retires the snapshot with the given id. ok is false when the id
// is unknown. A removed snapshot that was current leaves the store with no
// current snapshot.
func (st *Store) Remove(id string) (s *Snapshot, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.tab.Load().clone()
	s, ok = t.snaps[id]
	if !ok {
		return nil, false
	}
	delete(t.snaps, id)
	if t.current == s {
		t.current = nil
	}
	t.reindex()
	st.tab.Store(t)
	s.retired.Store(true)
	return s, true
}
