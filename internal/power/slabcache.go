package power

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/graph"
)

// SlabCache memoizes Measurer edge-weight slabs per (graph, β): the
// ROADMAP's measurement-side batching item. A weight slab is a pure
// function of a graph's CSR adjacency and the vertex positions it was built
// over, so baselines sharing a base graph — the seven E14 structures all
// measured against one UDG base, or the four E11 β sweeps over one SENS
// subgraph — reuse one Euclidean slab and one power slab per β instead of
// refilling len(Adj) floats per Measurer.
//
// Keys are graph identities (the *CSR pointer), not content hashes: the
// scenario cache already guarantees one CSR per logical graph, and a
// pointer key makes lookups free. Callers must pass the position slice the
// graph was built over — the cache trusts the (graph, positions) pairing.
//
// A cache built with NewSlabCacheLRU is size-bounded: when the entry count
// would exceed the bound, the least-recently-used slab is evicted. This is
// what lets long-lived processes — the serving daemon measuring many
// (snapshot, β) combinations over weeks — hold a slab cache without
// unbounded growth; batch suite runs keep the historical unbounded
// NewSlabCache. Eviction only drops the cache's reference: a Measurer
// already holding an evicted slab keeps using it safely (slabs are
// read-only by contract), and a later lookup simply rebuilds.
//
// A cache given a gateway set (SetGateways) also keeps, on each base-graph
// entry a Measurer creates, one full-sweep row per gateway: the Dijkstra
// distances from that gateway under the entry's weights. Measurer.Pairs
// reads a gateway-sourced group's base distances from the row instead of
// sweeping the dense base again. Rows ride on their entry, so the LRU bound
// on entries bounds them too (|gateways| rows of n floats per base entry),
// and a Measurer holding an evicted entry keeps its rows like its slabs.
//
// A nil *SlabCache is valid and simply builds every slab fresh.
type SlabCache struct {
	mu    sync.Mutex
	limit int // max entries; 0 = unbounded
	slabs map[slabKey]*slabEntry
	// gateways are the sources that get full-sweep rows on base entries
	// (nil = no rows).
	gateways []int32
	// Intrusive LRU list over the entries, most-recent at head. Only
	// maintained when limit > 0.
	head, tail *slabEntry
	hits       int64
	misses     int64
	evictions  int64
	// Row counters, bumped by Measurer.Pairs outside mu.
	rowFills, rowHits atomic.Int64
}

type slabKey struct {
	g    *graph.CSR
	beta uint64 // Float64bits(β); 0-weight (Euclidean) slabs use β = 0
}

// slabEntry fills at most once even under concurrent first lookups.
type slabEntry struct {
	once sync.Once
	w    []float64
	// rows are the gateway rows of a base entry, set when a base lookup
	// creates the entry after SetGateways and never changed; nil on every
	// other entry. cache takes their fill and hit counts.
	rows  []gatewayRow
	cache *SlabCache
	// LRU bookkeeping (guarded by SlabCache.mu).
	key        slabKey
	prev, next *slabEntry
}

// gatewayRow is one full sweep from src under its entry's weights, filled
// at most once by the first Pairs group that needs it.
type gatewayRow struct {
	src  int32
	once sync.Once
	d    []float64
}

// NewSlabCache returns an empty, unbounded slab cache — the batch-suite
// configuration, where the working set is one suite run and bounded by
// construction.
func NewSlabCache() *SlabCache {
	return &SlabCache{slabs: make(map[slabKey]*slabEntry)}
}

// NewSlabCacheLRU returns an empty slab cache holding at most maxEntries
// slabs, evicting least-recently-used entries beyond that. maxEntries <= 0
// means unbounded (identical to NewSlabCache).
func NewSlabCacheLRU(maxEntries int) *SlabCache {
	c := NewSlabCache()
	if maxEntries > 0 {
		c.limit = maxEntries
	}
	return c
}

// SetGateways fixes the sources whose base-graph sweeps the cache keeps as
// full rows (see SlabCache). Only base entries created afterwards carry
// rows, so call it before the first base-side Measurer. A nil cache
// ignores it.
func (c *SlabCache) SetGateways(gateways []int32) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gateways = gateways
}

// Stats returns (hits, misses); misses count slab builds.
func (c *SlabCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// SlabCacheStats is a point-in-time snapshot of the cache counters.
type SlabCacheStats struct {
	Hits      int64 `json:"slabHits"`      // lookups served from an existing entry
	Misses    int64 `json:"slabMisses"`    // lookups that created the entry (== slab builds)
	Evictions int64 `json:"slabEvictions"` // entries dropped by the LRU bound
	Entries   int   `json:"slabEntries"`   // entries currently held
	Limit     int   `json:"slabLimit"`     // configured bound (0 = unbounded)
	RowFills  int64 `json:"rowFills"`      // gateway rows swept (see SetGateways)
	RowHits   int64 `json:"rowHits"`       // source groups served from an already-filled row
}

// Counters returns the full counter snapshot, including evictions and the
// current entry count. A nil cache reports zeros.
func (c *SlabCache) Counters() SlabCacheStats {
	if c == nil {
		return SlabCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SlabCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.slabs), Limit: c.limit,
		RowFills: c.rowFills.Load(), RowHits: c.rowHits.Load(),
	}
}

// moveToFront makes e the most-recently-used entry. Caller holds mu.
func (c *SlabCache) moveToFront(e *slabEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds mu.
func (c *SlabCache) unlink(e *slabEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.head == e {
		c.head = e.next
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// weights returns the weight slab for (g, beta), building and caching it on
// first use. beta <= 0 selects the Euclidean slab. Safe for concurrent use;
// the slab is shared, so callers must treat it as read-only (Measurer
// does).
func (c *SlabCache) weights(g *graph.CSR, pos []geom.Point, beta float64) []float64 {
	w, _ := c.lookup(g, pos, beta, false)
	return w
}

// lookup is weights plus the cache entry (nil for a nil cache). An entry
// a withRows lookup creates carries one row per gateway of the cache.
func (c *SlabCache) lookup(g *graph.CSR, pos []geom.Point, beta float64, withRows bool) ([]float64, *slabEntry) {
	if c == nil {
		return edgeWeights(g, pos, beta), nil
	}
	if beta < 0 {
		beta = 0
	}
	key := slabKey{g: g, beta: math.Float64bits(beta)}
	c.mu.Lock()
	e, ok := c.slabs[key]
	if !ok {
		e = &slabEntry{key: key, cache: c}
		if withRows && len(c.gateways) > 0 {
			e.rows = make([]gatewayRow, len(c.gateways))
			for i, src := range c.gateways {
				e.rows[i].src = src
			}
		}
		c.slabs[key] = e
		c.misses++
		if c.limit > 0 {
			c.moveToFront(e)
			// Evict from the cold end until the bound holds; the entry just
			// inserted is at the head and never the victim (limit >= 1).
			for len(c.slabs) > c.limit {
				victim := c.tail
				c.unlink(victim)
				delete(c.slabs, victim.key)
				c.evictions++
			}
		}
	} else {
		c.hits++
		if c.limit > 0 {
			c.moveToFront(e)
		}
	}
	c.mu.Unlock()
	// Fill outside the lock so distinct slabs build in parallel; the entry's
	// once guarantees each slab fills at most once even when concurrent
	// first lookups race. An entry evicted while filling still completes and
	// serves its waiters — eviction only forgets the cache's reference.
	e.once.Do(func() { e.w = edgeWeights(g, pos, beta) })
	return e.w, e
}
