package power

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

// TestSlabCacheReuse pins the memoization contract: two measurers over the
// same graphs pull the SAME slab slices (pointer equality), each slab is
// built exactly once, and the cached measurer produces identical samples to
// an uncached one.
func TestSlabCacheReuse(t *testing.T) {
	sub, base, pts, pairs := batchFixture(t)
	cache := NewSlabCache()
	spec := BatchSpec{Beta: 2}

	m1 := NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache)
	if _, misses := cache.Stats(); misses != 4 {
		t.Fatalf("first measurer built %d slabs, want 4 (subD, subP, baseD, baseP)", misses)
	}
	m2 := NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache)
	hits, misses := cache.Stats()
	if misses != 4 {
		t.Errorf("second measurer rebuilt slabs: %d misses, want still 4", misses)
	}
	if hits != 4 {
		t.Errorf("second measurer hit %d slabs, want 4", hits)
	}
	if &m1.wSubD[0] != &m2.wSubD[0] || &m1.wBaseP[0] != &m2.wBaseP[0] {
		t.Error("cached measurers do not share slab storage")
	}

	// A different β shares the Euclidean slabs but builds new power slabs.
	m3 := NewMeasurerCached(sub.CSR, base.CSR, pts, BatchSpec{Beta: 4}, cache)
	if _, misses := cache.Stats(); misses != 6 {
		t.Errorf("β=4 measurer should add exactly 2 power slabs: %d misses, want 6", misses)
	}
	if &m3.wSubD[0] != &m1.wSubD[0] {
		t.Error("β=4 measurer rebuilt the shared Euclidean slab")
	}

	plain := MeasurePairs(sub.CSR, base.CSR, pts, pairs, spec)
	cached := m2.Pairs(pairs)
	if !reflect.DeepEqual(plain, cached) {
		t.Error("cached measurer produced different samples than uncached")
	}
}

// TestMeasurerWarmSlabAllocsBounded is the allocation gate for the slab
// memoization: once the cache is warm, constructing another Measurer over
// the same graphs must cost O(1) allocations (the struct and cache
// bookkeeping), not the four len(Adj)-sized slab fills an uncached
// construction pays.
func TestMeasurerWarmSlabAllocsBounded(t *testing.T) {
	sub, base, pts, _ := batchFixture(t)
	cache := NewSlabCache()
	spec := BatchSpec{Beta: 2}
	NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache) // warm
	const maxAllocs = 8
	if a := testing.AllocsPerRun(100, func() {
		NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache)
	}); a > maxAllocs {
		t.Errorf("warm-cache measurer construction allocates %.1f/op, want ≤ %d", a, maxAllocs)
	}
}

// BenchmarkMeasurerWarmSlabs measures measurer construction against a warm
// slab cache — the per-baseline cost E14 pays after the first structure.
func BenchmarkMeasurerWarmSlabs(b *testing.B) {
	g := rng.New(7)
	pts := pointprocess.Poisson(geom.Box(10, 10), 4, g)
	base := rgg.UDG(pts, 1.0)
	sub := rgg.UDG(pts, 0.55)
	cache := NewSlabCache()
	spec := BatchSpec{Beta: 2}
	NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMeasurerCached(sub.CSR, base.CSR, pts, spec, cache)
	}
}

// TestSlabCacheNilSafe: a nil cache builds fresh slabs and never panics —
// the compatibility path every pre-existing caller takes.
func TestSlabCacheNilSafe(t *testing.T) {
	sub, base, pts, pairs := batchFixture(t)
	var c *SlabCache
	m := NewMeasurerCached(sub.CSR, base.CSR, pts, BatchSpec{Beta: 2}, c)
	if len(m.Pairs(pairs)) != len(pairs) {
		t.Fatal("nil-cache measurer broken")
	}
	if h, ms := c.Stats(); h != 0 || ms != 0 {
		t.Errorf("nil cache reports stats %d/%d", h, ms)
	}
}

// TestSlabCacheLRUEviction pins the size-bounded mode end to end: a
// limit-2 cache holding slabs for three graphs evicts in strict
// least-recently-used order, the hit/miss/evict counters match the exact
// access history, and an evicted slab rebuilds (fresh storage) while a
// surviving slab keeps its storage across the eviction.
func TestSlabCacheLRUEviction(t *testing.T) {
	g := rng.New(11)
	pts := pointprocess.Poisson(geom.Box(6, 6), 4, g)
	g1 := rgg.UDG(pts, 1.0)
	g2 := rgg.UDG(pts, 0.8)
	g3 := rgg.UDG(pts, 0.6)

	cache := NewSlabCacheLRU(2)
	w1 := cache.weights(g1.CSR, pts, 0)  // miss: {g1}
	cache.weights(g2.CSR, pts, 0)        // miss: {g2, g1}
	w1b := cache.weights(g1.CSR, pts, 0) // hit, g1 to front: {g1, g2}
	if &w1[0] != &w1b[0] {
		t.Fatal("hit returned different slab storage")
	}
	cache.weights(g3.CSR, pts, 0) // miss, evicts LRU g2: {g3, g1}
	st := cache.Counters()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after first eviction: %+v, want 1 hit / 3 misses / 1 eviction / 2 entries", st)
	}

	// g2 was evicted: looking it up again is a miss that rebuilds (and
	// evicts g1, the new LRU). g3 — recently used — must survive both.
	w3 := cache.weights(g3.CSR, pts, 0)  // hit: {g3, g1}
	cache.weights(g2.CSR, pts, 0)        // miss, evicts g1: {g2, g3}
	w3b := cache.weights(g3.CSR, pts, 0) // hit
	if &w3[0] != &w3b[0] {
		t.Fatal("surviving entry lost its storage across evictions")
	}
	st = cache.Counters()
	if st.Hits != 3 || st.Misses != 4 || st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("final counters %+v, want 3 hits / 4 misses / 2 evictions / 2 entries", st)
	}
	if st.Limit != 2 {
		t.Errorf("Limit = %d, want 2", st.Limit)
	}

	// The unbounded constructors never evict.
	if got := NewSlabCache().Counters().Limit; got != 0 {
		t.Errorf("NewSlabCache limit = %d, want 0 (unbounded)", got)
	}
	if got := NewSlabCacheLRU(0).Counters().Limit; got != 0 {
		t.Errorf("NewSlabCacheLRU(0) limit = %d, want 0 (unbounded)", got)
	}
}

// TestSlabCacheLRUConcurrent hammers a tiny bounded cache from many
// goroutines over more keys than the bound: no panics, no lost updates
// (every return is a full slab), and the entry count respects the limit.
func TestSlabCacheLRUConcurrent(t *testing.T) {
	g := rng.New(12)
	pts := pointprocess.Poisson(geom.Box(6, 6), 4, g)
	graphs := []*rgg.Geometric{
		rgg.UDG(pts, 1.0), rgg.UDG(pts, 0.8), rgg.UDG(pts, 0.6), rgg.UDG(pts, 0.4),
	}
	cache := NewSlabCacheLRU(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				gr := graphs[(w+i)%len(graphs)]
				slab := cache.weights(gr.CSR, pts, 2)
				if len(slab) != len(gr.Adj) {
					t.Errorf("slab has %d weights, graph has %d edges slots", len(slab), len(gr.Adj))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Counters(); st.Entries > 2 {
		t.Errorf("bounded cache holds %d entries, limit 2", st.Entries)
	}
}

// TestSlabCacheConcurrentOnce: concurrent first lookups of one key build
// the slab exactly once and all callers see the same slice.
func TestSlabCacheConcurrentOnce(t *testing.T) {
	g := rng.New(3)
	pts := pointprocess.Poisson(geom.Box(8, 8), 4, g)
	udg := rgg.UDG(pts, 1.0)
	cache := NewSlabCache()
	const workers = 8
	out := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = cache.weights(udg.CSR, pts, 2)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &out[w][0] != &out[0][0] {
			t.Fatal("concurrent lookups returned distinct slabs")
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != workers-1 {
		t.Errorf("stats %d hits / %d misses, want %d / 1", hits, misses, workers-1)
	}
}

// rowsFixture is a sparse base UDG with several components (so some
// gateway rows hold +Inf) and a sparser subgraph, four gateways — one of
// them in a small base component when the realization has one — and a
// pair mix: mostly gateway sources, some other sources, duplicate pairs,
// src == dst pairs and targets outside the source's component.
func rowsFixture(t *testing.T) (sub, base *graph.CSR, pts []geom.Point, gateways []int32, pairs []Pair) {
	t.Helper()
	g := rng.New(21)
	pts = pointprocess.Poisson(geom.Box(10, 10), 4, g)
	base = rgg.UDG(pts, 0.6).CSR
	sub = rgg.UDG(pts, 0.45).CSR
	n := int32(len(pts))
	labels, sizes := graph.Components(base)
	gateways = []int32{0, n / 3, 2 * n / 3}
	small := int32(-1)
	for v := int32(1); v < n; v++ {
		if sz := sizes[labels[v]]; sz > 1 && sz < 20 && !slices.Contains(gateways, v) {
			small = v
			break
		}
	}
	if small < 0 {
		t.Fatal("fixture base graph has no small component")
	}
	gateways = append(gateways, small)
	for i := 0; i < 200; i++ {
		u := gateways[g.IntN(len(gateways))]
		if i%5 == 0 {
			u = g.Int32N(n)
		}
		v := g.Int32N(n)
		if i%17 == 0 {
			v = u
		}
		pairs = append(pairs, Pair{U: u, V: v})
		if i%11 == 0 {
			pairs = append(pairs, Pair{U: u, V: v})
		}
	}
	return sub, base, pts, gateways, pairs
}

// sameSampleBits reports whether two samples are identical bit for bit,
// +Inf and zero signs included.
func sameSampleBits(a, b StretchSample) bool {
	fa := []float64{a.Euclid, a.SubLen, a.BaseLen, a.PowerSub, a.PowerBase, a.DistStretch, a.PowerStretch}
	fb := []float64{b.Euclid, b.SubLen, b.BaseLen, b.PowerSub, b.PowerBase, b.DistStretch, b.PowerStretch}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.U == b.U && a.V == b.V && a.Hops == b.Hops
}

// TestGatewayRowsMatchBoundedSweeps pins the rows' byte-identity: a
// measurer reading base distances from gateway rows answers every pair —
// gateway and other sources, unreachable and duplicate targets, src == dst
// — with exactly the bits of an uncached measurer's bounded sweeps, at
// GOMAXPROCS 1 and 8, cold and warm. Each row fills once; later batches hit.
func TestGatewayRowsMatchBoundedSweeps(t *testing.T) {
	sub, base, pts, gateways, pairs := rowsFixture(t)
	spec := BatchSpec{Beta: 2, Hops: true}
	want := NewMeasurer(sub, base, pts, spec).Pairs(pairs)
	sawInf := false
	for _, s := range want {
		sawInf = sawInf || math.IsInf(s.BaseLen, 1)
	}
	if !sawInf {
		t.Fatal("fixture has no base-unreachable pair")
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		cache := NewSlabCacheLRU(8)
		cache.SetGateways(gateways)
		for round := 0; round < 3; round++ {
			got := NewMeasurerCached(sub, base, pts, spec, cache).Pairs(pairs)
			for i := range want {
				if !sameSampleBits(got[i], want[i]) {
					t.Fatalf("GOMAXPROCS %d round %d pair %d: rows give %+v, bounded sweeps %+v",
						procs, round, i, got[i], want[i])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		st := cache.Counters()
		if st.RowFills != int64(2*len(gateways)) {
			t.Errorf("GOMAXPROCS %d: %d row fills, want one per (gateway, weight) = %d", procs, st.RowFills, 2*len(gateways))
		}
		if st.RowHits < 2*st.RowFills {
			t.Errorf("GOMAXPROCS %d: %d row hits over two warm rounds, want ≥ %d", procs, st.RowHits, 2*st.RowFills)
		}
	}
}

// TestGatewayRowsBaseOnly: rows attach to base entries only. A measurer
// with no base graph (the route query's shape) never creates or fills one,
// and a cache without gateways never does either.
func TestGatewayRowsBaseOnly(t *testing.T) {
	sub, base, pts, gateways, pairs := rowsFixture(t)
	spec := BatchSpec{Beta: 2, Hops: true}
	cache := NewSlabCache()
	cache.SetGateways(gateways)
	m := NewMeasurerCached(sub, nil, pts, spec, cache)
	m.Pairs(pairs)
	if m.eBaseD != nil || m.eBaseP != nil || cache.Counters().RowFills != 0 {
		t.Fatal("a measurer without a base graph created gateway rows")
	}
	plain := NewSlabCache()
	m = NewMeasurerCached(sub, base, pts, spec, plain)
	m.Pairs(pairs)
	if st := plain.Counters(); m.eBaseD.rows != nil || st.RowFills != 0 || st.RowHits != 0 {
		t.Fatalf("a cache without gateways kept rows: %+v", st)
	}
}

// TestGatewayRowsConcurrentFirstFill races many measurers over one cold
// cache (run it under -race): every row fills exactly once, and every
// caller reads the same, correct bytes.
func TestGatewayRowsConcurrentFirstFill(t *testing.T) {
	sub, base, pts, gateways, pairs := rowsFixture(t)
	spec := BatchSpec{Beta: 3}
	want := NewMeasurer(sub, base, pts, spec).Pairs(pairs)
	cache := NewSlabCache()
	cache.SetGateways(gateways)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := pairs[w%3:]
			got := NewMeasurerCached(sub, base, pts, spec, cache).Pairs(ps)
			for i := range got {
				if !sameSampleBits(got[i], want[i+w%3]) {
					t.Errorf("worker %d pair %d: %+v, want %+v", w, i, got[i], want[i+w%3])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Counters(); st.RowFills != int64(2*len(gateways)) {
		t.Errorf("%d row fills under concurrent first use, want %d", st.RowFills, 2*len(gateways))
	}
}

// TestGatewayRowsSurviveEviction: a measurer holding an evicted base entry
// keeps answering from its rows, and a lookup after the eviction attaches
// fresh rows that fill again.
func TestGatewayRowsSurviveEviction(t *testing.T) {
	sub, base, pts, gateways, pairs := rowsFixture(t)
	spec := BatchSpec{Beta: 2}
	want := NewMeasurer(sub, base, pts, spec).Pairs(pairs)
	cache := NewSlabCacheLRU(2)
	cache.SetGateways(gateways)
	held := NewMeasurerCached(sub, base, pts, spec, cache)
	held.Pairs(pairs)
	fills := cache.Counters().RowFills
	// Two other graphs push both base entries out of the limit-2 cache.
	cache.weights(rgg.UDG(pts, 0.3).CSR, pts, 0)
	cache.weights(rgg.UDG(pts, 0.35).CSR, pts, 0)
	if st := cache.Counters(); st.Evictions < 2 {
		t.Fatalf("expected the base entries evicted: %+v", st)
	}
	got := held.Pairs(pairs)
	for i := range want {
		if !sameSampleBits(got[i], want[i]) {
			t.Fatalf("evicted-entry measurer pair %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := cache.Counters(); st.RowFills != fills {
		t.Errorf("held rows refilled after eviction: %d fills, want %d", st.RowFills, fills)
	}
	fresh := NewMeasurerCached(sub, base, pts, spec, cache)
	if &fresh.eBaseD.rows[0] == &held.eBaseD.rows[0] {
		t.Fatal("lookup after eviction reused the evicted entry's rows")
	}
	fresh.Pairs(pairs)
	if st := cache.Counters(); st.RowFills != 2*fills {
		t.Errorf("rebuilt entry filled %d rows, want %d", st.RowFills-fills, fills)
	}
}
