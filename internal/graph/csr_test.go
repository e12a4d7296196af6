package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// makeCSRReference is the historical CSR construction, kept as the oracle of
// makeCSR: two stable counting-sort passes over the directed pairs (by to,
// then by from) with one bucket per vertex, then a dedup-and-write scan.
func makeCSRReference(n int, edges []uint64, mayDup bool) *CSR {
	c := &CSR{N: n, Start: make([]int32, n+1)}
	if len(edges) == 0 {
		return c
	}
	m2 := 2 * len(edges)
	a := make([]uint64, m2)
	for i, e := range edges {
		a[2*i] = e
		a[2*i+1] = e<<32 | e>>32
	}
	buf := make([]uint64, m2)
	count := make([]int32, n+1)
	for _, x := range a {
		count[uint32(x)+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	for _, x := range a {
		k := uint32(x)
		buf[count[k]] = x
		count[k]++
	}
	clear(count)
	for _, x := range buf {
		count[(x>>32)+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	for _, x := range buf {
		k := x >> 32
		a[count[k]] = x
		count[k]++
	}
	if mayDup {
		a = slices.Compact(a)
	}
	c.Adj = make([]int32, len(a))
	for i, x := range a {
		c.Adj[i] = int32(uint32(x))
		c.Start[(x>>32)+1]++
	}
	for i := 0; i < n; i++ {
		c.Start[i+1] += c.Start[i]
	}
	c.EdgeCount = len(a) / 2
	return c
}

// csrDiff describes the first difference between two CSRs, slab for slab
// (N, EdgeCount, Start, Adj, and Adj's length), or returns "".
func csrDiff(got, want *CSR) string {
	switch {
	case got.N != want.N || got.EdgeCount != want.EdgeCount:
		return fmt.Sprintf("N/EdgeCount (%d, %d) want (%d, %d)", got.N, got.EdgeCount, want.N, want.EdgeCount)
	case !slices.Equal(got.Start, want.Start):
		return "Start differs: " + FirstDiff(got, want)
	case !slices.Equal(got.Adj, want.Adj) || cap(got.Adj) != len(got.Adj):
		return fmt.Sprintf("Adj differs (len %d cap %d, want len %d)", len(got.Adj), cap(got.Adj), len(want.Adj))
	}
	return ""
}

// blockEdgeVertex maps a fuzz byte to a vertex of an n-vertex graph,
// favoring the vertices at the edges of the makeCSR blocks.
func blockEdgeVertex(n int, x byte) int32 {
	edges := []int{0, 1, blockMask, blockMask + 1, 2*blockMask + 1, 2 * (blockMask + 1), n - 2, n - 1}
	if int(x) < 2*len(edges) {
		return int32(min(edges[int(x)/2], n-1))
	}
	return int32(int(x) * 7919 % n)
}

// FuzzCSR builds edge multisets whose endpoints sit at block boundaries
// (2^blockBits − 1, 2^blockBits, n − 1, ...) and checks makeCSR against the
// two-pass oracle on both the dedup path (Builder.AddEdge, duplicates and
// self loops included) and the unique path (FromPacked of the distinct
// edges, in insertion order).
//
// The first two bytes pick n in [2^blockBits + 1, 2^blockBits + 2^16];
// every further pair of bytes is one AddEdge.
func FuzzCSR(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 4, 4, 6, 6, 2, 14, 3, 15, 3, 14, 2})
	f.Add([]byte{12, 0, 5, 7, 7, 5, 8, 9, 200, 13, 14, 0, 1, 11})
	f.Add([]byte{255, 255, 0, 15, 6, 9, 10, 12, 2, 6, 6, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := blockMask + 2 + (int(data[0])<<8 | int(data[1]))
		b := NewBuilder(n)
		var unique []uint64
		seen := map[uint64]bool{}
		for data = data[2:]; len(data) >= 2; data = data[2:] {
			u, v := blockEdgeVertex(n, data[0]), blockEdgeVertex(n, data[1])
			b.AddEdge(u, v)
			if e := Pack(u, v); u != v && !seen[e] {
				seen[e] = true
				unique = append(unique, e)
			}
		}
		want := makeCSRReference(n, b.edges, true)
		if d := csrDiff(b.Build(), want); d != "" {
			t.Fatalf("n=%d, dedup path: %s", n, d)
		}
		if d := csrDiff(FromPacked(n, unique, true), want); d != "" {
			t.Fatalf("n=%d, unique path: %s", n, d)
		}
	})
}

// TestFromPackedMatchesOracleAtChunkBoundaries covers slabs past one
// scatter chunk: over many blocks (the parallel scatter) on both paths, and
// over a single block, which scatters the whole slab as one chunk.
func TestFromPackedMatchesOracleAtChunkBoundaries(t *testing.T) {
	const n = 50 << blockBits
	r := rand.New(rand.NewSource(5))
	randomEdges := func(n int) []uint64 {
		edges := make([]uint64, 0, chunkEdges+1000)
		for len(edges) < cap(edges) {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, Pack(u, v))
			}
		}
		return edges
	}
	single := randomEdges(blockMask)
	if d := csrDiff(FromPacked(blockMask, single, false), makeCSRReference(blockMask, single, true)); d != "" {
		t.Fatalf("single block: %s", d)
	}
	edges := randomEdges(n)
	if d := csrDiff(FromPacked(n, edges, false), makeCSRReference(n, edges, true)); d != "" {
		t.Fatalf("dedup path: %s", d)
	}
	unique := slices.Clone(edges)
	slices.Sort(unique)
	unique = slices.Compact(unique)
	r.Shuffle(len(unique), func(i, j int) { unique[i], unique[j] = unique[j], unique[i] })
	if d := csrDiff(FromPacked(n, unique, true), makeCSRReference(n, unique, false)); d != "" {
		t.Fatalf("unique path: %s", d)
	}
}

// TestFromPackedAllocations gates the CSR kernel's allocations. A SENS-sized
// input (~10⁴ vertices, ~5·10³ distinct edges) builds on the calling
// goroutine with the six allocations the two-pass build made: the CSR,
// Start, the per-block offsets, Adj, the from slab and one scratch buffer.
// (A slab that really holds duplicates adds one: the exact-size Adj the
// per-block runs are compacted into.) At 10⁵ vertices, past one scatter
// chunk, the parallel passes add a constant plus a few per worker — its
// goroutine and scratch — never a per-block cost. (AllocsPerRun measures at
// GOMAXPROCS 1, so the parallel passes run their one-worker form.)
func TestFromPackedAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	randomEdges := func(n, m int) []uint64 {
		edges := make([]uint64, 0, m)
		for len(edges) < m {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, Pack(u, v))
			}
		}
		return edges
	}
	sens := randomEdges(10_000, 5_000)
	slices.Sort(sens)
	sens = slices.Compact(sens)
	for _, unique := range []bool{true, false} {
		if a := testing.AllocsPerRun(20, func() { FromPacked(10_000, sens, unique) }); a > 6 {
			t.Errorf("SENS-sized FromPacked(unique=%v) allocates %.0f, want ≤ 6", unique, a)
		}
	}
	const n = 100_000
	big := randomEdges(n, chunkEdges+chunkEdges/2)
	limit := 12 + 4*float64(parallel.Workers(n))
	if a := testing.AllocsPerRun(3, func() { FromPacked(n, big, false) }); a > limit {
		t.Errorf("FromPacked at n=%d allocates %.0f, want ≤ %.0f", n, a, limit)
	}
}

// TestFromPackedIdenticalAcrossWorkers checks that a build on the parallel
// paths (several scatter chunks and block shards) yields the same Start and
// Adj slabs at GOMAXPROCS 1 and 8.
func TestFromPackedIdenticalAcrossWorkers(t *testing.T) {
	const n = 30 << blockBits
	r := rand.New(rand.NewSource(3))
	edges := make([]uint64, 0, 2*chunkEdges)
	for len(edges) < cap(edges) {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			edges = append(edges, Pack(u, v))
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := FromPacked(n, edges, false)
	runtime.GOMAXPROCS(8)
	eight := FromPacked(n, edges, false)
	if d := csrDiff(eight, one); d != "" {
		t.Fatalf("GOMAXPROCS 8 vs 1: %s", d)
	}
}
