// Package graph provides the graph substrate used by the topology
// constructions: an immutable CSR (compressed sparse row) form for
// query-heavy phases, union-find for connected components, BFS (hop
// distance) and Dijkstra (weighted distance).
//
// Vertices are dense int32 indices; edge weights, where used, are Euclidean
// lengths supplied by the caller. All shortest-path routines reuse caller
// buffers where it matters to keep the Monte-Carlo loops allocation-light.
//
// Edges are packed uint64 (u, v) pairs (Pack). A CSR comes from one slab of
// them: FromPacked takes the slab a bulk generator collected (the parallel
// sweeps in rgg, topo, hng and core), and Builder appends one edge at a time
// for the code that emits edges singly, without any per-insertion dedup
// scan, then hands its slab to the same constructor. The constructor is a
// cache-blocked two-level sort of the directed pairs: one streaming scatter
// into blocks of 2¹⁰ source vertices, then an in-cache radix sort per
// block, run in parallel across blocks, deduplicating adjacent equal pairs
// as each block writes its rows. The output is undirected, has no self
// loops and has sorted adjacency; construction is O(E + n) with O(E) memory
// in two slabs, and the result is independent of insertion order and of
// the worker count, which is what lets the parallel edge generators merge
// per-shard buffers in any grouping and still produce byte-identical CSRs.
package graph

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/parallel"
)

// Pack encodes the undirected edge {u, v} as a canonical (min, max) packed
// pair for FromPacked. Callers generating edges in parallel shards pack
// with this and hand the merged slab to FromPacked.
func Pack(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Unpack decodes a packed edge into its (min, max) endpoints.
func Unpack(e uint64) (u, v int32) {
	return int32(e >> 32), int32(uint32(e))
}

// Builder accumulates an undirected edge set over n vertices, one edge at a
// time, for callers that do not hold their edges in a packed slab. Self
// loops are dropped at insertion; parallel edges are dropped once, at Build
// time. The zero Builder is not usable; use NewBuilder.
type Builder struct {
	n     int
	edges []uint64 // canonical packed pairs, in insertion order
}

// NewBuilder creates a builder over n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self loops are ignored;
// duplicates are tolerated and removed during Build.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d, %d) out of range [0, %d)", u, v, b.n))
	}
	b.edges = append(b.edges, Pack(u, v))
}

// validPacked reports whether a packed edge is in range and not a self loop.
func validPacked(n int, e uint64) bool {
	u, v := Unpack(e)
	return u != v && uint(uint32(u)) < uint(n) && uint(uint32(v)) < uint(n)
}

// badPacked panics with the message for an edge validPacked rejects.
func badPacked(n int, e uint64) {
	u, v := Unpack(e)
	if u == v {
		panic(fmt.Sprintf("graph: packed self loop at vertex %d", u))
	}
	panic(fmt.Sprintf("graph: edge (%d, %d) out of range [0, %d)", u, v, n))
}

// FromPacked builds the CSR from a slab of canonically packed edges (see
// Pack): the one entry point for every generator that holds its whole edge
// set in one slab. unique promises that no undirected edge appears twice,
// which lets the build skip its dedup comparison; breaking the promise
// corrupts EdgeCount and duplicates adjacency entries. Entries must be
// self-loop-free and in range; the build's histogram pass checks this and
// panics otherwise. The slab is only read, never retained or modified; a
// nil slab gives the edgeless graph.
func FromPacked(n int, edges []uint64, unique bool) *CSR {
	return makeCSR(n, edges, !unique)
}

// Build freezes the builder into CSR form with the cache-blocked sort of
// makeCSR, removing duplicate edges. The builder remains usable; Build may
// be called again after further insertions.
func (b *Builder) Build() *CSR {
	return makeCSR(b.n, b.edges, true)
}

// blockBits is log₂ of the vertex-block size of the CSR build. At the
// UDG(2, 16) mean degree of ~50 a block of 2¹⁰ vertices holds ~300 KB of
// directed pairs, which a core sorts within its L2 cache.
const (
	blockBits = 10
	blockMask = 1<<blockBits - 1
)

// digitBits is the widest radix digit of the in-block sort: a 2¹¹-bucket
// histogram (8 KB) stays in L1 beside the scatter heads. maxDigits of them
// cover any vertex index.
const (
	digitBits = 11
	maxDigits = (31 + digitBits - 1) / digitBits
)

// chunkEdges is the number of input edges per parallel scatter chunk, and
// shardPairs the least number of directed pairs per parallel shard of
// blocks. Inputs below them — every SENS graph, and a 10⁴-point UDG base
// (~5·10⁵ pairs) — run each pass on the calling goroutine, as the two-pass
// build did: at that size the parallel passes gain nothing measurable, and
// a snapshot build that shares its process with request serving keeps a
// core free.
const (
	chunkEdges = 1 << 19
	shardPairs = 1 << 20
)

// makeCSR is the one CSR constructor, behind Build and FromPacked. It is a
// cache-blocked two-level sort of the 2·|edges| directed pairs (from, to):
//
//  1. a histogram pass counts the pairs of each vertex block
//     (from >> blockBits), per input chunk, validating every edge;
//  2. a streaming scatter pass, parallel over the chunks, writes each
//     pair into its block's segment: to into Adj, the low bits of from
//     into a side slab;
//  3. each block is radix-sorted in cache, by to and then by the low bits
//     of from, and rewrites its segment of Adj as sorted rows and its
//     degrees, skipping adjacent duplicates when mayDup is set. Blocks run
//     in parallel with one scratch per worker; when duplicates were
//     dropped the per-block runs are compacted by a prefix sum over their
//     lengths.
//
// Rows come out sorted and deduplicated, so the CSR is unique: it does not
// depend on insertion order or on the number of workers, which is what lets
// the parallel edge generators in rgg, topo and core merge per-shard buffers
// in any grouping.
func makeCSR(n int, edges []uint64, mayDup bool) *CSR {
	c := &CSR{N: n, Start: make([]int32, n+1)}
	if len(edges) == 0 {
		return c
	}
	nb := (n + blockMask) >> blockBits
	nc, cl := 1, len(edges) // one block, one chunk: no goroutines at all
	if nb > 1 {
		nc, cl = (len(edges)+chunkEdges-1)/chunkEdges, chunkEdges
	}

	// Pass 1: pairs per (chunk, block). off holds, in one allocation, the
	// segment start of each block (nb+1 entries), the pairs each block
	// keeps (nb) and the scatter cursor of each (chunk, block) (nc·nb).
	off := make([]int, (nc+2)*nb+1)
	j := csrJob{n: n, nb: nb, edges: edges, chunkLen: cl, off: off[:nb+1], kept: off[nb+1 : 2*nb+1], cur: off[2*nb+1:], start: c.Start, dedup: mayDup}
	for k := 0; k < nc; k++ {
		cur := j.cur[k*nb : (k+1)*nb]
		for _, e := range j.chunk(k) {
			if !validPacked(n, e) {
				badPacked(n, e)
			}
			cur[e>>(32+blockBits)]++
			cur[uint32(e)>>blockBits]++
		}
	}
	sum, maxLen := 0, 0
	for b := 0; b < nb; b++ {
		j.off[b] = sum
		for k := b; k < len(j.cur); k += nb {
			j.cur[k], sum = sum, sum+j.cur[k]
		}
		maxLen = max(maxLen, sum-j.off[b])
	}
	j.off[nb] = sum

	// Pass 2: scatter.
	j.adj = make([]int32, sum)
	j.from = make([]uint16, sum)
	if nc == 1 {
		j.scatter(0)
	} else {
		j.scatterParallel()
	}

	// Pass 3: sort each block's segment in place.
	j.tb = uint(bits.Len(uint(n - 1)))
	if grain := max(1, shardPairs*nb/sum); grain < nb {
		j.sortParallel(grain, maxLen)
	} else {
		s := blockScratch{buf: make([]uint64, 2*maxLen)}
		j.sortBlocks(&s, 0, nb)
	}

	adj, total := j.adj, 0
	for _, k := range j.kept {
		total += k
	}
	if total < len(adj) {
		// Duplicates were dropped: compact the runs into an exact-size Adj.
		compact := make([]int32, total)
		p := 0
		for b, k := range j.kept {
			p += copy(compact[p:], adj[off[b]:off[b]+k])
		}
		adj = compact
	}
	c.Adj = adj
	for i := 0; i < n; i++ {
		c.Start[i+1] += c.Start[i]
	}
	c.EdgeCount = total / 2
	return c
}

// csrJob is the shared state of makeCSR's passes. The parallel passes take
// it by value, so only they move a copy to the heap.
type csrJob struct {
	n, nb    int
	edges    []uint64
	chunkLen int      // input edges per scatter chunk
	off      []int    // block b owns adj[off[b]:off[b+1]] and from[off[b]:off[b+1]]
	kept     []int    // pairs block b kept after dedup
	cur      []int    // scatter cursor of block b for chunk k at cur[k·nb+b]
	adj      []int32  // to of each directed pair, grouped by block
	from     []uint16 // from & blockMask of each directed pair
	start    []int32  // degrees land in start[v+1]
	tb       uint     // bits of the largest vertex index
	dedup    bool
}

// chunk returns the input edges of scatter chunk k.
func (j *csrJob) chunk(k int) []uint64 {
	return j.edges[k*j.chunkLen : min(len(j.edges), (k+1)*j.chunkLen)]
}

// scatter writes the pairs of chunk k, in both directions, at its cursors.
func (j *csrJob) scatter(k int) {
	cur := j.cur[k*j.nb : (k+1)*j.nb]
	for _, e := range j.chunk(k) {
		u, v := uint32(e>>32), uint32(e)
		i := cur[u>>blockBits]
		j.adj[i], j.from[i] = int32(v), uint16(u&blockMask)
		cur[u>>blockBits] = i + 1
		i = cur[v>>blockBits]
		j.adj[i], j.from[i] = int32(u), uint16(v&blockMask)
		cur[v>>blockBits] = i + 1
	}
}

// scatterParallel runs scatter over every chunk across all cores.
func (j csrJob) scatterParallel() {
	parallel.ForGrain(len(j.cur)/j.nb, 1, j.scatter)
}

// sortParallel runs sortBlocks over shards of grain blocks across all
// cores, with one scratch per worker.
func (j csrJob) sortParallel(grain, maxLen int) {
	parallel.ForScratch(j.nb, grain, func() *blockScratch {
		return &blockScratch{buf: make([]uint64, 2*maxLen)}
	}, j.sortBlocks)
}

// blockScratch is one worker's scratch for the in-block sort.
type blockScratch struct {
	buf  []uint64                      // two ping-pong halves, each as long as the largest block
	hist [maxDigits << digitBits]int32 // one histogram per radix digit of to
	row  [blockMask + 1]int32          // write cursor of each row
}

// sortBlocks sorts blocks [lo, hi) in place and sets their degrees.
func (j *csrJob) sortBlocks(s *blockScratch, lo, hi int) {
	for b := lo; b < hi; b++ {
		first := b << blockBits
		last := min(j.n, first+blockMask+1)
		p, q := j.off[b], j.off[b+1]
		j.kept[b] = s.sortBlock(j.adj[p:q], j.from[p:q], j.start[first+1:last+1], j.tb, j.dedup)
	}
}

// sortBlock sorts the directed pairs (from[i], to[i]) of one block, from
// holding the low bits of the source vertex, and writes the to values back
// as rows ordered by (from, to). It is an LSD radix sort in the worker's
// scratch: one read pass histograms from (into deg) and every digit of the
// tb-bit to; the to digits are scattered in turn, the first pass packing
// the pairs into the scratch; a last pass by from writes each to into its
// row. With dedup that pass writes the packed pairs instead, now fully
// sorted, and one scan keeps the first of each run of equal pairs,
// recounting deg. It returns the number of entries kept at the front of to.
func (s *blockScratch) sortBlock(to []int32, from []uint16, deg []int32, tb uint, dedup bool) int {
	if len(to) == 0 {
		return 0
	}
	nd := (tb + digitBits - 1) / digitBits // tb ≥ 1: an edge needs two vertices
	w := (tb + nd - 1) / nd
	mask := uint32(1)<<w - 1
	clear(s.hist[:nd<<w])
	h0, h1, h2 := s.hist[:1<<w], s.hist[1<<w:2<<w], s.hist[2<<w:3<<w]
	from = from[:len(to)]
	for i, v := range to {
		deg[from[i]]++
		t := uint32(v)
		switch nd {
		case 3:
			h2[t>>(2*w)&mask]++
			fallthrough
		case 2:
			h1[t>>w&mask]++
			fallthrough
		case 1:
			h0[t&mask]++
		}
	}

	// The first digit's pass reads the segment and packs each pair as
	// from<<32 | to; the later ones move packed pairs between the halves.
	src, dst := s.buf[:len(to)], s.buf[len(to):2*len(to)]
	for p := uint(0); p < nd; p++ {
		h, shift := s.hist[p<<w:(p+1)<<w], p*w
		var sum int32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		if p == 0 {
			for i, v := range to {
				d := uint32(v) & mask
				dst[h[d]] = uint64(from[i])<<32 | uint64(uint32(v))
				h[d]++
			}
		} else {
			for _, x := range src {
				d := uint32(x) >> shift & mask
				dst[h[d]] = x
				h[d]++
			}
		}
		src, dst = dst, src
	}

	row := s.row[:len(deg)]
	var sum int32
	for f, c := range deg {
		row[f] = sum
		sum += c
	}
	if !dedup {
		for _, x := range src {
			f := x >> 32
			to[row[f]] = int32(uint32(x))
			row[f]++
		}
		return len(to)
	}
	for _, x := range src {
		f := x >> 32
		dst[row[f]] = x
		row[f]++
	}
	clear(deg)
	m, prev := 0, ^uint64(0)
	for _, x := range dst {
		if x != prev {
			prev = x
			to[m] = int32(uint32(x))
			deg[x>>32]++
			m++
		}
	}
	return m
}

// CSR is an immutable undirected graph in compressed sparse row form.
type CSR struct {
	N         int
	Start     []int32 // len N+1
	Adj       []int32 // len 2·EdgeCount
	EdgeCount int
}

// Neighbors returns the sorted adjacency of u.
func (c *CSR) Neighbors(u int32) []int32 {
	return c.Adj[c.Start[u]:c.Start[u+1]]
}

// Degree returns the degree of u.
func (c *CSR) Degree(u int32) int {
	return int(c.Start[u+1] - c.Start[u])
}

// MaxDegree returns the maximum degree over all vertices (0 for empty).
func (c *CSR) MaxDegree() int {
	m := 0
	for u := 0; u < c.N; u++ {
		if d := c.Degree(int32(u)); d > m {
			m = d
		}
	}
	return m
}

// MeanDegree returns the average degree (0 for the empty graph).
func (c *CSR) MeanDegree() float64 {
	if c.N == 0 {
		return 0
	}
	return 2 * float64(c.EdgeCount) / float64(c.N)
}

// DegreeHistogram returns counts[d] = number of vertices with degree d.
func (c *CSR) DegreeHistogram() []int {
	h := make([]int, c.MaxDegree()+1)
	for u := 0; u < c.N; u++ {
		h[c.Degree(int32(u))]++
	}
	return h
}

// HasEdge reports whether {u, v} is an edge, via binary search on the sorted
// adjacency of the lower-degree endpoint.
func (c *CSR) HasEdge(u, v int32) bool {
	if c.Degree(u) > c.Degree(v) {
		u, v = v, u
	}
	a := c.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}
