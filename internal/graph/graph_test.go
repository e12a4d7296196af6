package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

// pathGraph builds the path 0−1−2−…−(n−1).
func pathGraph(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate (reversed) — removed at Build
	b.AddEdge(2, 2) // self loop — ignored
	b.AddEdge(1, 2)
	if len(b.edges) != 3 {
		t.Errorf("buffered %d edges, want 3 (self loop dropped, duplicate kept)", len(b.edges))
	}
	g := b.Build()
	if g.EdgeCount != 2 {
		t.Errorf("EdgeCount = %d want 2", g.EdgeCount)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
}

// TestBuildEdgeCountDedup is the regression test for the dedup-at-build
// accounting: the seed builder counted edges at insert time, which would
// overcount duplicates under the flat edge-list scheme.
func TestBuildEdgeCountDedup(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 7; i++ {
		b.AddEdge(0, 1) // same edge, repeatedly
	}
	b.AddEdge(1, 0) // and reversed
	b.AddEdge(3, 4)
	g := b.Build()
	if g.EdgeCount != 2 {
		t.Fatalf("EdgeCount = %d want 2", g.EdgeCount)
	}
	if len(g.Adj) != 2*g.EdgeCount {
		t.Fatalf("len(Adj) = %d want %d", len(g.Adj), 2*g.EdgeCount)
	}
	if got := g.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if got := g.MeanDegree(); math.Abs(got-4.0/5) > 1e-12 {
		t.Errorf("MeanDegree = %v", got)
	}
}

// TestBuilderMatchesFromPacked checks the one-edge-at-a-time Builder
// against FromPacked on both values of unique: the dedup path on a slab
// with repeated and reversed edges, and the unique path on the distinct
// edges.
func TestBuilderMatchesFromPacked(t *testing.T) {
	edges := [][2]int32{{0, 1}, {2, 1}, {5, 0}, {1, 0}, {3, 4}, {4, 5}, {1, 2}}
	b := NewBuilder(6)
	var packed, distinct []uint64
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
		p := Pack(e[0], e[1])
		if !slices.Contains(packed, p) {
			distinct = append(distinct, p)
		}
		packed = append(packed, p)
	}
	want := b.Build()
	if want.EdgeCount != len(distinct) {
		t.Fatalf("Builder EdgeCount = %d, want %d", want.EdgeCount, len(distinct))
	}
	if g := FromPacked(6, packed, false); !sameCSR(g, want) {
		t.Fatalf("FromPacked(unique=false) disagrees with Builder:\n%v\n%v", g, want)
	}
	if g := FromPacked(6, distinct, true); !sameCSR(g, want) {
		t.Fatalf("FromPacked(unique=true) disagrees with Builder:\n%v\n%v", g, want)
	}
	if u, v := Unpack(Pack(3, 1)); u != 1 || v != 3 {
		t.Errorf("Pack/Unpack not canonical: (%d, %d)", u, v)
	}
}

func sameCSR(a, b *CSR) bool {
	if a.N != b.N || a.EdgeCount != b.EdgeCount || len(a.Start) != len(b.Start) || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}

// TestBuildMatchesReferenceProperty checks the blocked CSR Build against a
// straightforward map-based reference and the two-pass oracle over random
// edge multisets — duplicates (either orientation), AddEdge self loops and
// a shuffled re-insertion that must give the identical CSR. n = 23 is one
// vertex block; the second n covers three full blocks and a partial one.
func TestBuildMatchesReferenceProperty(t *testing.T) {
	for _, n := range []int{23, 3<<blockBits + 517} {
		f := func(raw []uint32, seed int64) bool {
			b := NewBuilder(n)
			adj := make(map[int32]map[int32]bool)
			var inserted [][2]int32
			add := func(u, v int32) {
				b.AddEdge(u, v)
				inserted = append(inserted, [2]int32{u, v})
				if u != v {
					if adj[u] == nil {
						adj[u] = map[int32]bool{}
					}
					if adj[v] == nil {
						adj[v] = map[int32]bool{}
					}
					adj[u][v] = true
					adj[v][u] = true
				}
			}
			for _, r := range raw {
				u, v := int32(r%uint32(n)), int32(r/uint32(n)%uint32(n))
				add(u, v)
				switch r % 5 {
				case 0:
					add(v, u) // reversed duplicate
				case 1:
					add(u, u) // self loop
				}
			}
			g := b.Build()
			if csrDiff(g, makeCSRReference(n, b.edges, true)) != "" {
				return false
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(inserted), func(i, j int) {
				inserted[i], inserted[j] = inserted[j], inserted[i]
			})
			shuffled := NewBuilder(n)
			for _, e := range inserted {
				shuffled.AddEdge(e[0], e[1])
			}
			if csrDiff(shuffled.Build(), g) != "" {
				return false
			}
			edges := 0
			for u := int32(0); u < int32(n); u++ {
				var want []int32
				for v := range adj[u] {
					want = append(want, v)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := g.Neighbors(u)
				if len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
				edges += len(want)
			}
			return g.EdgeCount == edges/2
		}
		cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
			raw := make([]uint32, r.Intn(4*n))
			for i := range raw {
				raw[i] = r.Uint32()
			}
			args[0], args[1] = reflect.ValueOf(raw), reflect.ValueOf(r.Int63())
		}}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestBuilderPanicsOnBadEdge pins the validation contract and its messages:
// an out-of-range AddEdge, and a self loop or out-of-range vertex in a
// packed slab — in a later vertex block and past the first scatter chunk of
// a multi-block slab — panic on the caller's goroutine, through FromPacked
// on both values of unique.
func TestBuilderPanicsOnBadEdge(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Errorf("%s: panic %v, want %q", name, got, want)
			}
		}()
		fn()
	}
	mustPanic("AddEdge", "graph: edge (0, 5) out of range [0, 2)", func() { NewBuilder(2).AddEdge(0, 5) })

	const n = 3<<blockBits + 517
	slab := make([]uint64, chunkEdges+100)
	for i := range slab {
		slab[i] = Pack(int32(i%n), int32((i*7+1)%n))
		if u, v := Unpack(slab[i]); u == v {
			slab[i] = Pack(u, (v+1)%n)
		}
	}
	for _, bad := range []struct {
		at   int
		edge uint64
		want string
	}{
		{1000, Pack(3000, 3000), "graph: packed self loop at vertex 3000"},
		{len(slab) - 1, Pack(2500, n), fmt.Sprintf("graph: edge (2500, %d) out of range [0, %d)", n, n)},
		{len(slab) - 2, Pack(-1, 2<<blockBits), fmt.Sprintf("graph: edge (-1, %d) out of range [0, %d)", 2<<blockBits, n)},
	} {
		edges := slices.Clone(slab)
		edges[bad.at] = bad.edge
		mustPanic("FromPacked(unique)", bad.want, func() { FromPacked(n, edges, true) })
		mustPanic("FromPacked(dedup)", bad.want, func() { FromPacked(n, edges, false) })
	}
}

func TestCSRStructure(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	if g.N != 5 || g.EdgeCount != 3 {
		t.Fatalf("N=%d E=%d", g.N, g.EdgeCount)
	}
	// Sorted adjacency.
	n0 := g.Neighbors(0)
	if len(n0) != 2 || n0[0] != 1 || n0[1] != 3 {
		t.Errorf("Neighbors(0) = %v", n0)
	}
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d", g.Degree(2))
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(4, 3) || g.HasEdge(1, 4) {
		t.Error("CSR HasEdge wrong")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.MeanDegree(); math.Abs(got-6.0/5) > 1e-12 {
		t.Errorf("MeanDegree = %v", got)
	}
	h := g.DegreeHistogram()
	// Degrees: 0:2, 1:1, 2:0, 3:2, 4:1 → hist[0]=1, hist[1]=2, hist[2]=2.
	if h[0] != 1 || h[1] != 2 || h[2] != 2 {
		t.Errorf("DegreeHistogram = %v", h)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Count() != 6 {
		t.Errorf("initial Count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Error("Union of distinct sets returned false")
	}
	if uf.Union(0, 2) {
		t.Error("Union of same set returned true")
	}
	if !uf.Connected(0, 2) || uf.Connected(0, 3) {
		t.Error("Connected wrong")
	}
	if uf.Count() != 4 {
		t.Errorf("Count = %d", uf.Count())
	}
}

func TestUnionFindPropertyTransitive(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		uf := NewUnionFind(16)
		// Mirror with an explicit labels array.
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for _, op := range ops {
			a, b := int32(op[0]%16), int32(op[1]%16)
			uf.Union(a, b)
			relabel(labels[a], labels[b])
		}
		for i := int32(0); i < 16; i++ {
			for j := int32(0); j < 16; j++ {
				if uf.Connected(i, j) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated.
	g := b.Build()
	labels, sizes := Components(g)
	if len(sizes) != 4 {
		t.Fatalf("num components = %d", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("component {0,1,2} split")
	}
	if labels[3] != labels[4] {
		t.Error("component {3,4} split")
	}
	if labels[5] == labels[6] || labels[5] == labels[0] {
		t.Error("isolated vertices mislabeled")
	}
	members, _ := LargestComponent(g)
	if len(members) != 3 || members[0] != 0 || members[2] != 2 {
		t.Errorf("LargestComponent = %v", members)
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	members, label := LargestComponent(g)
	if members != nil || label != -1 {
		t.Errorf("empty graph largest component = %v, %d", members, label)
	}
}

// TestComponentsMatchesUnionFind holds Components to a union-find
// reference on sparse random graphs: ids in order of each component's
// smallest vertex, and the size of every component.
func TestComponentsMatchesUnionFind(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1, 0}, {50, 0.01}, {200, 0.004}, {300, 0.02}} {
		g := rngGraph(t, tc.n, tc.p)
		uf := NewUnionFind(tc.n)
		for u := int32(0); int(u) < tc.n; u++ {
			for _, v := range g.Neighbors(u) {
				uf.Union(u, v)
			}
		}
		id := map[int32]int32{}
		var wantSizes []int
		wantLabels := make([]int32, tc.n)
		for u := int32(0); int(u) < tc.n; u++ {
			r := uf.Find(u)
			l, ok := id[r]
			if !ok {
				l = int32(len(wantSizes))
				id[r] = l
				wantSizes = append(wantSizes, 0)
			}
			wantLabels[u] = l
			wantSizes[l]++
		}
		labels, sizes := Components(g)
		if !slices.Equal(labels, wantLabels) || !slices.Equal(sizes, wantSizes) {
			t.Errorf("n=%d p=%v: Components = %v %v, want %v %v",
				tc.n, tc.p, labels, sizes, wantLabels, wantSizes)
		}
	}
}

// TestComponentsAllocs: on a graph that is mostly isolated vertices (the
// subgraph a SENS build labels over all deployment points), allocations
// stay constant in the component count — labels, the BFS queue's growth
// along the one long path, and sizes.
func TestComponentsAllocs(t *testing.T) {
	const n, path = 10_000, 1000
	b := NewBuilder(n)
	for i := 0; i < path-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	if allocs := testing.AllocsPerRun(10, func() { Components(g) }); allocs > 6 {
		t.Errorf("Components allocates %v times, want ≤ 6", allocs)
	}
}

func TestBFSOnPath(t *testing.T) {
	g := pathGraph(10)
	dist := BFS(g, 0, nil)
	for i := 0; i < 10; i++ {
		if dist[i] != int32(i) {
			t.Errorf("dist[%d] = %d", i, dist[i])
		}
	}
	// Buffer reuse.
	dist2 := BFS(g, 9, dist)
	if dist2[0] != 9 {
		t.Errorf("reused-buffer BFS wrong: %v", dist2[0])
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	dist := BFS(g, 0, nil)
	if dist[2] != -1 || dist[3] != -1 {
		t.Error("unreachable vertices should be -1")
	}
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	p := BFSPath(g, 1, 4)
	want := []int32{1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v", p)
		}
	}
	if p := BFSPath(g, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("trivial path = %v", p)
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	if p := BFSPath(b.Build(), 0, 2); p != nil {
		t.Errorf("unreachable path = %v", p)
	}
}

func TestBFSPathIsShortest(t *testing.T) {
	// Cycle of length 8: path from 0 to 5 should use the short side (3 hops).
	b := NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(int32(i), int32((i+1)%8))
	}
	g := b.Build()
	p := BFSPath(g, 0, 5)
	if len(p)-1 != 3 {
		t.Errorf("cycle shortest path length = %d want 3 (path %v)", len(p)-1, p)
	}
	d := BFS(g, 0, nil)
	if d[5] != 3 {
		t.Errorf("BFS dist = %d", d[5])
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	g := rngGraph(t, 200, 0.03)
	unit := func(u, v int32) float64 { return 1 }
	d := Dijkstra(g, 0, unit)
	h := BFS(g, 0, nil)
	for i := 0; i < g.N; i++ {
		if h[i] < 0 {
			if !math.IsInf(d[i], 1) {
				t.Fatalf("vertex %d: BFS unreachable but Dijkstra %v", i, d[i])
			}
			continue
		}
		if math.Abs(d[i]-float64(h[i])) > 1e-9 {
			t.Fatalf("vertex %d: Dijkstra %v vs BFS %d", i, d[i], h[i])
		}
	}
}

// rngGraph builds a G(n, p) random graph.
func rngGraph(t *testing.T, n int, p float64) *CSR {
	t.Helper()
	g := rng.New(77)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Float64() < p {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return b.Build()
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle with a shortcut: 0−1 (1.0), 1−2 (1.0), 0−2 (2.5).
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	// Override distance 0−2 via positions: d(0,2) = 2 > d(0,1)+d(1,2) = 2 is
	// a tie; use a bent middle point instead.
	pos[1] = geom.Pt(1, 0.1)
	g := b.Build()
	w := EuclideanWeight(pos)
	d := Dijkstra(g, 0, w)
	// Direct edge 0−2 has length 2; via 1 it is ~2.01. Direct should win.
	if math.Abs(d[2]-2) > 1e-9 {
		t.Errorf("d[2] = %v want 2", d[2])
	}
	if got := DijkstraTo(g, 0, 2, w); math.Abs(got-2) > 1e-9 {
		t.Errorf("DijkstraTo = %v", got)
	}
	if got := DijkstraTo(g, 0, 2, PowerWeight(pos, 2)); math.Abs(got-(pos[0].Dist2(pos[1])+pos[1].Dist2(pos[2]))) > 1e-9 {
		// With beta=2 the two-hop path is cheaper: 1.01² ≈ two short hops.
		t.Errorf("power-weight DijkstraTo = %v", got)
	}
}

func TestDijkstraToUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	if got := DijkstraTo(g, 0, 2, func(u, v int32) float64 { return 1 }); !math.IsInf(got, 1) {
		t.Errorf("unreachable DijkstraTo = %v", got)
	}
}

func TestPowerWeight(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0)}
	w := PowerWeight(pos, 3)
	if got := w(0, 1); math.Abs(got-8) > 1e-12 {
		t.Errorf("PowerWeight = %v want 8", got)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := pathGraph(100000)
	var dist []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = BFS(g, 0, dist)
	}
}

func BenchmarkUnionFindComponents(b *testing.B) {
	bld := NewBuilder(100000)
	g := rng.New(3)
	for i := 0; i < 200000; i++ {
		u := int32(g.IntN(100000))
		v := int32(g.IntN(100000))
		if u != v {
			bld.AddEdge(u, v)
		}
	}
	csr := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Components(csr)
	}
}

func TestLargestComponentWhere(t *testing.T) {
	// Path 0-1-2-3-4; dropping vertex 2 leaves components {0,1} and {3,4}.
	b := NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	c := b.Build()
	alive := []bool{true, true, true, true, true}
	keep := func(u int32) bool { return alive[u] }
	if got := LargestComponentWhere(c, nil, keep); got != 5 {
		t.Errorf("all alive: %d, want 5", got)
	}
	alive[2] = false
	if got := LargestComponentWhere(c, nil, keep); got != 2 {
		t.Errorf("split: %d, want 2", got)
	}
	if got := LargestComponentWhere(c, nil, func(int32) bool { return false }); got != 0 {
		t.Errorf("all dead: %d, want 0", got)
	}
	// Restricting to a member subset ignores edges to non-members' side
	// only via keep; members {0, 1} alone count 2 even while all alive.
	alive[2] = true
	if got := LargestComponentWhere(c, []int32{0, 1}, keep); got != 2 {
		t.Errorf("member subset: %d, want 2", got)
	}
}
