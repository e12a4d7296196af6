package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// edgeSlab is the per-Adj Euclidean weight slab DijkstraEdgesInto reads,
// filled with the same values EuclideanWeight computes per relaxation.
func edgeSlab(g *CSR, pos []geom.Point) []float64 {
	w := make([]float64, len(g.Adj))
	for u := int32(0); int(u) < g.N; u++ {
		for i := g.Start[u]; i < g.Start[u+1]; i++ {
			w[i] = pos[u].Dist(pos[g.Adj[i]])
		}
	}
	return w
}

// checkBoundedSweep runs the bounded and full sweeps from src on one pair
// of scratches and checks that: the full edge-slab sweep equals the
// closure oracle bit for bit on every vertex; the bounded Dijkstra and BFS
// equal the full sweeps on every target; and both scratches come back with
// no target marked.
func checkBoundedSweep(t *testing.T, g *CSR, pos []geom.Point, src int32, targets []int32, ds *DijkstraScratch, ps *PathScratch) {
	t.Helper()
	w := edgeSlab(g, pos)
	want := Dijkstra(g, src, EuclideanWeight(pos))
	full := DijkstraEdgesInto(g, src, nil, w, nil, ds)
	for v := range want {
		if math.Float64bits(full[v]) != math.Float64bits(want[v]) {
			t.Fatalf("n=%d src=%d: full sweep dist[%d] = %v, oracle %v", g.N, src, v, full[v], want[v])
		}
	}
	fullHops := BFSInto(g, src, nil, nil, ps)
	got := DijkstraEdgesInto(g, src, targets, w, nil, ds)
	hops := BFSInto(g, src, targets, nil, ps)
	for _, v := range targets {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("n=%d src=%d targets=%v: bounded dist[%d] = %v, full %v", g.N, src, targets, v, got[v], want[v])
		}
		if hops[v] != fullHops[v] {
			t.Fatalf("n=%d src=%d targets=%v: bounded hops[%d] = %d, full %d", g.N, src, targets, v, hops[v], fullHops[v])
		}
	}
	for _, m := range []*targetMarks{&ds.marks, &ps.marks} {
		if m.left != 0 {
			t.Fatalf("n=%d: %d targets left pending after the sweep", g.N, m.left)
		}
		for v, on := range m.marked {
			if on {
				t.Fatalf("n=%d: stale mark on vertex %d after the sweep", g.N, v)
			}
		}
	}
}

// randomGeometric returns n random points in a 10×10 box and the graph
// joining pairs closer than r: connected for large r, split into
// components and isolated vertices for small r.
func randomGeometric(r *rand.Rand, n int, radius float64) (*CSR, []geom.Point) {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Pt(10*r.Float64(), 10*r.Float64())
	}
	b := NewBuilder(n)
	for i := range pos {
		for j := i + 1; j < n; j++ {
			if pos[i].Dist(pos[j]) < radius {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return b.Build(), pos
}

// TestBoundedSweepMatchesFullSweep checks the target-bounded sweeps
// against full ones on random graphs, connected and not, for every shape
// of target set: nil, empty, one target, the source itself, duplicates,
// every vertex, random subsets and unreachable targets. One pair of
// scratches serves every graph and sweep.
func TestBoundedSweepMatchesFullSweep(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var ds DijkstraScratch
	var ps PathScratch
	for _, tc := range []struct {
		n      int
		radius float64
	}{{1, 1}, {2, 20}, {30, 4}, {200, 1.5}, {200, 0.6}, {400, 0.3}} {
		g, pos := randomGeometric(r, tc.n, tc.radius)
		labels, _ := Components(g)
		for trial := 0; trial < 8; trial++ {
			src := int32(r.Intn(tc.n))
			all := make([]int32, tc.n)
			for i := range all {
				all[i] = int32(i)
			}
			random := make([]int32, 1+r.Intn(6))
			for i := range random {
				random[i] = int32(r.Intn(tc.n))
			}
			v := int32(r.Intn(tc.n))
			sets := [][]int32{nil, {}, {v}, {src}, {v, v, src, v}, all, random}
			for u := range labels {
				if labels[u] != labels[src] {
					sets = append(sets, []int32{int32(u), v}, []int32{v, int32(u), src})
					break
				}
			}
			for _, targets := range sets {
				checkBoundedSweep(t, g, pos, src, targets, &ds, &ps)
			}
		}
	}
}

// TestBoundedSweepStopsEarly pins the exit itself: on a path, a sweep
// bounded by a near target never reaches the far end, and one bounded by
// the source settles nothing else.
func TestBoundedSweepStopsEarly(t *testing.T) {
	g := pathGraph(10)
	pos := make([]geom.Point, g.N)
	for i := range pos {
		pos[i] = geom.Pt(float64(i), 0)
	}
	w := edgeSlab(g, pos)
	d := DijkstraEdgesInto(g, 0, []int32{2}, w, nil, nil)
	if d[2] != 2 || !math.IsInf(d[9], 1) {
		t.Errorf("Dijkstra bounded by {2}: dist[2] = %v, dist[9] = %v; want 2 and +Inf", d[2], d[9])
	}
	h := BFSInto(g, 0, []int32{2}, nil, nil)
	if h[2] != 2 || h[9] != -1 {
		t.Errorf("BFS bounded by {2}: hops[2] = %d, hops[9] = %d; want 2 and -1", h[2], h[9])
	}
	if h := BFSInto(g, 4, []int32{4}, nil, nil); h[4] != 0 || h[3] != -1 || h[5] != -1 {
		t.Errorf("BFS bounded by its source discovered neighbors: %v", h)
	}
}

// TestSweepScratchAcrossGraphSizes reuses one scratch across graphs of
// different N, large to small and back: each sweep must answer as a fresh
// scratch would and leave no mark behind, including marks on vertices past
// the smaller graph's range and on targets a completed sweep never reached.
func TestSweepScratchAcrossGraphSizes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	big, bigPos := randomGeometric(r, 1500, 0.35)
	small, smallPos := randomGeometric(r, 7, 6)
	var ds DijkstraScratch
	var ps PathScratch
	checkBoundedSweep(t, big, bigPos, 0, []int32{1499, 1200, 3}, &ds, &ps)
	checkBoundedSweep(t, small, smallPos, 6, []int32{0, 2}, &ds, &ps)
	checkBoundedSweep(t, big, bigPos, 1499, []int32{0}, &ds, &ps)
	checkBoundedSweep(t, small, smallPos, 0, nil, &ds, &ps)
}

// FuzzBoundedSweep checks bounded sweeps against the oracle on arbitrary
// edge multisets and target sets. The first byte picks n in [1, 64], the
// second the source, the third the target count k (0 means nil targets);
// the next k bytes are targets and every further pair of bytes one
// AddEdge. Vertex i sits at (i mod 7, 3i mod 5), so coincident points give
// zero-weight edges and equal distances give tied pops.
func FuzzBoundedSweep(f *testing.F) {
	f.Add([]byte{9, 0, 2, 5, 8, 0, 1, 1, 2, 2, 3, 5, 6, 7, 8})
	f.Add([]byte{63, 7, 3, 7, 7, 40, 7, 8, 8, 9, 7, 14, 14, 21, 21, 28, 40, 41})
	f.Add([]byte{0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%64
		src := int32(int(data[1]) % n)
		k := int(data[2]) % 8
		data = data[3:]
		var targets []int32
		for ; k > 0 && len(data) > 0; k, data = k-1, data[1:] {
			targets = append(targets, int32(int(data[0])%n))
		}
		b := NewBuilder(n)
		for ; len(data) >= 2; data = data[2:] {
			b.AddEdge(int32(int(data[0])%n), int32(int(data[1])%n))
		}
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Pt(float64(i%7), float64(3*i%5))
		}
		var ds DijkstraScratch
		var ps PathScratch
		checkBoundedSweep(t, b.Build(), pos, src, targets, &ds, &ps)
	})
}
