package hng

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/spatial"
)

func deployment(t testing.TB, side, lambda float64, seed rng.Seed) []geom.Point {
	t.Helper()
	pts := pointprocess.Poisson(geom.Box(side, side), lambda, rng.New(seed))
	if len(pts) < 10 {
		t.Fatalf("deployment too small: %d points", len(pts))
	}
	return pts
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{
		{P: 0}, {P: 1}, {P: -0.5}, {P: 1.5}, {P: math.NaN()},
		{P: 0.5, MaxChildren: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v should be invalid", bad)
		}
		if _, err := Build(nil, bad, rng.New(1)); err == nil {
			t.Errorf("Build(%+v) should fail", bad)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
}

func TestBuildEmptyAndSingleton(t *testing.T) {
	g, err := Build(nil, DefaultSpec(), rng.New(1))
	if err != nil || g.N != 0 || g.EdgeCount != 0 {
		t.Fatalf("empty build: %v %+v", err, g)
	}
	g, err = Build([]geom.Point{geom.Pt(1, 2)}, DefaultSpec(), rng.New(1))
	if err != nil || g.N != 1 || g.EdgeCount != 0 || g.Levels[0] < 1 {
		t.Fatalf("singleton build: %v %+v", err, g)
	}
}

// TestBuildConnected pins the construction's headline invariant: up-links
// plus the top-level MST connect every node, at any promotion probability
// and with or without pruning.
func TestBuildConnected(t *testing.T) {
	pts := deployment(t, 20, 8, 42)
	for _, spec := range []Spec{
		{P: 0.05, MaxChildren: 0},
		{P: 0.125, MaxChildren: 6},
		{P: 0.3, MaxChildren: 3},
		{P: 0.7, MaxChildren: 2},
	} {
		g, err := Build(pts, spec, rng.New(7))
		if err != nil {
			t.Fatalf("Build(%+v): %v", spec, err)
		}
		members, _ := graph.LargestComponent(g.CSR)
		if len(members) != len(pts) {
			t.Errorf("spec %+v: largest component %d of %d — not connected",
				spec, len(members), len(pts))
		}
		if g.Stats.Levels < 1 || g.Stats.LevelSizes[0] != len(pts) {
			t.Errorf("spec %+v: bad stats %+v", spec, g.Stats)
		}
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS pins the pipeline contract: same
// seed ⇒ byte-identical CSR, levels and stats at any worker count.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pts := deployment(t, 24, 10, 11)
	spec := Spec{P: 0.2, MaxChildren: 4}
	build := func(gmp int) *Graph {
		prev := runtime.GOMAXPROCS(gmp)
		defer runtime.GOMAXPROCS(prev)
		g, err := Build(pts, spec, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(1), build(8)
	if fmt.Sprint(a.Levels) != fmt.Sprint(b.Levels) {
		t.Fatal("levels differ across GOMAXPROCS")
	}
	if fmt.Sprint(a.Start) != fmt.Sprint(b.Start) || fmt.Sprint(a.Adj) != fmt.Sprint(b.Adj) {
		t.Fatal("CSR differs across GOMAXPROCS")
	}
	if fmt.Sprintf("%+v", a.Stats) != fmt.Sprintf("%+v", b.Stats) {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestPruningBoundsDegree checks the chaining scheme does its job: with a
// small promotion probability most level-2 parents attract far more than
// MaxChildren children, pruning reroutes the overflow, and the realized
// maximum degree drops strictly below the unpruned build's while the graph
// stays connected.
func TestPruningBoundsDegree(t *testing.T) {
	pts := deployment(t, 30, 8, 5)
	loose, err := Build(pts, Spec{P: 0.02, MaxChildren: 0}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Build(pts, Spec{P: 0.02, MaxChildren: 4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.PrunedParents == 0 || tight.Stats.ChainEdges == 0 {
		t.Fatalf("pruning never triggered: %+v", tight.Stats)
	}
	if tight.MaxDegree() >= loose.MaxDegree() {
		t.Errorf("pruned max degree %d not below unpruned %d",
			tight.MaxDegree(), loose.MaxDegree())
	}
	members, _ := graph.LargestComponent(tight.CSR)
	if len(members) != len(pts) {
		t.Errorf("pruned build disconnected: %d of %d", len(members), len(pts))
	}
	// Up + chain links together cover every attachment exactly once.
	if got, want := tight.Stats.UpEdges+tight.Stats.ChainEdges,
		loose.Stats.UpEdges+loose.Stats.ChainEdges; got != want {
		t.Errorf("attachment count changed under pruning: %d vs %d", got, want)
	}
}

// referenceEdges is an independent serial reimplementation of the
// construction: brute-force nearest neighbors (same (dist, index)
// tie-break as the grid), the chaining scheme, and a Kruskal MST for
// the top level. Build must produce exactly this edge set.
func referenceEdges(pts []geom.Point, spec Spec, levels []int32) map[uint64]bool {
	n := len(pts)
	top := int32(1)
	for _, l := range levels {
		if l > top {
			top = l
		}
	}
	bySet := make([][]int32, top+1) // 1-based: bySet[i] = {u : ℓ(u) ≥ i}
	for i := int32(1); i <= top; i++ {
		for u := 0; u < n; u++ {
			if levels[u] >= i {
				bySet[i] = append(bySet[i], int32(u))
			}
		}
	}
	edges := map[uint64]bool{}
	subPts := func(ids []int32) []geom.Point {
		sp := make([]geom.Point, len(ids))
		for j, u := range ids {
			sp[j] = pts[u]
		}
		return sp
	}
	// Within-level links at each node's top level.
	for i := int32(1); i <= top; i++ {
		set := bySet[i]
		if len(set) < 2 {
			continue
		}
		sp := subPts(set)
		for j, u := range set {
			if levels[u] != i {
				continue
			}
			nb := spatial.BruteKNearest(sp, sp[j], 1, j)
			edges[graph.Pack(u, set[nb[0]])] = true
		}
	}
	// Up-links with chaining.
	type attach struct {
		child int32
		dist  float64
	}
	for i := int32(1); i < top; i++ {
		if len(bySet[i+1]) == 0 {
			continue
		}
		targets := bySet[i+1]
		tp := subPts(targets)
		byParent := map[int32][]attach{}
		for _, u := range bySet[i] {
			if levels[u] != i {
				continue
			}
			nb := spatial.BruteKNearest(tp, pts[u], 1, -1)
			p := targets[nb[0]]
			byParent[p] = append(byParent[p], attach{child: u, dist: pts[u].Dist(pts[p])})
		}
		var parents []int32
		for p := range byParent {
			parents = append(parents, p)
		}
		sort.Slice(parents, func(a, b int) bool { return parents[a] < parents[b] })
		for _, p := range parents {
			group := byParent[p]
			sort.Slice(group, func(a, b int) bool {
				if group[a].dist != group[b].dist {
					return group[a].dist < group[b].dist
				}
				return group[a].child < group[b].child
			})
			for k, a := range group {
				if spec.MaxChildren == 0 || k < spec.MaxChildren {
					edges[graph.Pack(p, a.child)] = true
				} else {
					edges[graph.Pack(group[k-spec.MaxChildren].child, a.child)] = true
				}
			}
		}
	}
	// Top-level MST via Kruskal (the implementation uses Prim — both yield
	// the unique MST for distinct edge lengths).
	if set := bySet[top]; len(set) > 1 {
		type e struct {
			u, v int32
			d    float64
		}
		var all []e
		for a := 0; a < len(set); a++ {
			for b := a + 1; b < len(set); b++ {
				all = append(all, e{set[a], set[b], pts[set[a]].Dist(pts[set[b]])})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return graph.Pack(all[i].u, all[i].v) < graph.Pack(all[j].u, all[j].v)
		})
		root := map[int32]int32{}
		var find func(x int32) int32
		find = func(x int32) int32 {
			r, ok := root[x]
			if !ok || r == x {
				return x
			}
			r = find(r)
			root[x] = r
			return r
		}
		added := 0
		for _, ed := range all {
			ra, rb := find(ed.u), find(ed.v)
			if ra == rb {
				continue
			}
			root[ra] = rb
			edges[graph.Pack(ed.u, ed.v)] = true
			if added++; added == len(set)-1 {
				break
			}
		}
	}
	return edges
}

// TestBuildMatchesBruteForceReference cross-checks the full parallel
// construction against the independent serial reference on several small
// random deployments, with and without pruning.
func TestBuildMatchesBruteForceReference(t *testing.T) {
	for seed := rng.Seed(1); seed <= 6; seed++ {
		pts := pointprocess.Poisson(geom.Box(8, 8), 4, rng.New(seed))
		if len(pts) < 2 {
			continue
		}
		for _, spec := range []Spec{{P: 0.25, MaxChildren: 0}, {P: 0.25, MaxChildren: 2}} {
			g, err := Build(pts, spec, rng.New(seed+100))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEdges(pts, spec, g.Levels)
			got := map[uint64]bool{}
			for u := int32(0); int(u) < g.N; u++ {
				for _, v := range g.Neighbors(u) {
					if v > u {
						got[graph.Pack(u, v)] = true
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("seed %d spec %+v: %d edges, reference has %d",
					seed, spec, len(got), len(want))
			}
			for e := range got {
				if !want[e] {
					u, v := graph.Unpack(e)
					t.Errorf("seed %d spec %+v: unexpected edge {%d, %d}", seed, spec, u, v)
				}
			}
			for e := range want {
				if !got[e] {
					u, v := graph.Unpack(e)
					t.Errorf("seed %d spec %+v: missing edge {%d, %d}", seed, spec, u, v)
				}
			}
		}
	}
}

func TestVerticesAndString(t *testing.T) {
	pts := deployment(t, 10, 4, 8)
	g, err := Build(pts, DefaultSpec(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	vs := g.Vertices()
	if len(vs) != len(pts) || vs[0] != 0 || vs[len(vs)-1] != int32(len(pts)-1) {
		t.Errorf("Vertices() = %d entries", len(vs))
	}
	if s := g.String(); s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}
