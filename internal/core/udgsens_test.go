package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// sameNetwork asserts the two networks are byte-identical in everything the
// construction determines: graph, membership, per-tile elections, coupled
// lattice and accounting.
func sameNetwork(t *testing.T, label string, a, b *Network) {
	t.Helper()
	sameGraph := func(what string, x, y *graph.CSR) {
		if x.N != y.N || x.EdgeCount != y.EdgeCount {
			t.Fatalf("%s: %s N/EdgeCount differ: (%d, %d) vs (%d, %d)",
				label, what, x.N, x.EdgeCount, y.N, y.EdgeCount)
		}
		for i := range x.Start {
			if x.Start[i] != y.Start[i] {
				t.Fatalf("%s: %s Start[%d] = %d vs %d", label, what, i, x.Start[i], y.Start[i])
			}
		}
		for i := range x.Adj {
			if x.Adj[i] != y.Adj[i] {
				t.Fatalf("%s: %s Adj[%d] = %d vs %d", label, what, i, x.Adj[i], y.Adj[i])
			}
		}
	}
	sameGraph("subgraph", a.Graph, b.Graph)
	if (a.Base == nil) != (b.Base == nil) {
		t.Fatalf("%s: base presence differs", label)
	}
	if a.Base != nil {
		sameGraph("base", a.Base.CSR, b.Base.CSR)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, a.Stats, b.Stats)
	}
	if len(a.Members) != len(b.Members) {
		t.Fatalf("%s: member counts %d vs %d", label, len(a.Members), len(b.Members))
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("%s: Members[%d] = %d vs %d", label, i, a.Members[i], b.Members[i])
		}
	}
	for i := range a.InNet {
		if a.InNet[i] != b.InNet[i] {
			t.Fatalf("%s: InNet[%d] differs", label, i)
		}
	}
	if len(a.Tiles) != len(b.Tiles) {
		t.Fatalf("%s: tile counts %d vs %d", label, len(a.Tiles), len(b.Tiles))
	}
	for i := range a.Tiles {
		if a.Tiles[i] != b.Tiles[i] {
			t.Fatalf("%s: tile %v differs: %+v vs %+v", label, a.Map.TileAt(i), a.Tiles[i], b.Tiles[i])
		}
	}
	if (a.Lat == nil) != (b.Lat == nil) {
		t.Fatalf("%s: lattice presence differs", label)
	}
	if a.Lat != nil {
		if a.Lat.W != b.Lat.W || a.Lat.H != b.Lat.H {
			t.Fatalf("%s: lattice dims differ", label)
		}
		for i := range a.Lat.Open {
			if a.Lat.Open[i] != b.Lat.Open[i] {
				t.Fatalf("%s: lattice site %d differs", label, i)
			}
		}
	}
}

// buildUDGReference is the map-walking UDG-SENS construction the tile
// kernel replaced, kept as the kernel's oracle. Every occupied tile of the
// tiling.AssignTiles map classifies and elects in map order, then every
// good tile wires through map lookups of its neighbors, one edge at a time
// into a graph.Builder; the base graph comes from the per-point rgg.UDG
// query path. It shares with BuildUDG only the region geometry, the
// elections and finalize.
func buildUDGReference(pts []geom.Point, box geom.Rect, spec tiling.UDGSpec, opt Options) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Kind: KindUDG, Pts: pts, Box: box, Map: tiling.NewMap(box, spec.Side), UDGSpec: &spec}
	n.Base = opt.Base
	if n.Base == nil && !opt.SkipBase {
		n.Base = rgg.UDG(pts, spec.Radius)
	}
	if n.Base != nil && n.Base.N != len(pts) {
		return nil, fmt.Errorf("base graph has %d vertices, deployment has %d", n.Base.N, len(pts))
	}
	if opt.Alive != nil && len(opt.Alive) != len(pts) {
		return nil, fmt.Errorf("alive mask has %d entries, deployment has %d", len(opt.Alive), len(pts))
	}
	empty := TileNodes{Rep: -1, Bridge: [4]int32{-1, -1, -1, -1}, Disk: [4]int32{-1, -1, -1, -1}}
	gm := spec.Compile()
	tiles := make(map[tiling.Coord]TileNodes)
	var esc election.Scratch
	for c, idx := range tiling.AssignTiles(n.Map, pts) {
		var regions [5][]int32 // C0, relay right/left/top/bottom
		tn := empty
		for _, i := range idx {
			if opt.Alive != nil && !opt.Alive[i] {
				continue
			}
			tn.Population++
			switch r := gm.Classify(n.Map.Tiling.Local(c, pts[i])); r {
			case tiling.UC0:
				regions[0] = append(regions[0], i)
			case tiling.URelayRight, tiling.URelayLeft, tiling.URelayTop, tiling.URelayBottom:
				d := 1 + int(r-tiling.URelayRight)
				regions[d] = append(regions[d], i)
			}
		}
		tn.Rep = electRegion(opt.Election, regions[0], &n.Stats, &esc)
		tn.Good = tn.Rep >= 0
		for d := range tn.Bridge {
			tn.Bridge[d] = electRegion(opt.Election, regions[1+d], &n.Stats, &esc)
			tn.Good = tn.Good && tn.Bridge[d] >= 0
		}
		tiles[c] = tn
	}
	// Every handshake is counted and audited against the base; the relaxed
	// mode drops an edge longer than the radius.
	relaxed := spec.Mode == tiling.GeometryRelaxed
	b := graph.NewBuilder(len(pts))
	connect := func(u, v int32) {
		n.Stats.HandshakeAttempts++
		if n.Base != nil && !n.Base.HasEdge(u, v) {
			n.Stats.MissingBaseEdges++
		}
		if relaxed && pts[u].Dist2(pts[v]) > spec.Radius*spec.Radius {
			n.Stats.HandshakeFailures++
			return
		}
		b.AddEdge(u, v)
	}
	for c, tn := range tiles {
		if !tn.Good {
			continue
		}
		for d := range tiling.Directions {
			connect(tn.Rep, tn.Bridge[d])
		}
		for _, d := range []tiling.Direction{tiling.Right, tiling.Top} {
			if nb, ok := tiles[c.Neighbor(d)]; ok && nb.Good {
				connect(tn.Bridge[d], nb.Bridge[d.Opposite()])
			}
		}
	}
	n.Tiles = make([]TileNodes, n.Map.Tiles())
	for t := range n.Tiles {
		tn, ok := tiles[n.Map.TileAt(t)]
		if !ok {
			tn = empty
		}
		n.Tiles[t] = tn
	}
	n.finalize(b.Build())
	if spec.Mode == tiling.GeometryRepaired && n.Stats.MissingBaseEdges > 0 {
		return nil, fmt.Errorf("repaired-geometry invariant violated: %d missing base edges", n.Stats.MissingBaseEdges)
	}
	return n, nil
}

// TestShardedMatchesSerialAt10k is the oracle gate of the tile kernel:
// BuildUDG must reproduce the map-walking reference exactly on a 10⁴-point
// deployment, across geometry modes and with/without the base graph.
func TestShardedMatchesSerialAt10k(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(25, 25), 16, rng.New(81))
	if len(pts) < 9000 {
		t.Fatalf("deployment too small (%d) for the 10k gate", len(pts))
	}
	box := geom.Box(25, 25)
	cases := []struct {
		name string
		spec tiling.UDGSpec
		opt  Options
	}{
		{"repaired-skipbase", tiling.DefaultUDGSpec(), Options{SkipBase: true}},
		{"repaired-base", tiling.DefaultUDGSpec(), Options{}},
		{"relaxed-base", tiling.RelaxedUDGSpec(), Options{}},
		{"relaxed-skipbase", tiling.RelaxedUDGSpec(), Options{SkipBase: true}},
		{"literal", tiling.PaperUDGSpec(), Options{SkipBase: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, err := buildUDGReference(pts, box, c.spec, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildUDG(pts, box, c.spec, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			sameNetwork(t, c.name, ref, got)
		})
	}
}

// TestShardedMatchesSerialWithAliveMask covers the masked-deployment path
// (dead points take no part in elections but keep their indices).
func TestShardedMatchesSerialWithAliveMask(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(12, 12), 16, rng.New(82))
	box := geom.Box(12, 12)
	alive := make([]bool, len(pts))
	g := rng.New(83)
	for i := range alive {
		alive[i] = g.Float64() > 0.3
	}
	opt := Options{SkipBase: true, Alive: alive}
	ref, err := buildUDGReference(pts, box, tiling.DefaultUDGSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildUDG(pts, box, tiling.DefaultUDGSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, "alive-mask", ref, got)
}

// TestShardedDeterministicAcrossGOMAXPROCS pins BuildUDG to the determinism
// contract at worker counts 1 and 8 on a deployment of more than
// parallel.DefaultGrain tiles, so both phases really run several shards,
// and checks both against the reference.
func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	box := geom.Box(54, 54)
	pts := pointprocess.Poisson(box, 16, rng.New(84))
	spec := tiling.DefaultUDGSpec()
	if nt := tiling.NewMap(box, spec.Side).Tiles(); nt <= parallel.DefaultGrain {
		t.Fatalf("%d tiles fit one shard", nt)
	}
	ref, err := buildUDGReference(pts, box, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := BuildUDG(pts, box, spec, Options{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		sameNetwork(t, fmt.Sprintf("GOMAXPROCS %d", procs), ref, got)
	}
}

// TestShardedErrorPaths covers BuildUDG's argument validation and its
// deprecated BuildUDGSharded alias.
func TestShardedErrorPaths(t *testing.T) {
	pts := pointprocess.Poisson(geom.Box(6, 6), 8, rng.New(85))
	box := geom.Box(6, 6)
	bad := tiling.DefaultUDGSpec()
	bad.Side = -1
	if _, err := BuildUDG(pts, box, bad, Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := BuildUDG(pts, box, tiling.DefaultUDGSpec(), Options{Alive: []bool{true}}); err == nil {
		t.Error("mis-sized alive mask accepted")
	}
	wrongBase := rgg.UDG(pts[:4], 1)
	if _, err := BuildUDG(pts, box, tiling.DefaultUDGSpec(), Options{Base: wrongBase}); err == nil {
		t.Error("mis-sized base graph accepted")
	}
	small, err := BuildUDGSharded(nil, box, tiling.DefaultUDGSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Members) != 0 || small.Stats.GoodTiles != 0 {
		t.Error("empty deployment should yield empty network")
	}
	for i, tn := range small.Tiles {
		if tn.Population != 0 || tn.Rep != -1 || tn.Bridge != [4]int32{-1, -1, -1, -1} || tn.Disk != [4]int32{-1, -1, -1, -1} {
			t.Fatalf("empty tile %d = %+v, want population 0 and every index -1", i, tn)
		}
	}
	if small.Tile(tiling.Coord{I: -1, J: 0}) != nil {
		t.Error("Tile outside the window should be nil")
	}
}
