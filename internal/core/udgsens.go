package core

import (
	"fmt"
	"sync"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rgg"
	"repro/internal/tiling"
)

// BuildUDG constructs UDG-SENS(2, λ) over the deployment pts in box with
// the given tile geometry, following Figure 7:
//
//   - every mapped tile classifies its points into C0 and the four relay
//     regions and elects a leader per occupied region;
//   - a tile is good when all five regions elected a leader;
//   - each good tile connects its representative to its four relays, and
//     relays of adjacent good tiles connect across the shared boundary.
//
// The construction runs as two data-parallel phases of the tile kernel
// (udgKernel) over the dense tile slab of tiling.AssignTilesCSR: elect over
// every tile, then wire over every tile. Tiles share nothing within a
// phase, so both shard freely; shard boundaries depend only on the tile
// count, the edge list feeds the insertion-order independent cache-blocked
// CSR build, and accounting folds through order-independent sums and maxes
// — the result is byte-identical at any GOMAXPROCS. Below
// parallel.DefaultGrain tiles (≈ 3.7·10⁴ points at λ = 16 in the default
// geometry) the build is one shard and runs serially. When the base graph
// is neither supplied nor skipped it is built with rgg.UDGGrid.
//
// In GeometryRepaired mode every such edge is within the connection radius
// by construction (tiling.UDGSpec.Validate) and the build fails loudly if a
// base-graph check ever disagrees. In GeometryRelaxed mode the connect()
// handshake is allowed to fail: an edge whose endpoints are farther apart
// than spec.Radius (inRange, the predicate rgg.UDGGrid builds the base
// with) is dropped and counted in HandshakeFailures. The rule reads only
// the two endpoints, so a build with a base graph and one with SkipBase
// install the same edges; the base only feeds MissingBaseEdges. In
// GeometryLiteral mode no tile can be good and the result is an empty
// network (the paper's defect, preserved for the negative experiment).
func BuildUDG(pts []geom.Point, box geom.Rect, spec tiling.UDGSpec, opt Options) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Kind:    KindUDG,
		Pts:     pts,
		Box:     box,
		Map:     tiling.NewMap(box, spec.Side),
		UDGSpec: &spec,
	}
	n.Base = opt.Base
	if n.Base == nil && !opt.SkipBase {
		n.Base = rgg.UDGGrid(pts, spec.Radius)
	}
	if n.Base != nil && n.Base.N != len(pts) {
		return nil, fmt.Errorf("sens: base graph has %d vertices, deployment has %d", n.Base.N, len(pts))
	}
	if opt.Alive != nil && len(opt.Alive) != len(pts) {
		return nil, fmt.Errorf("sens: alive mask has %d entries, deployment has %d", len(opt.Alive), len(pts))
	}

	kern := udgKernel{m: n.Map, gm: spec.Compile(), alg: opt.Election}
	start, order := tiling.AssignTilesCSR(n.Map, pts)
	nt := n.Map.Tiles()
	n.Tiles = make([]TileNodes, nt)
	var mu sync.Mutex // guards n.Stats while shards merge their accounting

	// Phase 1: every tile elects into its own slab entry.
	parallel.ForShard(nt, func(lo, hi int) {
		var s tileScratch
		for t := lo; t < hi; t++ {
			n.Tiles[t] = kern.elect(t, pts, order[start[t]:start[t+1]], opt.Alive, &s)
		}
		mu.Lock()
		n.Stats.merge(s.st)
		mu.Unlock()
	})

	// Phase 2: every good tile wires its own edges and stitches its Right
	// and Top borders. The relaxed mode lets handshakes fail; the repaired
	// mode treats a missing base edge as a construction bug.
	relaxed := spec.Mode == tiling.GeometryRelaxed
	edges := parallel.CollectCap(nt, parallel.DefaultGrain, 6*min(nt, parallel.DefaultGrain),
		func(lo, hi int, out []uint64) []uint64 {
			var st Stats
			handshake := func(u, v int32) bool {
				countHandshake(n.Base, u, v, &st)
				if relaxed && !inRange(pts, spec.Radius, u, v) {
					st.HandshakeFailures++
					return false
				}
				return true
			}
			for t := lo; t < hi; t++ {
				out = kern.wire(n.Tiles, t, out, handshake)
			}
			mu.Lock()
			n.Stats.merge(st)
			mu.Unlock()
			return out
		})
	n.finalize(graph.FromPacked(len(pts), edges, true))

	if spec.Mode == tiling.GeometryRepaired && n.Stats.MissingBaseEdges > 0 {
		return nil, fmt.Errorf("sens: repaired-geometry invariant violated: %d SENS edges absent from UDG base",
			n.Stats.MissingBaseEdges)
	}
	return n, nil
}

// inRange is the relaxed-mode connect() handshake: the edge {u, v} is
// installed iff d(u, v)² ≤ r², the predicate rgg.UDGGrid keeps an edge by.
func inRange(pts []geom.Point, r float64, u, v int32) bool {
	return pts[u].Dist2(pts[v]) <= r*r
}

// BuildUDGSharded is BuildUDG.
//
// Deprecated: BuildUDG is the tile-sharded build; call it directly.
func BuildUDGSharded(pts []geom.Point, box geom.Rect, spec tiling.UDGSpec, opt Options) (*Network, error) {
	return BuildUDG(pts, box, spec, opt)
}

// udgKernel is the UDG-SENS per-tile construction of Figure 7 over the
// φ-indexed tile slab (tile t = y·W + x of the mapped window). Its two steps
// are the only implementation of the construction's tile logic: BuildUDG
// runs elect and then wire over every tile, and Kinetic re-runs them on the
// tiles a motion event dirties.
type udgKernel struct {
	m   tiling.Map
	gm  *tiling.UDGGeometry
	alg election.Algorithm
}

// tileScratch is one worker's reusable elect state; st accumulates the
// election cost of every tile it elected.
type tileScratch struct {
	esc     election.Scratch
	local   []geom.Point
	regions [5][]int32 // C0, relay right/left/top/bottom
	st      Stats
}

// elect classifies the live points idx of tile t (alive nil: all points are
// live) into C0 and the four relay regions and elects one leader per
// region; the tile is good when all five elected. idx must be ascending —
// the candidate order every election sees.
func (k *udgKernel) elect(t int, pts []geom.Point, idx []int32, alive []bool, s *tileScratch) TileNodes {
	tn := TileNodes{Disk: [4]int32{-1, -1, -1, -1}}
	s.local = tiling.LocalPoints(k.m, k.m.TileAt(t), pts, idx, s.local)
	for r := range s.regions {
		s.regions[r] = s.regions[r][:0]
	}
	for i, p := range s.local {
		if alive != nil && !alive[idx[i]] {
			continue
		}
		tn.Population++
		switch r := k.gm.Classify(p); r {
		case tiling.UC0:
			s.regions[0] = append(s.regions[0], idx[i])
		case tiling.URelayRight, tiling.URelayLeft, tiling.URelayTop, tiling.URelayBottom:
			d := 1 + int(r-tiling.URelayRight)
			s.regions[d] = append(s.regions[d], idx[i])
		}
	}
	tn.Rep = electRegion(k.alg, s.regions[0], &s.st, &s.esc)
	tn.Good = tn.Rep >= 0
	for d := range tn.Bridge {
		tn.Bridge[d] = electRegion(k.alg, s.regions[1+d], &s.st, &s.esc)
		tn.Good = tn.Good && tn.Bridge[d] >= 0
	}
	return tn
}

// wire appends the edges tile t owns to dst: when t is good, its four
// rep↔relay edges and, toward a good Right or Top neighbor, the relay ↔
// facing-relay edge across the shared border. Each border is stitched by
// exactly one of its two tiles, so the tiles' edge lists are pairwise
// disjoint. handshake, when non-nil, is the connect() call that decides
// each edge; nil accepts every edge.
func (k *udgKernel) wire(tiles []TileNodes, t int, dst []uint64, handshake func(u, v int32) bool) []uint64 {
	tn := &tiles[t]
	if !tn.Good {
		return dst
	}
	add := func(u, v int32) {
		if handshake == nil || handshake(u, v) {
			dst = append(dst, graph.Pack(u, v))
		}
	}
	for d := range tn.Bridge {
		add(tn.Rep, tn.Bridge[d])
	}
	if w := k.m.W; t%w+1 < w && tiles[t+1].Good {
		add(tn.Bridge[tiling.Right], tiles[t+1].Bridge[tiling.Left])
	}
	if up := t + k.m.W; up < len(tiles) && tiles[up].Good {
		add(tn.Bridge[tiling.Top], tiles[up].Bridge[tiling.Bottom])
	}
	return dst
}
