package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/tiling"
)

// KineticStats counts the repair work a Kinetic has performed. All counters
// accumulate until ResetStats.
type KineticStats struct {
	// TileRecomputes is the number of per-tile re-elections (classify the
	// tile's live members into the five regions, re-run the five leader
	// elections).
	TileRecomputes int
	// ContribRecomputes is the number of per-tile edge-contribution lists
	// that changed and were swapped in the delta overlay.
	ContribRecomputes int
	// EdgeChanges is the number of individual edge insertions plus removals
	// applied to the delta overlay.
	EdgeChanges int
}

// Kinetic maintains a UDG-SENS network incrementally under node motion and
// death. The invariant it preserves is exact structural equivalence: after
// any sequence of Move and Remove calls, Materialize returns edge-for-edge
// the graph that BuildUDG would produce from scratch at the current
// positions with the current alive mask (and SkipBase).
//
// The repair is dirty-tile local. Elections are deterministic functions of
// a tile's member set, and a tile's contribution to the network — its four
// rep↔relay edges plus the Right/Top boundary edges it owns — depends only
// on its own elected nodes and the goodness of its Right/Top neighbors. A
// single move therefore dirties at most two tiles (source and destination),
// and at most their Left/Bottom neighbors need their contributions
// re-derived: O(1) tiles per event, independent of the network size.
//
// The maintainer requires geometry-guaranteed edges: in GeometryRelaxed
// mode with a base graph present, handshakes can drop edges in a way that
// depends on the full deployment, which breaks tile locality; NewKinetic
// rejects that combination.
type Kinetic struct {
	kern  udgKernel
	box   geom.Rect
	pts   []geom.Point
	alive []bool

	// The per-tile state is φ-indexed like Network.Tiles. members holds the
	// live point indices of each mapped tile in ascending order — the
	// candidate order of the build's tile slab, so re-elections reproduce
	// the from-scratch results bit for bit.
	members [][]int32
	tiles   []TileNodes
	// contrib holds, per tile, the packed edges the tile currently
	// contributes to the network (its wire output). Contributions are
	// pairwise disjoint: an internal edge belongs to its tile, a boundary
	// edge to the tile on its Left/Bottom side.
	contrib [][]uint64

	delta *graph.Delta
	stats KineticStats

	scratch tileScratch
	dirty   []int // tiles whose membership changed since the last repair
	cdirty  []int // tiles whose contribution may have changed
	next    []uint64
	swaps   []contribSwap
}

// contribSwap replaces contrib[t] with next[lo:hi].
type contribSwap struct{ t, lo, hi int }

// NewKinetic wraps a freshly built UDG-SENS network for incremental
// maintenance. opt must be the Options the network was built with (the
// election algorithm and alive mask must match for re-elections to
// reproduce the original results).
func NewKinetic(n *Network, opt Options) (*Kinetic, error) {
	if n.Kind != KindUDG || n.UDGSpec == nil {
		return nil, fmt.Errorf("sens: kinetic maintenance requires a UDG-SENS network")
	}
	if n.Base != nil && n.UDGSpec.Mode == tiling.GeometryRelaxed {
		return nil, fmt.Errorf("sens: kinetic maintenance requires geometry-guaranteed edges; relaxed mode with a base graph can drop edges non-locally")
	}
	nt := len(n.Tiles)
	k := &Kinetic{
		kern:    udgKernel{m: n.Map, gm: n.UDGSpec.Compile(), alg: opt.Election},
		box:     n.Box,
		pts:     append([]geom.Point(nil), n.Pts...),
		alive:   make([]bool, len(n.Pts)),
		members: make([][]int32, nt),
		tiles:   append([]TileNodes(nil), n.Tiles...),
		contrib: make([][]uint64, nt),
		delta:   graph.NewDelta(n.Graph),
	}
	for i := range k.alive {
		k.alive[i] = opt.Alive == nil || opt.Alive[i]
	}
	// Members and contributions live in two shared arenas; each tile's
	// slice is capped at its own segment, so a member insert that outgrows
	// it reallocates instead of overwriting the next tile, and a
	// contribution (at most six edges) is always rewritten in place.
	start, order := tiling.AssignTilesCSR(n.Map, k.pts)
	live := make([]int32, 0, len(order))
	arena := make([]uint64, 6*nt)
	for t := range k.members {
		lo := len(live)
		for _, i := range order[start[t]:start[t+1]] {
			if k.alive[i] {
				live = append(live, i)
			}
		}
		k.members[t] = live[lo:len(live):len(live)]
		k.contrib[t] = k.kern.wire(k.tiles, t, arena[6*t:6*t:6*t+6], nil)
	}
	return k, nil
}

// Positions returns the current node positions. Read-only for callers.
func (k *Kinetic) Positions() []geom.Point { return k.pts }

// AliveMask returns the current alive flags. Read-only for callers.
func (k *Kinetic) AliveMask() []bool { return k.alive }

// Box returns the deployment region the network was built over.
func (k *Kinetic) Box() geom.Rect { return k.box }

// Materialize flattens the maintained overlay into an immutable CSR equal,
// edge for edge, to a from-scratch BuildUDG at the current state.
func (k *Kinetic) Materialize() *graph.CSR { return k.delta.Materialize() }

// Stats returns the accumulated repair counters.
func (k *Kinetic) Stats() KineticStats { return k.stats }

// ResetStats returns the accumulated counters and zeroes them.
func (k *Kinetic) ResetStats() KineticStats {
	s := k.stats
	k.stats = KineticStats{}
	return s
}

// GoodTiles counts the currently good tiles.
func (k *Kinetic) GoodTiles() int {
	n := 0
	for t := range k.tiles {
		if k.tiles[t].Good {
			n++
		}
	}
	return n
}

// memberInsert adds point i to tile t's member list, keeping it ascending.
func (k *Kinetic) memberInsert(t int, i int32) {
	list := k.members[t]
	at, _ := slices.BinarySearch(list, i)
	k.members[t] = slices.Insert(list, at, i)
}

// memberRemove deletes point i from tile t's member list (which must
// contain it).
func (k *Kinetic) memberRemove(t int, i int32) {
	list := k.members[t]
	at, _ := slices.BinarySearch(list, i)
	k.members[t] = slices.Delete(list, at, at+1)
}

// addTile adds tile t to the small tile set set.
func addTile(set []int, t int) []int {
	if slices.Contains(set, t) {
		return set
	}
	return append(set, t)
}

// Move updates node u's position and repairs every structure the
// displacement can affect. u must be alive.
func (k *Kinetic) Move(u int32, p geom.Point) {
	if !k.alive[u] {
		panic("sens: Move on dead node")
	}
	from, fromOK := k.kern.m.Index(k.kern.m.Tiling.TileOf(k.pts[u]))
	to, toOK := k.kern.m.Index(k.kern.m.Tiling.TileOf(p))
	k.pts[u] = p
	if fromOK && toOK && from == to {
		// Same tile, but the region classification may have changed.
		k.dirty = addTile(k.dirty, from)
	} else {
		if fromOK {
			k.memberRemove(from, u)
			k.dirty = addTile(k.dirty, from)
		}
		if toOK {
			k.memberInsert(to, u)
			k.dirty = addTile(k.dirty, to)
		}
	}
	k.repair()
}

// Remove marks node u dead and repairs its tile. Removing a dead node is a
// no-op.
func (k *Kinetic) Remove(u int32) {
	if !k.alive[u] {
		return
	}
	k.alive[u] = false
	if t, ok := k.kern.m.Index(k.kern.m.Tiling.TileOf(k.pts[u])); ok {
		k.memberRemove(t, u)
		k.dirty = addTile(k.dirty, t)
		k.repair()
	}
}

// repair flushes the dirty tiles in ascending index order: re-elect each
// one (the build's elect step over the tile's live members), then re-wire
// the dirty tiles and their Left/Bottom neighbors — the tiles whose border
// edges read a dirty tile's state — and swap every changed contribution.
// Retractions run before emissions so an edge that migrates from one
// tile's contribution to another's is never transiently double-counted.
func (k *Kinetic) repair() {
	if len(k.dirty) == 0 {
		return
	}
	slices.Sort(k.dirty)
	w := k.kern.m.W
	for _, t := range k.dirty {
		k.stats.TileRecomputes++
		k.tiles[t] = k.kern.elect(t, k.pts, k.members[t], nil, &k.scratch)
		k.cdirty = addTile(k.cdirty, t)
		if t%w > 0 {
			k.cdirty = addTile(k.cdirty, t-1) // Left neighbor
		}
		if t >= w {
			k.cdirty = addTile(k.cdirty, t-w) // Bottom neighbor
		}
	}
	k.dirty = k.dirty[:0]
	slices.Sort(k.cdirty)
	k.next, k.swaps = k.next[:0], k.swaps[:0]
	for _, t := range k.cdirty {
		lo := len(k.next)
		k.next = k.kern.wire(k.tiles, t, k.next, nil)
		if slices.Equal(k.contrib[t], k.next[lo:]) {
			k.next = k.next[:lo]
			continue
		}
		k.stats.ContribRecomputes++
		k.swaps = append(k.swaps, contribSwap{t: t, lo: lo, hi: len(k.next)})
	}
	k.cdirty = k.cdirty[:0]
	for _, s := range k.swaps {
		for _, e := range k.contrib[s.t] {
			if k.delta.RemoveEdge(graph.Unpack(e)) {
				k.stats.EdgeChanges++
			}
		}
	}
	for _, s := range k.swaps {
		next := k.next[s.lo:s.hi]
		for _, e := range next {
			if k.delta.AddEdge(graph.Unpack(e)) {
				k.stats.EdgeChanges++
			}
		}
		k.contrib[s.t] = append(k.contrib[s.t][:0], next...)
	}
}
