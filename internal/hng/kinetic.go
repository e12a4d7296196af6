package hng

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/spatial"
)

// KineticStats counts the work one or more repair operations performed —
// the deterministic cost signal the M01 scenario reports. All counters
// accumulate until Stats is read through ResetStats.
type KineticStats struct {
	// LinkRecomputes counts nearest-neighbor link re-queries (a node's
	// up-link and within-link recomputed together count once).
	LinkRecomputes int
	// GroupRecomputes counts pruning groups re-sorted and re-emitted.
	GroupRecomputes int
	// MSTRecomputes counts top-level spanning tree rebuilds.
	MSTRecomputes int
	// EdgeChanges counts undirected edges added or removed in the overlay.
	EdgeChanges int
}

// kGroup is the live state of one pruning group (parent, child level):
// its member set (unsorted), the edges it currently emits, and whether it
// is queued for regeneration. A group that empties stays in the map with its
// storage, so children moving back and forth between parents reuse it
// instead of reallocating.
type kGroup struct {
	members []int32
	edges   []uint64
	dirty   bool
}

// Kinetic maintains a hierarchical neighbor graph incrementally under node
// motion and death. It holds per-level kinetic spatial indexes, every node's
// current up-link and within-link, the pruning-group states, and the
// top-level MST, and repairs exactly the region a Round touches: links whose
// nearest neighbor may have changed (found by radius queries bounded by
// per-level maximum link lengths), the pruning groups those links feed, and
// the MST only when a top-level node is involved. Move and Remove are
// one-event rounds.
//
// The invariant — property-tested at GOMAXPROCS 1 and 8 — is that after any
// operation sequence, Materialize() equals Rebuild(positions, levels, alive)
// edge-for-edge. Levels are fixed at construction (promotion draws attach to
// nodes, not positions), which is what makes the equivalence exact: motion
// never re-rolls the hierarchy.
//
// Edge bookkeeping is refcounted: an up-link, chain, within-link or MST edge
// may coincide, and the overlay holds an edge while at least one source
// emits it — mirroring the duplicate-tolerant Builder in the static path.
type Kinetic struct {
	spec   Spec
	pts    []geom.Point
	levels []int32
	alive  []bool

	topAll   int32 // highest level present at construction (grid count)
	top      int32 // current highest alive level
	lvlCount []int // alive population per exact level, index 1..topAll

	grids []*spatial.DynGrid // grids[i] over V_{i+1} = {alive, ℓ ≥ i+1}

	parent     []int32   // up-link target, −1 for none
	parentDist []float64 // hypot distance to parent (group sort key)
	parentD2   []float64 // squared distance to parent (query-space bound)
	within     []int32   // within-level link target, −1 for none
	withinD2   []float64 // squared distance to within target

	// maxUpD2 / maxWithinD2 are per-exact-level monotone upper bounds on the
	// squared link lengths — the sound over-approximation bounding the
	// candidate radius of a repair. Index by level, 1..topAll.
	maxUpD2     []float64
	maxWithinD2 []float64

	groups    map[uint64]*kGroup
	dirtyKeys []uint64 // keys of the groups with dirty set, in queue order
	mst       []uint64

	ref   map[uint64]int32 // emission refcounts per packed edge
	delta *graph.Delta
	init  bool // during initial indexing, emissions skip the overlay

	stats KineticStats

	// Reusable scratch.
	scratch    spatial.KNNScratch
	nnBuf      []int32
	candBuf    []int32
	queryBuf   []int32
	seen       []bool
	sortBuf    []int32
	deadBuf    []int32
	movedBuf   []movedNode
	mstPos     []geom.Point
	mstScratch mstScratch
}

// movedNode is one node repositioned in the current round, with its
// position entering the round.
type movedNode struct {
	u   int32
	old geom.Point
}

// groupKey packs a (parent, child level) pruning-group identity.
func groupKey(parent, level int32) uint64 {
	return uint64(uint32(parent))<<8 | uint64(uint32(level))
}

// NewKinetic wraps a built graph in an incremental maintainer. box is the
// fixed world the nodes move in (positions are clamped into it by the
// mobility models); h's positions, levels and edges seed the state, and
// h.CSR becomes the immutable base of the edge overlay.
func NewKinetic(h *Graph, box geom.Rect) *Kinetic {
	n := len(h.Pos)
	k := &Kinetic{
		spec:       h.Spec,
		pts:        append([]geom.Point(nil), h.Pos...),
		levels:     append([]int32(nil), h.Levels...),
		alive:      make([]bool, n),
		parent:     make([]int32, n),
		parentDist: make([]float64, n),
		parentD2:   make([]float64, n),
		within:     make([]int32, n),
		withinD2:   make([]float64, n),
		groups:     make(map[uint64]*kGroup),
		ref:        make(map[uint64]int32),
		delta:      graph.NewDelta(h.CSR),
		seen:       make([]bool, n),
	}
	for i := range k.alive {
		k.alive[i] = true
	}
	for u := range k.parent {
		k.parent[u], k.within[u] = -1, -1
	}
	for _, l := range k.levels {
		if l > k.topAll {
			k.topAll = l
		}
	}
	k.top = k.topAll
	k.lvlCount = make([]int, k.topAll+1)
	for _, l := range k.levels {
		k.lvlCount[l]++
	}
	k.maxUpD2 = make([]float64, k.topAll+1)
	k.maxWithinD2 = make([]float64, k.topAll+1)

	// Per-level kinetic grids: every slot exists in every grid, but only
	// V_{i+1} members stay live in grids[i]. Cell sizes track the thinning
	// populations so occupancy stays O(1) per cell.
	k.grids = make([]*spatial.DynGrid, k.topAll)
	levelPop := 0
	for i := int32(k.topAll); i >= 1; i-- {
		levelPop += k.lvlCount[i]
		g := spatial.NewDynGrid(k.pts, box, cellSizeFor(box, levelPop))
		for u := int32(0); u < int32(n); u++ {
			if k.levels[u] < i {
				g.Remove(u)
			}
		}
		k.grids[i-1] = g
	}

	// Initial link state, emitted without touching the overlay: the base CSR
	// already holds exactly these edges. Every group relinking creates is
	// queued by groupAdd, so one flush regenerates them all.
	k.init = true
	for u := int32(0); u < int32(n); u++ {
		k.relink(u)
	}
	k.flushDirty()
	k.rebuildMST()
	k.init = false
	k.stats = KineticStats{}
	return k
}

// cellSizeFor picks a grid cell size giving O(1) expected occupancy for pop
// points in box.
func cellSizeFor(box geom.Rect, pop int) float64 {
	side := math.Max(box.Width(), box.Height())
	if side <= 0 {
		side = 1
	}
	if pop < 1 {
		pop = 1
	}
	cells := math.Sqrt(float64(pop))
	if cells < 1 {
		cells = 1
	}
	return side / cells
}

// Positions returns the current position slice (live view, not a copy).
func (k *Kinetic) Positions() []geom.Point { return k.pts }

// Levels returns the fixed level assignment.
func (k *Kinetic) Levels() []int32 { return k.levels }

// AliveMask returns the current alive mask (live view, not a copy).
func (k *Kinetic) AliveMask() []bool { return k.alive }

// Materialize freezes the current graph into a standalone CSR — the object
// the equivalence gate compares against Rebuild.
func (k *Kinetic) Materialize() *graph.CSR { return k.delta.Materialize() }

// Stats returns the accumulated repair-cost counters.
func (k *Kinetic) Stats() KineticStats { return k.stats }

// ResetStats zeroes and returns the accumulated counters.
func (k *Kinetic) ResetStats() KineticStats {
	s := k.stats
	k.stats = KineticStats{}
	return s
}

// emit records one source for edge {u, v}; the overlay gains the edge on the
// 0→1 transition.
func (k *Kinetic) emit(u, v int32) {
	e := graph.Pack(u, v)
	k.ref[e]++
	if k.ref[e] == 1 && !k.init {
		k.delta.AddEdge(u, v)
		k.stats.EdgeChanges++
	}
}

// retract drops one source for edge {u, v}; the overlay loses the edge on
// the 1→0 transition.
func (k *Kinetic) retract(u, v int32) {
	e := graph.Pack(u, v)
	k.ref[e]--
	if k.ref[e] == 0 {
		delete(k.ref, e)
		if !k.init {
			k.delta.RemoveEdge(u, v)
			k.stats.EdgeChanges++
		}
	}
}

// queryParent returns u's current up-link: its nearest alive neighbor in
// V_{ℓ(u)+1}, or −1 when that set is empty (u is top-level).
func (k *Kinetic) queryParent(u int32) (int32, float64) {
	gi := int(k.levels[u]) // byLevel index of V_{ℓ(u)+1}
	if gi >= len(k.grids) || k.grids[gi].Len() == 0 {
		return -1, 0
	}
	k.nnBuf = k.grids[gi].KNearestInto(k.pts[u], 1, -1, &k.scratch, k.nnBuf[:0])
	if len(k.nnBuf) == 0 {
		return -1, 0
	}
	v := k.nnBuf[0]
	return v, k.pts[u].Dist2(k.pts[v])
}

// queryWithin returns u's current within-level link: its nearest alive
// neighbor in V_{ℓ(u)} other than itself, or −1 when alone in the set.
func (k *Kinetic) queryWithin(u int32) (int32, float64) {
	gi := int(k.levels[u]) - 1
	g := k.grids[gi]
	if g.Len() <= 1 {
		return -1, 0
	}
	k.nnBuf = g.KNearestInto(k.pts[u], 1, int(u), &k.scratch, k.nnBuf[:0])
	if len(k.nnBuf) == 0 {
		return -1, 0
	}
	v := k.nnBuf[0]
	return v, k.pts[u].Dist2(k.pts[v])
}

// groupAdd registers u as a child of p and marks the group dirty.
func (k *Kinetic) groupAdd(p, u int32) {
	key := groupKey(p, k.levels[u])
	g := k.groups[key]
	if g == nil {
		g = &kGroup{}
		k.groups[key] = g
	}
	g.members = append(g.members, u)
	k.markDirty(key, g)
}

// groupRemove unregisters child u from parent p and marks the group dirty.
func (k *Kinetic) groupRemove(p, u int32) {
	key := groupKey(p, k.levels[u])
	g := k.groups[key]
	for i, m := range g.members {
		if m == u {
			g.members[i] = g.members[len(g.members)-1]
			g.members = g.members[:len(g.members)-1]
			break
		}
	}
	k.markDirty(key, g)
}

// markDirty queues group g (identity key) for regeneration at the next
// flush; queueing an already-dirty group is a no-op.
func (k *Kinetic) markDirty(key uint64, g *kGroup) {
	if !g.dirty {
		g.dirty = true
		k.dirtyKeys = append(k.dirtyKeys, key)
	}
}

// relink recomputes u's up-link and within-link from the current grids,
// updating group membership, the emitted within edge, and the per-level
// radius bounds. Group edge regeneration is deferred to the dirty queue.
func (k *Kinetic) relink(u int32) {
	k.stats.LinkRecomputes++
	lvl := k.levels[u]

	np, nd2 := k.queryParent(u)
	if op := k.parent[u]; np != op {
		if op >= 0 {
			k.groupRemove(op, u)
		}
		k.parent[u] = np
		if np >= 0 {
			k.parentD2[u] = nd2
			k.parentDist[u] = k.pts[u].Dist(k.pts[np])
			k.groupAdd(np, u)
			if nd2 > k.maxUpD2[lvl] {
				k.maxUpD2[lvl] = nd2
			}
		}
	} else if np >= 0 && nd2 != k.parentD2[u] {
		k.parentD2[u] = nd2
		k.parentDist[u] = k.pts[u].Dist(k.pts[np])
		key := groupKey(np, lvl)
		k.markDirty(key, k.groups[key])
		if nd2 > k.maxUpD2[lvl] {
			k.maxUpD2[lvl] = nd2
		}
	}

	nw, wd2 := k.queryWithin(u)
	if ow := k.within[u]; nw != ow {
		if ow >= 0 {
			k.retract(u, ow)
		}
		k.within[u] = nw
		if nw >= 0 {
			k.withinD2[u] = wd2
			k.emit(u, nw)
			if wd2 > k.maxWithinD2[lvl] {
				k.maxWithinD2[lvl] = wd2
			}
		}
	} else if nw >= 0 {
		k.withinD2[u] = wd2
		if wd2 > k.maxWithinD2[lvl] {
			k.maxWithinD2[lvl] = wd2
		}
	}
}

// recomputeGroup re-sorts one pruning group by (distance-to-parent, child)
// and re-emits its direct and chain edges, exactly mirroring the static
// builder's per-group chaining.
func (k *Kinetic) recomputeGroup(key uint64, g *kGroup) {
	k.stats.GroupRecomputes++
	for _, e := range g.edges {
		u, v := graph.Unpack(e)
		k.retract(u, v)
	}
	g.edges = g.edges[:0]
	if len(g.members) == 0 {
		return // kept, storage and all, for the next child to attach
	}
	parent := int32(key >> 8)
	k.sortBuf = append(k.sortBuf[:0], g.members...)
	members := k.sortBuf
	slices.SortFunc(members, func(a, b int32) int {
		da, db := k.parentDist[a], k.parentDist[b]
		if da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	maxKids := k.spec.MaxChildren
	for i, child := range members {
		var e uint64
		if maxKids == 0 || i < maxKids {
			e = graph.Pack(parent, child)
		} else {
			e = graph.Pack(members[i-maxKids], child)
		}
		g.edges = append(g.edges, e)
		u, v := graph.Unpack(e)
		k.emit(u, v)
	}
}

// rebuildMST re-derives the top-level spanning tree from the current alive
// top set.
func (k *Kinetic) rebuildMST() {
	k.stats.MSTRecomputes++
	for _, e := range k.mst {
		u, v := graph.Unpack(e)
		k.retract(u, v)
	}
	k.mst = k.mst[:0]
	if k.top == 0 {
		return
	}
	ids := k.grids[k.top-1].AppendAlive(k.candBuf[:0])
	k.candBuf = ids[:0]
	if len(ids) <= 1 {
		return
	}
	k.mstPos = k.mstPos[:0]
	for _, u := range ids {
		k.mstPos = append(k.mstPos, k.pts[u])
	}
	k.mst = mstAppend(k.mst, ids, k.mstPos, &k.mstScratch)
	for _, e := range k.mst {
		u, v := graph.Unpack(e)
		k.emit(u, v)
	}
}

// radiusFor converts a squared-distance bound into a query radius with a
// hair of slack, so boundary candidates (exact ties in squared space, which
// the NN ordering resolves by index) are never missed to rounding.
func radiusFor(d2 float64) float64 {
	if d2 <= 0 {
		return 0
	}
	return math.Sqrt(d2) * (1 + 1e-12)
}

// collectCandidates appends to k.candBuf every alive node (≠ u) whose
// up-link or within-link could be affected by node u (level l) appearing or
// disappearing at the query positions: for each exact level j, nodes of
// level j within the per-level maximum link length of a position, filtered
// by an exact query-space affect test against their current link distances.
func (k *Kinetic) collectCandidates(u int32, l int32, positions ...geom.Point) {
	for j := int32(1); j <= k.topAll; j++ {
		if k.lvlCount[j] == 0 {
			continue
		}
		// u sits in the up-link target set V_{j+1} of level-j nodes iff
		// l ≥ j+1, and in their within-link target set V_j iff l ≥ j.
		var r2 float64
		upRelevant := l >= j+1
		withinRelevant := l >= j
		if upRelevant {
			r2 = k.maxUpD2[j]
		}
		if withinRelevant && k.maxWithinD2[j] > r2 {
			r2 = k.maxWithinD2[j]
		}
		if r2 == 0 && !upRelevant && !withinRelevant {
			continue
		}
		r := radiusFor(r2)
		for _, q := range positions {
			k.queryBuf = k.grids[j-1].Within(q, r, k.queryBuf[:0])
			for _, y := range k.queryBuf {
				if y == u || k.levels[y] != j || k.seen[y] {
					continue
				}
				if !k.affected(y, u, q, upRelevant, withinRelevant) {
					continue
				}
				k.seen[y] = true
				k.candBuf = append(k.candBuf, y)
			}
		}
	}
}

// affected reports whether y's links could change because node u is now (or
// was) at q. Comparisons happen in squared-distance space — the exact metric
// the nearest-neighbor queries order by — so ties that flip on the index
// tie-break are included.
func (k *Kinetic) affected(y, u int32, q geom.Point, upRelevant, withinRelevant bool) bool {
	if k.parent[y] == u || k.within[y] == u {
		return true
	}
	d2 := k.pts[y].Dist2(q)
	if upRelevant && k.parent[y] >= 0 && d2 <= k.parentD2[y] {
		return true
	}
	if withinRelevant && k.within[y] >= 0 && d2 <= k.withinD2[y] {
		return true
	}
	return false
}

// flushDirty regenerates every dirty pruning group, in sorted key order:
// overflow-chain edges can be shared across groups, so the refcounted
// EdgeChanges tally depends on flush order — sorting keeps it (and the
// golden tables built on it) identical across runs.
func (k *Kinetic) flushDirty() {
	slices.Sort(k.dirtyKeys)
	for _, key := range k.dirtyKeys {
		g := k.groups[key]
		g.dirty = false
		k.recomputeGroup(key, g)
	}
	k.dirtyKeys = k.dirtyKeys[:0]
}

// Round applies one batch of events and repairs the structure once. It
// applies every death in dead (entries naming an already-dead node, or
// repeating one, are no-ops), then every move in moves whose node is still
// alive, in order: a node that dies and moves in the same round stays where
// it died, and a node listed more than once ends at its last listed
// position. moved counts the move entries applied.
//
// The repair collects candidates for all events against the pre-round link
// state (a node's old and new positions for a move, its last position for a
// death), relinks each moved node once in first-listed order and then each
// candidate once in collection order, regenerates the dirty pruning groups
// once in ascending key, and rebuilds the top MST at most once — when a
// top-level node died or moved, or the top level emptied. Afterwards
// Materialize equals Rebuild at the new positions and alive set.
func (k *Kinetic) Round(dead []int32, moves []mobility.Move) (moved int) {
	oldTop := k.top
	mst := false
	k.deadBuf = k.deadBuf[:0]
	for _, u := range dead {
		if !k.alive[u] {
			continue
		}
		k.kill(u)
		k.deadBuf = append(k.deadBuf, u)
		mst = mst || k.levels[u] == oldTop
	}
	k.movedBuf = k.movedBuf[:0]
	for _, mv := range moves {
		u := mv.Node
		if !k.alive[u] {
			continue
		}
		if !k.seen[u] {
			k.seen[u] = true // keeps u out of the candidate list
			k.movedBuf = append(k.movedBuf, movedNode{u: u, old: k.pts[u]})
		}
		k.pts[u] = mv.To
		for i := int32(0); i < k.levels[u]; i++ {
			k.grids[i].Move(u, mv.To)
		}
		moved++
	}

	for _, u := range k.deadBuf {
		k.collectCandidates(u, k.levels[u], k.pts[u])
	}
	for _, m := range k.movedBuf {
		l := k.levels[m.u]
		k.collectCandidates(m.u, l, m.old, k.pts[m.u])
		mst = mst || l == k.top
	}
	for _, m := range k.movedBuf {
		k.seen[m.u] = false
		k.relink(m.u)
	}
	for _, y := range k.candBuf {
		k.seen[y] = false
		k.relink(y)
	}
	k.candBuf = k.candBuf[:0]
	k.flushDirty()
	if mst || k.top != oldTop {
		k.rebuildMST()
	}
	return moved
}

// kill takes node u out of the indexes and the level census and drops its
// own up-link and within-link; the links of others are left to the repair.
func (k *Kinetic) kill(u int32) {
	l := k.levels[u]
	for i := int32(0); i < l; i++ {
		k.grids[i].Remove(u)
	}
	k.alive[u] = false
	k.lvlCount[l]--
	for k.top > 0 && k.lvlCount[k.top] == 0 {
		k.top--
	}
	if p := k.parent[u]; p >= 0 {
		k.groupRemove(p, u)
		k.parent[u] = -1
	}
	if w := k.within[u]; w >= 0 {
		k.retract(u, w)
		k.within[u] = -1
	}
}

// Move is the one-move round: it updates node u's position and repairs the
// structure around it. u must be alive.
func (k *Kinetic) Move(u int32, p geom.Point) {
	if !k.alive[u] {
		panic("hng: Move on dead node")
	}
	k.Round(nil, []mobility.Move{{Node: u, To: p}})
}

// Remove is the one-death round: every edge u touches dissolves, orphaned
// children re-attach to their next-nearest parents, within-links that
// pointed at u re-query, and the MST follows the top set. Removing a dead
// node is a no-op.
func (k *Kinetic) Remove(u int32) {
	k.Round([]int32{u}, nil)
}
