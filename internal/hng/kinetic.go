package hng

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/spatial"
)

// KineticStats counts the work one or more repair operations performed —
// the deterministic cost signal the M01 scenario reports. All counters
// accumulate until ResetStats reads and zeroes them.
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
// its parent, its member set (unsorted), the edges it currently emits, and
// whether it is queued for regeneration. Every group a parent can have
// exists from construction on and keeps its storage when it empties, so
// children moving back and forth between parents reuse it instead of
// reallocating.
type kGroup struct {
	parent  int32
	dirty   bool
	members []int32
	edges   []uint64
}

// Kinetic maintains a hierarchical neighbor graph incrementally under node
// motion and death. It holds per-level kinetic spatial indexes, every node's
// current up-link and within-link, per-level indexes of those links' disks,
// the pruning-group states, and the top-level MST, and repairs exactly the
// region a Round touches: links whose nearest neighbor may have changed
// (the nodes whose link disk covers an event position), the pruning groups
// those links feed, and the MST only when a top-level node is involved.
// Move and Remove are one-event rounds.
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

	// upDisks[j] / withinDisks[j] register the up-link / within-link disk
	// (centre pos(y), squared radius parentD2[y] / withinD2[y]) of every
	// alive level-j node y with that link, j = 1..topAll, in cells sized
	// for V_{j+1} / V_j: a repair's candidates are the disks covering its
	// event positions. Node y is slot slotOf[y] of its level's indexes, and
	// levelNodes[j] maps level-j slots back to nodes.
	upDisks     []*spatial.DiskIndex
	withinDisks []*spatial.DiskIndex
	slotOf      []int32
	levelNodes  [][]int32

	// groups holds every pruning group, (parent p, child level j) at
	// groupAt[p] + j − 1: ascending slab index is ascending (p, j).
	groups  []kGroup
	groupAt []int32
	dirty   []int32 // slab indices of the groups with dirty set, in queue order
	mst     []uint64

	ref   *edgeRefs // emission refcounts per packed edge
	delta *graph.Delta
	init  bool // during initial indexing, emissions skip the overlay

	stats KineticStats
	// regroup, when set, replaces recomputeGroup: the tests plug in the
	// retract-everything, emit-everything reference the diff is held to.
	regroup func(g *kGroup)

	// Reusable scratch.
	scratch    spatial.KNNScratch
	nnBuf      []int32
	candBuf    []int32
	queryBuf   []int32
	hitBuf     []uint64
	seen       []bool
	sortBuf    []int32
	edgeBuf    []uint64
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
		groupAt:    make([]int32, n+1),
		slotOf:     make([]int32, n),
		ref:        newEdgeRefs(h.CSR.EdgeCount),
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
	k.levelNodes = make([][]int32, k.topAll+1)
	for u, l := range k.levels {
		k.lvlCount[l]++
		k.slotOf[u] = int32(len(k.levelNodes[l]))
		k.levelNodes[l] = append(k.levelNodes[l], int32(u))
		k.groupAt[u+1] = k.groupAt[u] + l - 1 // groups of child levels 1..ℓ−1
	}
	k.groups = make([]kGroup, k.groupAt[n])
	for u := int32(0); u < int32(n); u++ {
		for gi := k.groupAt[u]; gi < k.groupAt[u+1]; gi++ {
			k.groups[gi].parent = u
		}
	}

	// Per-level kinetic grids: every slot exists in every grid, but only
	// V_{i+1} members stay live in grids[i]. Cell sizes track the thinning
	// populations so occupancy stays O(1) per cell; the disk indexes of
	// level i use the cells of the grids their links point into.
	k.grids = make([]*spatial.DynGrid, k.topAll)
	k.upDisks = make([]*spatial.DiskIndex, k.topAll+1)
	k.withinDisks = make([]*spatial.DiskIndex, k.topAll+1)
	levelPop, upPop := 0, 0
	for i := int32(k.topAll); i >= 1; i-- {
		upPop, levelPop = levelPop, levelPop+k.lvlCount[i]
		cell := spatial.CellSize(box, levelPop)
		g := spatial.NewDynGrid(k.pts, box, cell)
		for u := int32(0); u < int32(n); u++ {
			if k.levels[u] < i {
				g.Remove(u)
			}
		}
		k.grids[i-1] = g
		k.upDisks[i] = spatial.NewDiskIndex(box, spatial.CellSize(box, upPop), k.lvlCount[i])
		k.withinDisks[i] = spatial.NewDiskIndex(box, cell, k.lvlCount[i])
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

// Positions returns the current position slice (live view, not a copy).
func (k *Kinetic) Positions() []geom.Point { return k.pts }

// Levels returns the fixed level assignment.
func (k *Kinetic) Levels() []int32 { return k.levels }

// AliveMask returns the current alive mask (live view, not a copy).
func (k *Kinetic) AliveMask() []bool { return k.alive }

// Materialize freezes the current graph into a standalone CSR — the object
// the equivalence gate compares against Rebuild.
func (k *Kinetic) Materialize() *graph.CSR { return k.delta.Materialize() }

// ResetStats zeroes and returns the accumulated counters.
func (k *Kinetic) ResetStats() KineticStats {
	s := k.stats
	k.stats = KineticStats{}
	return s
}

// emit records one source for edge {u, v}; the overlay gains the edge on the
// 0→1 transition.
func (k *Kinetic) emit(u, v int32) {
	if k.ref.add(graph.Pack(u, v), 1) == 1 && !k.init {
		k.delta.AddEdge(u, v)
		k.stats.EdgeChanges++
	}
}

// retract drops one source for edge {u, v}; the overlay loses the edge on
// the 1→0 transition.
func (k *Kinetic) retract(u, v int32) {
	if k.ref.add(graph.Pack(u, v), -1) == 0 && !k.init {
		k.delta.RemoveEdge(u, v)
		k.stats.EdgeChanges++
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

// groupOf returns the slab index of pruning group (p, level).
func (k *Kinetic) groupOf(p, level int32) int32 { return k.groupAt[p] + level - 1 }

// groupAdd registers u as a child of p and marks the group dirty.
func (k *Kinetic) groupAdd(p, u int32) {
	gi := k.groupOf(p, k.levels[u])
	k.groups[gi].members = append(k.groups[gi].members, u)
	k.markDirty(gi)
}

// groupRemove unregisters child u from parent p and marks the group dirty.
func (k *Kinetic) groupRemove(p, u int32) {
	gi := k.groupOf(p, k.levels[u])
	g := &k.groups[gi]
	for i, m := range g.members {
		if m == u {
			g.members[i] = g.members[len(g.members)-1]
			g.members = g.members[:len(g.members)-1]
			break
		}
	}
	k.markDirty(gi)
}

// markDirty queues group gi for regeneration at the next flush; queueing an
// already-dirty group is a no-op.
func (k *Kinetic) markDirty(gi int32) {
	if g := &k.groups[gi]; !g.dirty {
		g.dirty = true
		k.dirty = append(k.dirty, gi)
	}
}

// relink recomputes u's up-link and within-link from the current grids,
// updating group membership, the emitted within edge, and u's link disks.
// Group edge regeneration is deferred to the dirty queue.
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
		}
	} else if np >= 0 && nd2 != k.parentD2[u] {
		k.parentD2[u] = nd2
		k.parentDist[u] = k.pts[u].Dist(k.pts[np])
		k.markDirty(k.groupOf(np, lvl))
	}
	if np >= 0 {
		k.upDisks[lvl].Set(k.slotOf[u], k.pts[u], nd2)
	} else {
		k.upDisks[lvl].Clear(k.slotOf[u])
	}

	nw, wd2 := k.queryWithin(u)
	if ow := k.within[u]; nw != ow {
		if ow >= 0 {
			k.retract(u, ow)
		}
		k.within[u] = nw
		if nw >= 0 {
			k.emit(u, nw)
		}
	}
	if nw >= 0 {
		k.withinD2[u] = wd2
		k.withinDisks[lvl].Set(k.slotOf[u], k.pts[u], wd2)
	} else {
		k.withinDisks[lvl].Clear(k.slotOf[u])
	}
}

// recomputeGroup re-sorts one pruning group by (distance-to-parent, child)
// and re-derives its direct and chain edges, exactly mirroring the static
// builder's per-group chaining. Only the difference reaches the overlay:
// edges that are new are emitted, edges that are gone retracted. A group's
// edges are distinct (each child is the second endpoint of exactly one), so
// the result is what retracting every old edge and emitting every new one
// would leave, and so is the EdgeChanges tally: there a kept edge held by
// this group alone dropped out and came back, two changes.
func (k *Kinetic) recomputeGroup(g *kGroup) {
	k.stats.GroupRecomputes++
	cur := k.groupEdges(g)
	slices.Sort(cur)
	old := g.edges // sorted by the previous recompute
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i] < cur[j]):
			u, v := graph.Unpack(old[i])
			k.retract(u, v)
			i++
		case i == len(old) || cur[j] < old[i]:
			u, v := graph.Unpack(cur[j])
			k.emit(u, v)
			j++
		default:
			if !k.init && k.ref.get(cur[j]) == 1 {
				k.stats.EdgeChanges += 2
			}
			i++
			j++
		}
	}
	g.edges = append(g.edges[:0], cur...)
}

// groupEdges returns the direct and chain edges group g emits at the
// current positions, in chain order, in the reusable edgeBuf.
func (k *Kinetic) groupEdges(g *kGroup) []uint64 {
	k.edgeBuf = k.edgeBuf[:0]
	if len(g.members) == 0 {
		return k.edgeBuf // the group is kept, storage and all, for the next child
	}
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
	k.edgeBuf = chain(k.edgeBuf, g.parent, members, k.spec.MaxChildren)
	return k.edgeBuf
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

// collectCandidates appends to k.candBuf every alive node (≠ u, not yet
// seen) whose up-link or within-link could be affected by node u (level l)
// appearing or disappearing at the query positions. For each exact level
// j ≤ l and each position q, it reads the level-j disks registered in q's
// cell — within-link disks, and up-link disks when l > j (u sits in the
// within-link target set V_j of level-j nodes iff l ≥ j, in their up-link
// target set V_{j+1} iff l ≥ j+1) — keeps the nodes the exact affected
// test admits, and appends them in grids[j−1]'s Within scan order (cell,
// then index): the order a radius scan around q would find them in.
//
// A node whose link disk contains q is registered in q's cell, and so is
// one whose link points at u when q is u's position entering the round
// (its link length is its distance to q), so the affected set is found
// whole.
func (k *Kinetic) collectCandidates(u int32, l int32, positions ...geom.Point) {
	for j := int32(1); j <= l; j++ {
		if k.lvlCount[j] == 0 {
			continue
		}
		up := l > j
		grid := k.grids[j-1]
		for _, q := range positions {
			k.queryBuf = k.withinDisks[j].AppendAt(q, k.queryBuf[:0])
			if up {
				k.queryBuf = k.upDisks[j].AppendAt(q, k.queryBuf)
			}
			k.hitBuf = k.hitBuf[:0]
			for _, s := range k.queryBuf {
				if y := k.levelNodes[j][s]; y != u && !k.seen[y] && k.affected(y, u, q, up) {
					k.hitBuf = append(k.hitBuf, uint64(grid.CellOf(y))<<32|uint64(y))
				}
			}
			slices.Sort(k.hitBuf)
			for _, h := range k.hitBuf {
				if y := int32(uint32(h)); !k.seen[y] {
					k.seen[y] = true
					k.candBuf = append(k.candBuf, y)
				}
			}
		}
	}
}

// affected reports whether the links of y, a node whose within-link target
// set holds u, could change because u is now (or was) at q; up says whether
// its up-link target set holds u too. Comparisons happen in squared-distance
// space — the exact metric the nearest-neighbor queries order by — so ties
// that flip on the index tie-break are included.
func (k *Kinetic) affected(y, u int32, q geom.Point, up bool) bool {
	if k.parent[y] == u || k.within[y] == u {
		return true
	}
	d2 := k.pts[y].Dist2(q)
	if up && k.parent[y] >= 0 && d2 <= k.parentD2[y] {
		return true
	}
	return k.within[y] >= 0 && d2 <= k.withinD2[y]
}

// flushDirty regenerates every dirty pruning group, in ascending (parent,
// child level): overflow-chain edges can be shared across groups, so the
// refcounted EdgeChanges tally depends on flush order — sorting keeps it
// (and the golden tables built on it) identical across runs.
func (k *Kinetic) flushDirty() {
	slices.Sort(k.dirty)
	for _, gi := range k.dirty {
		g := &k.groups[gi]
		g.dirty = false
		if k.regroup != nil {
			k.regroup(g)
		} else {
			k.recomputeGroup(g)
		}
	}
	k.dirty = k.dirty[:0]
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
	k.upDisks[l].Clear(k.slotOf[u])
	k.withinDisks[l].Clear(k.slotOf[u])
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
