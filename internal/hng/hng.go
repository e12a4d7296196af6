// Package hng implements hierarchical neighbor graphs (Bagchi, Madan,
// Premi — arXiv:0903.0742), the bounded-degree low-stretch connected
// structure from the same research line as the source paper's SENS
// constructions, reproduced here as the head-to-head competing topology.
//
// The construction is a spatial skip list. Every node starts at level 1 and
// is promoted to the next level independently with probability p, giving a
// nested hierarchy V₁ ⊇ V₂ ⊇ … whose level populations thin geometrically.
// Edges come from nearest-neighbor attachment:
//
//   - up-links: every node whose top level is i attaches to its nearest
//     neighbor in V_{i+1} (its parent), for every non-top level i;
//   - within-level links: every node attaches to its nearest neighbor in
//     V_{ℓ(u)}, the level set of its own top level;
//   - the highest occupied level is tied together by its Euclidean minimum
//     spanning tree (the deterministic stand-in for the paper's
//     constant-size top cluster).
//
// Up-links alone make the structure connected — each node reaches V_{i+1}
// through its parent, by induction every node reaches the top level, and
// the top level is spanning-tree connected — while the within-level links
// supply the shortcuts behind the paper's low-stretch claim.
//
// Bounded-degree pruning (Spec.MaxChildren) applies the paper's chaining
// scheme per level: a popular parent keeps only its MaxChildren nearest
// children of each level as direct links, and each further child attaches
// to the sibling MaxChildren positions nearer the parent, so excess
// attachment fans out into chains and every node gains at most one chained
// child per slot.
//
// Construction is deterministic for a fixed RNG: level draws are serial,
// and every parallel phase (the per-level nearest-neighbor queries) writes
// results that depend only on the inputs, never on GOMAXPROCS or goroutine
// scheduling — the same contract as the rgg/topo builders. The RNG stream
// is consumed entirely by the level draws, which is what makes HNG builds
// eligible for the scenario build cache (see scenario.Cache).
package hng

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rgg"
	"repro/internal/spatial"
)

// MaxLevels caps the hierarchy height. Promotion past it is truncated; with
// any practical p the cap is never reached (expected height is
// log_{1/p} n + O(1)), it only bounds the work of adversarial specs.
const MaxLevels = 32

// Spec parameterizes a hierarchical neighbor graph.
type Spec struct {
	// P is the per-level promotion probability, 0 < P < 1. Smaller P makes
	// a flatter hierarchy with fewer long up-links; larger P adds levels
	// (and their shortcut structure) at the cost of more long edges.
	P float64
	// MaxChildren caps the direct down-links a node keeps per child level
	// under the chaining scheme; 0 disables pruning (unbounded parent
	// degree).
	MaxChildren int
}

// DefaultSpec returns the reference parameterization used by the H**
// scenarios: p = 1/8 with the chaining cap at 6.
func DefaultSpec() Spec { return Spec{P: 0.125, MaxChildren: 6} }

// Validate checks the spec's soundness.
func (s Spec) Validate() error {
	if math.IsNaN(s.P) || s.P <= 0 || s.P >= 1 {
		return fmt.Errorf("hng: promotion probability must be in (0, 1), got %v", s.P)
	}
	if s.MaxChildren < 0 {
		return fmt.Errorf("hng: negative MaxChildren %d", s.MaxChildren)
	}
	return nil
}

// Stats carries construction accounting for one build.
type Stats struct {
	// Levels is the highest occupied level.
	Levels int
	// LevelSizes[i] is |V_{i+1}|, the population of each nested level set
	// (LevelSizes[0] == n).
	LevelSizes []int
	// UpEdges counts direct parent links kept after pruning; ChainEdges
	// counts the links rerouted onto sibling chains; WithinEdges counts the
	// within-level nearest-neighbor links; MSTEdges counts the top-level
	// spanning tree edges. Totals are pre-deduplication (an up-link and a
	// within-level link may coincide).
	UpEdges, ChainEdges, WithinEdges, MSTEdges int
	// PrunedParents counts nodes whose child list exceeded MaxChildren.
	PrunedParents int
}

// Graph is a constructed hierarchical neighbor graph: the geometric graph
// plus the level assignment that produced it.
type Graph struct {
	*rgg.Geometric
	// Levels[u] is the top level of node u (≥ 1).
	Levels []int32
	// Spec records the parameters the graph was built with.
	Spec Spec
	// Stats carries construction accounting.
	Stats Stats
}

// Vertices returns all vertex indices [0, n) — the candidate set for
// stretch/power measurement (every deployed node joins an HNG, unlike the
// SENS constructions where only members participate).
func (g *Graph) Vertices() []int32 {
	out := make([]int32, g.N)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// String renders a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("HNG(p=%g): %d pts, %d levels, %d edges, maxdeg %d",
		g.Spec.P, len(g.Pos), g.Stats.Levels, g.EdgeCount, g.MaxDegree())
}

// Build constructs the hierarchical neighbor graph over pts. The generator
// drives only the level promotion draws (serially, one geometric draw
// sequence per node in index order) and is consumed entirely by the build;
// everything after the draws is a deterministic function of (pts, spec,
// levels), parallel-safe at any GOMAXPROCS.
func Build(pts []geom.Point, spec Spec, g *rand.Rand) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Level assignment: geometric promotion, capped at MaxLevels.
	levels := make([]int32, len(pts))
	for i := range levels {
		lvl := int32(1)
		for lvl < MaxLevels && g.Float64() < spec.P {
			lvl++
		}
		levels[i] = lvl
	}
	return construct(pts, levels, nil, spec), nil
}

// Rebuild constructs the graph from-scratch at a fixed level assignment,
// restricted to the alive nodes (nil alive means everyone). Dead vertices
// stay in the index space but end up isolated. This is the reference the
// incremental Kinetic maintainer is equivalence-gated against: Kinetic's
// materialized graph must match Rebuild edge-for-edge at the same positions,
// levels and alive set. Levels persist across motion — promotion draws
// attach to nodes, not positions — so Rebuild never consumes randomness.
func Rebuild(pts []geom.Point, levels []int32, alive []bool, spec Spec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(levels) != len(pts) || (alive != nil && len(alive) != len(pts)) {
		return nil, fmt.Errorf("hng: Rebuild slice lengths disagree (%d pts, %d levels, %d alive)",
			len(pts), len(levels), len(alive))
	}
	return construct(pts, levels, alive, spec), nil
}

// construct is the deterministic post-draw construction shared by Build and
// Rebuild: everything is a pure function of (pts, levels, alive, spec),
// parallel-safe at any GOMAXPROCS.
func construct(pts []geom.Point, levels []int32, alive []bool, spec Spec) *Graph {
	n := len(pts)
	h := &Graph{Levels: levels, Spec: spec}
	isAlive := func(u int32) bool { return alive == nil || alive[u] }

	top := int32(0)
	for u, l := range levels {
		if isAlive(int32(u)) && l > top {
			top = l
		}
	}
	if top == 0 {
		h.Geometric = &rgg.Geometric{CSR: graph.FromPacked(n, nil, true), Pos: pts}
		h.Stats.Levels = 0
		return h
	}
	h.Stats.Levels = int(top)

	// byLevel[i] lists V_{i+1} = {u alive : ℓ(u) ≥ i+1} in ascending index
	// order (0-based: byLevel[0] is every alive node). atLevel[i] lists the
	// alive nodes whose top level is exactly i+1 — the up-link sources of
	// level i+1.
	byLevel := make([][]int32, top)
	atLevel := make([][]int32, top)
	counts := make([]int, top+1)
	for u, l := range levels {
		if isAlive(int32(u)) && l <= top {
			counts[l]++
		}
	}
	cum := 0
	for i := top; i >= 1; i-- {
		atLevel[i-1] = make([]int32, 0, counts[i])
		cum += counts[i]
		byLevel[i-1] = make([]int32, 0, cum)
	}
	for u, l := range levels {
		if !isAlive(int32(u)) || l > top {
			continue
		}
		atLevel[l-1] = append(atLevel[l-1], int32(u))
		for i := int32(0); i < l; i++ {
			byLevel[i] = append(byLevel[i], int32(u))
		}
	}
	h.Stats.LevelSizes = make([]int, top)
	for i := range byLevel {
		h.Stats.LevelSizes[i] = len(byLevel[i])
	}

	// One grid per level set, over the subset's positions, cells sized for
	// the subset's population as Kinetic sizes its level grids. Shared by
	// the up-links of the level below and the within-level links of the
	// level itself.
	grids := make([]*spatial.DynGrid, top)
	subPts := make([][]geom.Point, top)
	parallel.ForGrain(int(top), 1, func(i int) {
		sp := make([]geom.Point, len(byLevel[i]))
		for j, u := range byLevel[i] {
			sp[j] = pts[u]
		}
		subPts[i] = sp
		box := spatial.FiniteBounds(sp)
		grids[i] = spatial.NewDynGrid(sp, box, spatial.CellSize(box, len(sp)))
	})

	var edges []uint64
	parent := make([]int32, n)
	parentDist := make([]float64, n)
	for i := range parent {
		parent[i] = -1
	}

	for i := int32(0); i < top; i++ {
		src := atLevel[i]
		if len(src) == 0 {
			continue
		}
		// Up-links: nearest neighbor in the next level set. The top level
		// has no next set; its connectivity comes from the MST below.
		if i+1 < top && len(byLevel[i+1]) > 0 {
			targets := byLevel[i+1]
			grid := grids[i+1]
			parallel.ForShard(len(src), func(lo, hi int) {
				var scratch spatial.KNNScratch
				var nb []int32
				for s := lo; s < hi; s++ {
					u := src[s]
					nb = grid.KNearestInto(pts[u], 1, -1, &scratch, nb[:0])
					if len(nb) == 0 {
						continue
					}
					v := targets[nb[0]]
					parent[u] = v
					parentDist[u] = pts[u].Dist(pts[v])
				}
			})
		}
		// Within-level links: nearest neighbor in the node's own level set,
		// excluding itself. src is a subsequence of byLevel[i] (both are in
		// ascending index order), so one merge walk yields each source's
		// position in the subset — the grid's exclude index.
		if len(byLevel[i]) > 1 {
			members := byLevel[i]
			grid := grids[i]
			srcPos := make([]int32, len(src))
			for s, j := 0, 0; s < len(src); s++ {
				for members[j] != src[s] {
					j++
				}
				srcPos[s] = int32(j)
			}
			we := parallel.Collect(len(src), func(lo, hi int, out []uint64) []uint64 {
				var scratch spatial.KNNScratch
				var nb []int32
				for s := lo; s < hi; s++ {
					u := src[s]
					nb = grid.KNearestInto(pts[u], 1, int(srcPos[s]), &scratch, nb[:0])
					if len(nb) == 0 {
						continue
					}
					out = append(out, graph.Pack(u, members[nb[0]]))
				}
				return out
			})
			h.Stats.WithinEdges += len(we)
			edges = append(edges, we...)
		}
	}

	// Bounded-degree pruning: per (parent, child level) — a node in several
	// level sets parents each level's children independently — order the
	// attachments by (parent, level, distance, child) and chain each group.
	// Every alive node below the top level has a parent.
	type attach struct {
		parent, child, level int32
		dist                 float64
	}
	attaches := make([]attach, 0, len(byLevel[0])-len(byLevel[top-1]))
	for u, p := range parent {
		if p >= 0 {
			attaches = append(attaches, attach{
				parent: p, child: int32(u), level: h.Levels[u], dist: parentDist[u],
			})
		}
	}
	slices.SortFunc(attaches, func(a, b attach) int {
		if a.parent != b.parent {
			return int(a.parent - b.parent)
		}
		if a.level != b.level {
			return int(a.level - b.level)
		}
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return int(a.child - b.child)
	})
	maxKids := spec.MaxChildren
	lastPruned := int32(-1)
	var kids []int32
	for lo := 0; lo < len(attaches); {
		hi := lo
		for hi < len(attaches) && attaches[hi].parent == attaches[lo].parent &&
			attaches[hi].level == attaches[lo].level {
			hi++
		}
		kids = kids[:0]
		for _, a := range attaches[lo:hi] {
			kids = append(kids, a.child)
		}
		p := attaches[lo].parent
		edges = chain(edges, p, kids, maxKids)
		direct := len(kids)
		if maxKids > 0 && direct > maxKids {
			direct = maxKids
			// Count distinct pruned parents, not pruned groups: a parent
			// in several level sets can overflow at more than one level,
			// and the sort keeps its groups adjacent.
			if p != lastPruned {
				h.Stats.PrunedParents++
				lastPruned = p
			}
		}
		h.Stats.UpEdges += direct
		h.Stats.ChainEdges += len(kids) - direct
		lo = hi
	}

	// Top-level spanning tree: Prim over the (small) highest occupied level,
	// deterministic via smallest-index tie-breaks.
	if t := byLevel[top-1]; len(t) > 1 {
		edges = mstAppend(edges, t, subPts[top-1], &mstScratch{})
		h.Stats.MSTEdges += len(t) - 1
	}

	h.Geometric = &rgg.Geometric{CSR: graph.FromPacked(n, edges, false), Pos: pts}
	return h
}

// chain appends the packed links of one pruning group to out: kids are the
// group's children sorted by (distance to parent, index); the first
// maxKids attach to parent directly and kid i ≥ maxKids to kid
// i − maxKids, so each child gains at most one chained dependant. maxKids
// 0 links every kid to parent.
func chain(out []uint64, parent int32, kids []int32, maxKids int) []uint64 {
	for i, c := range kids {
		if maxKids == 0 || i < maxKids {
			out = append(out, graph.Pack(parent, c))
		} else {
			out = append(out, graph.Pack(kids[i-maxKids], c))
		}
	}
	return out
}

// mstScratch is reusable working storage for mstAppend.
type mstScratch struct {
	inTree []bool
	best   []float64
	from   []int32
}

// mstAppend appends the packed Euclidean MST edges of the node subset to
// out via O(k²) Prim — the top level set is geometrically small (expected
// O(1/p)), so the dense sweep beats building another spatial index.
func mstAppend(out []uint64, ids []int32, pos []geom.Point, s *mstScratch) []uint64 {
	k := len(ids)
	s.inTree = slices.Grow(s.inTree[:0], k)[:k]
	s.best = slices.Grow(s.best[:0], k)[:k]
	s.from = slices.Grow(s.from[:0], k)[:k]
	inTree, best, from := s.inTree, s.best, s.from
	clear(inTree)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = 0
	}
	inTree[0] = true
	for j := 1; j < k; j++ {
		best[j] = pos[0].Dist2(pos[j])
	}
	for added := 1; added < k; added++ {
		pick := -1
		for j := 0; j < k; j++ {
			if inTree[j] {
				continue
			}
			if pick < 0 || best[j] < best[pick] {
				pick = j
			}
		}
		inTree[pick] = true
		out = append(out, graph.Pack(ids[from[pick]], ids[pick]))
		for j := 0; j < k; j++ {
			if inTree[j] {
				continue
			}
			if d := pos[pick].Dist2(pos[j]); d < best[j] {
				best[j] = d
				from[j] = int32(pick)
			}
		}
	}
	return out
}
