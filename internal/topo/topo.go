// Package topo implements the classical topology-control baselines the
// paper positions itself against (§1.2): structures that keep EVERY node
// connected — the Gabriel graph, the relative neighborhood graph (RNG),
// the Yao graph, and the Euclidean minimum spanning tree. The E14
// experiment compares them, and plain k-NN (rgg.NN), with the SENS
// constructions on degree, stretch, power and active-node metrics.
//
// All four are computed as subgraphs of a unit disk graph (as a real radio
// network would), so "connected" means "as connected as UDG allows".
package topo

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rgg"
)

// The witness scans (Gabriel, RNG) and the cone scan (Yao) are embarrassingly
// parallel over the source vertex: each vertex decides its kept edges from
// base adjacency alone. They run sharded across all cores with per-shard
// packed-edge buffers merged in shard order, so the output CSR is identical
// at any GOMAXPROCS.

// Gabriel returns the Gabriel graph restricted to base edges: {u, v} is
// kept iff the disk with diameter uv contains no other point.
func Gabriel(base *rgg.Geometric) *rgg.Geometric {
	pts := base.Pos
	edges := parallel.Collect(base.N, func(lo, hi int, out []uint64) []uint64 {
		for u := int32(lo); u < int32(hi); u++ {
			for _, v := range base.Neighbors(u) {
				if v <= u {
					continue
				}
				mid := geom.Midpoint(pts[u], pts[v])
				r2 := pts[u].Dist2(pts[v]) / 4
				ok := true
				// Any witness must be a UDG neighbor of u or v (it lies within
				// the uv-diameter disk, so within d(u,v) ≤ radius of both).
				for _, w := range base.Neighbors(u) {
					if w != v && mid.Dist2(pts[w]) < r2-1e-15 {
						ok = false
						break
					}
				}
				if ok {
					for _, w := range base.Neighbors(v) {
						if w != u && mid.Dist2(pts[w]) < r2-1e-15 {
							ok = false
							break
						}
					}
				}
				if ok {
					out = append(out, graph.Pack(u, v))
				}
			}
		}
		return out
	})
	return &rgg.Geometric{CSR: graph.FromPacked(len(pts), edges, true), Pos: pts}
}

// RelativeNeighborhood returns the RNG restricted to base edges: {u, v} is
// kept iff no point w has max(d(u,w), d(v,w)) < d(u,v) (the "lune" is
// empty).
func RelativeNeighborhood(base *rgg.Geometric) *rgg.Geometric {
	pts := base.Pos
	edges := parallel.Collect(base.N, func(lo, hi int, out []uint64) []uint64 {
		for u := int32(lo); u < int32(hi); u++ {
			for _, v := range base.Neighbors(u) {
				if v <= u {
					continue
				}
				duv := pts[u].Dist2(pts[v])
				ok := true
				// A lune witness is within d(u,v) of both u and v, hence a UDG
				// neighbor of u.
				for _, w := range base.Neighbors(u) {
					if w == v {
						continue
					}
					if pts[u].Dist2(pts[w]) < duv-1e-15 && pts[v].Dist2(pts[w]) < duv-1e-15 {
						ok = false
						break
					}
				}
				if ok {
					out = append(out, graph.Pack(u, v))
				}
			}
		}
		return out
	})
	return &rgg.Geometric{CSR: graph.FromPacked(len(pts), edges, true), Pos: pts}
}

// Yao returns the Yao graph with the given number of cones (≥ 6 for
// connectivity guarantees): each vertex keeps, per cone, its shortest base
// edge. The union is taken undirected.
func Yao(base *rgg.Geometric, cones int) *rgg.Geometric {
	if cones < 1 {
		cones = 1
	}
	pts := base.Pos
	edges := parallel.Collect(base.N, func(lo, hi int, out []uint64) []uint64 {
		best := make([]int32, cones)
		bestD := make([]float64, cones)
		for u := int32(lo); u < int32(hi); u++ {
			for c := range best {
				best[c] = -1
				bestD[c] = math.Inf(1)
			}
			for _, v := range base.Neighbors(u) {
				dir := pts[v].Sub(pts[u])
				theta := dir.Angle() // (−π, π]
				c := int((theta + math.Pi) / (2 * math.Pi) * float64(cones))
				if c >= cones {
					c = cones - 1
				}
				if d := dir.Norm2(); d < bestD[c] {
					bestD[c] = d
					best[c] = v
				}
			}
			for _, v := range best {
				if v >= 0 {
					// Opposite cones of v may select the same pair; dedup at
					// build handles the double emission.
					out = append(out, graph.Pack(u, v))
				}
			}
		}
		return out
	})
	return &rgg.Geometric{CSR: graph.FromPacked(len(pts), edges, false), Pos: pts}
}

// EMST returns the Euclidean minimum spanning forest of the base graph: a
// spanning tree per connected component. It is Kruskal's algorithm over the
// base edges, sorted by (squared length, packed pair). The IEEE-754 bits of a non-negative d² order like the float, and
// the packed pair breaks ties by (u, v), so the order is total and the
// forest does not depend on the worker count. The scan stops once one
// component is left.
func EMST(base *rgg.Geometric) *rgg.Geometric {
	pts := base.Pos
	type weighted struct{ key, e uint64 }
	recs := make([]weighted, 0, base.EdgeCount)
	for u := int32(0); int(u) < base.N; u++ {
		for _, v := range base.Neighbors(u) {
			if v > u {
				recs = append(recs, weighted{math.Float64bits(pts[u].Dist2(pts[v])), graph.Pack(u, v)})
			}
		}
	}
	slices.SortFunc(recs, func(a, b weighted) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.e, b.e)
	})
	uf := graph.NewUnionFind(base.N)
	var tree []uint64
	for _, r := range recs {
		if uf.Count() == 1 {
			break
		}
		if u, v := graph.Unpack(r.e); uf.Union(u, v) {
			tree = append(tree, r.e)
		}
	}
	return &rgg.Geometric{CSR: graph.FromPacked(base.N, tree, true), Pos: pts}
}
