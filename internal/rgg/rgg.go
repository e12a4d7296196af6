// Package rgg builds the paper's two base interconnection structures on a
// point set: the unit disk graph UDG(2, λ) and the undirected
// k-nearest-neighbor graph NN(2, k).
//
// Following the paper's notation (§1.1):
//
//   - UDG(2, λ): an edge joins x and y iff d(x, y) ≤ r (r = 1 in the paper;
//     the radius is a parameter here so experiments can rescale).
//   - NN(2, k): each point establishes undirected edges to the k points
//     nearest to it; the graph is the union of these relations, so degrees
//     range from k up to ~6k (a point can be among the k nearest of many).
//
// Ties in the k-NN relation are measure-zero for Poisson inputs; they are
// broken deterministically by point index, matching the paper's "any
// tie-breaking mechanism we deem fit".
package rgg

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// Geometric is a geometric graph: a CSR graph together with the vertex
// positions that induced it.
type Geometric struct {
	*graph.CSR
	Pos []geom.Point
}

// EdgeLength returns the Euclidean length of the edge {u, v}.
func (g *Geometric) EdgeLength(u, v int32) float64 { return g.Pos[u].Dist(g.Pos[v]) }

// UDG builds the unit disk graph with connection radius r over pts: the
// UDGGrid pair-free cell enumeration, the one fixed-radius builder behind
// the scenarios, the experiments and the sensnet API. The result is
// deterministic: identical CSR at any GOMAXPROCS.
func UDG(pts []geom.Point, r float64) *Geometric { return UDGGrid(pts, r) }

// NN builds the undirected k-nearest-neighbor graph over pts. Each vertex
// contributes edges to its k nearest distinct points (all points if fewer
// than k others exist). The query loop runs sharded across all cores, one
// reusable kNN scratch per shard; mutual-pair duplicates are removed during
// the CSR build. The result is deterministic: identical CSR at any
// GOMAXPROCS.
func NN(pts []geom.Point, k int) *Geometric {
	b := graph.NewBuilder(len(pts))
	if len(pts) > 1 && k > 0 {
		// The kd-tree keeps its logarithmic query cost on clustered point
		// sets, where a uniform grid's ring search must scan every point
		// of a crowded cell.
		tree := spatial.NewKDTree(pts)
		edges := parallel.Collect(len(pts), func(lo, hi int, out []uint64) []uint64 {
			var scratch spatial.KNNScratch
			var nbrs []int32
			for i := lo; i < hi; i++ {
				nbrs = tree.KNearestInto(pts[i], k, i, &scratch, nbrs[:0])
				for _, j := range nbrs {
					out = append(out, graph.Pack(int32(i), j))
				}
			}
			return out
		})
		b.AddPacked(edges, false)
	}
	return &Geometric{CSR: b.Build(), Pos: pts}
}
