package graph

import (
	"math"

	"repro/internal/geom"
)

// The closure-weighted Dijkstra below is the test oracle for the bounded
// edge-slab sweep DijkstraEdgesInto: a full sweep per source (Dijkstra) and
// a point-to-point sweep that stops when its one target settles
// (DijkstraTo), with weights computed per relaxation instead of read from a
// slab.

// EuclideanWeight returns an edge-weight function measuring Euclidean length
// between the endpoints' positions.
func EuclideanWeight(pos []geom.Point) func(u, v int32) float64 {
	return func(u, v int32) float64 { return pos[u].Dist(pos[v]) }
}

// PowerWeight returns an edge-weight function d(u,v)^beta — the standard
// radio energy model used by Li–Wan–Wang for power stretch.
func PowerWeight(pos []geom.Point, beta float64) func(u, v int32) float64 {
	return func(u, v int32) float64 { return math.Pow(pos[u].Dist(pos[v]), beta) }
}

// Dijkstra computes weighted distances from src under the given edge weight
// function; unreachable vertices get +Inf.
func Dijkstra(g *CSR, src int32, weight func(u, v int32) float64) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{src, 0}}}
	for len(pq.items) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, w := range g.Neighbors(it.v) {
			nd := it.d + weight(it.v, w)
			if nd < dist[w] {
				dist[w] = nd
				pq.push(distItem{w, nd})
			}
		}
	}
	return dist
}

// DijkstraTo computes the weighted distance from src to dst, stopping early
// once dst is settled. Returns +Inf if unreachable.
func DijkstraTo(g *CSR, src, dst int32, weight func(u, v int32) float64) float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{src, 0}}}
	for len(pq.items) > 0 {
		it := pq.pop()
		if it.v == dst {
			return it.d
		}
		if it.d > dist[it.v] {
			continue
		}
		for _, w := range g.Neighbors(it.v) {
			nd := it.d + weight(it.v, w)
			if nd < dist[w] {
				dist[w] = nd
				pq.push(distItem{w, nd})
			}
		}
	}
	return math.Inf(1)
}
