package tiling

import (
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/pointprocess"
	"repro/internal/stats"
)

// MonteCarloGoodProbability estimates the probability that a single tile of
// the given side is good under a Poisson process of intensity lambda, for an
// arbitrary goodness predicate over tile-local points. Each trial draws an
// independent tile realization — exactly the i.i.d. tile structure the
// site-percolation coupling requires.
func MonteCarloGoodProbability(side, lambda float64, good func([]geom.Point) bool, trials int, rng *rand.Rand) stats.Proportion {
	half := side / 2
	tile := geom.NewRect(geom.Pt(-half, -half), geom.Pt(half, half))
	k := 0
	for t := 0; t < trials; t++ {
		pts := pointprocess.Poisson(tile, lambda, rng)
		if good(pts) {
			k++
		}
	}
	return stats.NewProportion(k, trials)
}

// AssignTilesCSR groups point indices by the tile containing them under the
// given map in dense CSR form: tile t = y·W + x of the mapped window holds
// the point indices order[start[t]:start[t+1]]. Points outside the window
// are dropped. Built by counting sort over the window's linear tile ids —
// the tile-id pass runs sharded across all cores (each point's id is a pure
// function of its position), the scatter is one serial O(n) pass — so the
// layout is identical at any GOMAXPROCS. This is the tile-sharded SENS
// build's input: a dense slab the per-tile workers index directly, with no
// map iteration order to launder.
func AssignTilesCSR(m Map, pts []geom.Point) (start, order []int32) {
	nt := m.W * m.H
	if nt <= 0 || len(pts) == 0 {
		return make([]int32, nt+1), nil
	}
	// Pass 1 (parallel): linear tile id per point (−1 for unmapped).
	cell := make([]int32, len(pts))
	parallel.ForShard(len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := m.Tiling.TileOf(pts[i])
			if t, ok := m.Index(c); ok {
				cell[i] = int32(t)
			} else {
				cell[i] = -1
			}
		}
	})
	// Counts + prefix sum.
	counts := make([]int32, nt+1)
	for _, c := range cell {
		if c >= 0 {
			counts[c+1]++
		}
	}
	for t := 0; t < nt; t++ {
		counts[t+1] += counts[t]
	}
	// Pass 2: scatter into the slab; the cursor copy keeps counts usable as
	// the start offsets.
	order = make([]int32, counts[nt])
	cursor := make([]int32, nt)
	copy(cursor, counts[:nt])
	for i := range pts {
		if c := cell[i]; c >= 0 {
			order[cursor[c]] = int32(i)
			cursor[c]++
		}
	}
	return counts, order
}

// AssignTiles groups point indices by the tile containing them under the
// given map, returning only occupied tiles inside the mapped window. The
// returned slices index into pts; they are subslices of the one shared slab
// AssignTilesCSR builds.
func AssignTiles(m Map, pts []geom.Point) map[Coord][]int32 {
	out := make(map[Coord][]int32)
	nt := m.W * m.H
	if nt <= 0 || len(pts) == 0 {
		return out
	}
	start, order := AssignTilesCSR(m, pts)
	for t := 0; t < nt; t++ {
		if start[t+1] > start[t] {
			out[m.TileAt(t)] = order[start[t]:start[t+1]]
		}
	}
	return out
}

// LocalPoints converts the given point indices into tile-local coordinates.
func LocalPoints(m Map, c Coord, pts []geom.Point, idx []int32, dst []geom.Point) []geom.Point {
	center := m.Tiling.Center(c)
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, pts[i].Sub(center))
	}
	return dst
}
