package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// StretchSample records one representative pair measurement for the
// Theorem 3.2 experiments. It is the shared power.StretchSample shape
// (Euclid, SubLen — the Euclidean-weighted shortest-path length in the SENS
// subgraph — and Hops) extended with the lattice-level distance of the
// coupling.
type StretchSample struct {
	power.StretchSample
	// LatticeD is the L1 distance between the two tiles under φ — the
	// D(x, y) of Lemma 1.1 / Theorem 3.2.
	LatticeD int
}

// Stretch returns SubLen / Euclid (the distance stretch δ of §1).
func (s StretchSample) Stretch() float64 { return s.EuclidStretch() }

// SampleRepStretch measures stretch between random pairs of good-tile
// representatives inside the largest component. Pairs are drawn with a
// source fanout (several targets per source, fanout 8) and measured through
// the batched power.MeasurePairs engine: one buffered Dijkstra+BFS sweep
// per distinct source covers all of that source's targets.
//
// Sampling is attempt-bounded: pairs whose endpoints are disconnected in
// the subgraph (possible only pre-prune, when reps sit in different
// components) are skipped, and after maxAttempts draws the samples
// collected so far are returned — possibly fewer than requested, never an
// infinite loop.
func (n *Network) SampleRepStretch(pairs int, rng *rand.Rand) []StretchSample {
	reps, coords := n.GoodReps()
	if len(reps) < 2 || pairs <= 0 {
		return nil
	}
	fanout := 8
	if pairs < fanout {
		fanout = pairs
	}
	maxAttempts := 40*pairs + 64 // same safety margin as power.MeasureStretch callers
	out := make([]StretchSample, 0, pairs)
	m := power.NewMeasurer(n.Graph, nil, n.Pts, power.BatchSpec{Hops: true})
	var batch []power.Pair
	var batchIdx [][2]int32 // (source, target) rep indices per batched pair
	for attempts := 0; attempts < maxAttempts && len(out) < pairs; {
		batch, batchIdx = batch[:0], batchIdx[:0]
		for len(batch) < pairs-len(out) && attempts < maxAttempts {
			si := rng.IntN(len(reps))
			for f := 0; f < fanout && len(batch) < pairs-len(out) && attempts < maxAttempts; f++ {
				attempts++
				ti := rng.IntN(len(reps))
				if ti == si {
					continue
				}
				batch = append(batch, power.Pair{U: reps[si], V: reps[ti]})
				batchIdx = append(batchIdx, [2]int32{int32(si), int32(ti)})
			}
		}
		for i, s := range m.Pairs(batch) {
			if len(out) >= pairs {
				break
			}
			if s.Hops < 0 || math.IsInf(s.SubLen, 1) {
				continue // different component (possible only pre-prune)
			}
			sx, sy, _ := n.Map.Phi(coords[batchIdx[i][0]])
			tx, ty, _ := n.Map.Phi(coords[batchIdx[i][1]])
			out = append(out, StretchSample{
				StretchSample: s,
				LatticeD:      lattice.L1(sx, sy, tx, ty),
			})
		}
	}
	return out
}

// EmptyBoxProbability estimates the coverage failure probability of
// Theorem 3.3: the probability that a random ℓ×ℓ box (placed uniformly
// inside the deployment region) contains no member of the SENS network.
func (n *Network) EmptyBoxProbability(ell float64, trials int, rng *rand.Rand) stats.Proportion {
	if ell > n.Box.Width() || ell > n.Box.Height() || trials <= 0 {
		return stats.NewProportion(0, 0)
	}
	members := n.MemberPoints()
	empty := 0
	for t := 0; t < trials; t++ {
		x := n.Box.Min.X + rng.Float64()*(n.Box.Width()-ell)
		y := n.Box.Min.Y + rng.Float64()*(n.Box.Height()-ell)
		box := geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+ell, y+ell)}
		hit := false
		for _, p := range members {
			if box.Contains(p) {
				hit = true
				break
			}
		}
		if !hit {
			empty++
		}
	}
	return stats.NewProportion(empty, trials)
}

// DegreeHistogram returns the degree distribution of the members of the
// SENS network (P1: max degree 4 for UDG-SENS).
func (n *Network) DegreeHistogram() []int {
	var h []int
	for _, v := range n.Members {
		d := n.Graph.Degree(v)
		for len(h) <= d {
			h = append(h, 0)
		}
		h[d]++
	}
	return h
}

// AdjacentGoodPairs returns all pairs of horizontally/vertically adjacent
// good tiles — the open edges of the coupled percolated mesh — in first-tile
// (I, J) order, Top neighbor (I, J+1) before Right (I+1, J).
func (n *Network) AdjacentGoodPairs() [][2]tiling.Coord {
	var out [][2]tiling.Coord
	w, h := n.Map.W, n.Map.H
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			t := y*w + x
			if !n.Tiles[t].Good {
				continue
			}
			c := n.Map.TileAt(t)
			if y+1 < h && n.Tiles[t+w].Good {
				out = append(out, [2]tiling.Coord{c, c.Neighbor(tiling.Top)})
			}
			if x+1 < w && n.Tiles[t+1].Good {
				out = append(out, [2]tiling.Coord{c, c.Neighbor(tiling.Right)})
			}
		}
	}
	return out
}

// RepPathWithinBound verifies Claim 2.1 / Claim 2.3 for one adjacent good
// pair: the two representatives are connected in the SENS subgraph and every
// hop of the shortest path has length at most maxHop. Returns the hop count
// (−1 if disconnected) and whether the per-hop bound held.
func (n *Network) RepPathWithinBound(a, b tiling.Coord, maxHop float64) (hops int, ok bool) {
	ta, tb := n.Tile(a), n.Tile(b)
	if ta == nil || tb == nil || ta.Rep < 0 || tb.Rep < 0 {
		return -1, false
	}
	path := graph.BFSPath(n.Graph, ta.Rep, tb.Rep)
	if path == nil {
		return -1, false
	}
	for i := 1; i < len(path); i++ {
		if n.Pts[path[i-1]].Dist(n.Pts[path[i]]) > maxHop+1e-9 {
			return len(path) - 1, false
		}
	}
	return len(path) - 1, true
}
