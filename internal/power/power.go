// Package power implements the radio energy model the paper uses to argue
// power efficiency: transmitting over an edge of Euclidean length d costs
// d^β with the path-loss exponent β ∈ [2, 5], and the power stretch of a
// subgraph H ⊆ G is the worst-case ratio of minimum path powers
// p_H(u, v) / p_G(u, v) (Li–Wan–Wang). Their Lemma 2 bounds the power
// stretch by δ^β where δ is the distance stretch — the relationship the E11
// experiment verifies empirically.
package power

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
)

// MinBeta and MaxBeta bound the path-loss exponent range of the model.
const (
	MinBeta = 2.0
	MaxBeta = 5.0
)

// EdgeCost returns d^β for one hop of length d.
func EdgeCost(d, beta float64) float64 { return math.Pow(d, beta) }

// StretchSample is one (u, v) stretch/power measurement — the single sample
// shape shared by every stretch sampler in the repository (the E08 rep
// sampler in core wraps it with lattice data). Fields beyond U, V, Euclid
// and SubLen are populated only when the producing measurement asked for
// them (see BatchSpec).
type StretchSample struct {
	U, V         int32
	Euclid       float64 // straight-line distance d(u, v)
	SubLen       float64 // min path length in the subgraph
	BaseLen      float64 // min path length in the base graph
	PowerSub     float64 // min path power in the subgraph
	PowerBase    float64 // min path power in the base graph
	DistStretch  float64 // SubLen / BaseLen
	PowerStretch float64 // PowerSub / PowerBase
	Hops         int     // BFS hop count in the subgraph (−1 unreachable)
}

// EuclidStretch returns SubLen / Euclid — the paper's P2 stretch δ for this
// pair (the Euclidean distance lower-bounds any path).
func (s StretchSample) EuclidStretch() float64 {
	if s.Euclid == 0 {
		return 1
	}
	return s.SubLen / s.Euclid
}

// MeasureStretch samples vertex pairs (from the given candidate set, which
// must be connected in both graphs for a sample to count) and returns the
// power and distance stretch per pair. Pairs that are disconnected in
// either graph are skipped; sampling stops after maxAttempts regardless.
// beta <= 0 measures distance stretch only: the power fields of the
// returned samples stay zero (see BatchSpec.Beta).
//
// Measurement is batched: pairs are drawn with a source fanout (several
// random targets per random source, like the E08 rep sampler) and handed to
// a Measurer in rounds — one buffered Dijkstra sweep per source and weight
// covers all of that source's targets, instead of four point-to-point runs
// per pair — and connected pairs are accepted in draw order. All randomness
// is serial, so results are deterministic at any GOMAXPROCS.
func MeasureStretch(sub, base *graph.CSR, pos []geom.Point, candidates []int32,
	beta float64, pairs, maxAttempts int, rng *rand.Rand) ([]StretchSample, error) {
	return MeasureStretchCached(sub, base, pos, candidates, beta, pairs, maxAttempts, rng, nil)
}

// MeasureStretchCached is MeasureStretch with weight-slab memoization: the
// Measurer it builds pulls its per-edge weight slabs from slabs (nil = no
// caching), so repeated measurements against a shared graph — every E14
// baseline against one UDG base, every E11 β against one SENS subgraph —
// reuse the already-filled slabs.
func MeasureStretchCached(sub, base *graph.CSR, pos []geom.Point, candidates []int32,
	beta float64, pairs, maxAttempts int, rng *rand.Rand, slabs *SlabCache) ([]StretchSample, error) {
	if sub.N != base.N {
		return nil, errors.New("power: subgraph and base have different vertex counts")
	}
	if len(candidates) < 2 {
		return nil, errors.New("power: need at least two candidate vertices")
	}
	fanout := 8
	if pairs < fanout {
		fanout = pairs
	}
	// A pair disconnected in sub is rejected below whatever its sweeps
	// return, so it is dropped before measurement: one union-find pass over
	// the sparse subgraph's edges saves the base sweeps of every such pair.
	comps := graph.NewUnionFind(sub.N)
	for u := int32(0); int(u) < sub.N; u++ {
		for _, v := range sub.Neighbors(u) {
			if v > u {
				comps.Union(u, v)
			}
		}
	}
	// At most min(pairs, maxAttempts) pairs are ever held at once.
	room := max(0, min(pairs, maxAttempts))
	out := make([]StretchSample, 0, room)
	batch := make([]Pair, 0, room)
	var m *Measurer
	for attempts := 0; attempts < maxAttempts && len(out) < pairs; {
		batch = batch[:0]
		for len(batch) < pairs-len(out) && attempts < maxAttempts {
			u := candidates[rng.IntN(len(candidates))]
			for f := 0; f < fanout && len(batch) < pairs-len(out) && attempts < maxAttempts; f++ {
				attempts++
				v := candidates[rng.IntN(len(candidates))]
				if u == v {
					continue
				}
				batch = append(batch, Pair{U: u, V: v})
			}
		}
		batch = slices.DeleteFunc(batch, func(p Pair) bool { return !comps.Connected(p.U, p.V) })
		if len(batch) == 0 {
			continue
		}
		if m == nil {
			m = NewMeasurerCached(sub, base, pos, BatchSpec{Beta: beta}, slabs)
		}
		for _, s := range m.Pairs(batch) {
			if len(out) >= pairs {
				break
			}
			// Reject pairs disconnected in either graph (or degenerate,
			// zero-cost pairs); with beta <= 0 the power fields are unset, so
			// the equivalent distance-side filter applies.
			if beta > 0 {
				if math.IsInf(s.PowerSub, 1) || math.IsInf(s.PowerBase, 1) || s.PowerBase == 0 {
					continue
				}
			} else if math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1) || s.BaseLen == 0 {
				continue
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("power: no connected pairs sampled")
	}
	return out, nil
}

// LiWanWangBound returns the Lemma-2 style upper bound δ^β for a stretch
// factor δ.
//
// Scope note (matters for how experiments check it): the valid per-pair
// inequality for a subnetwork H with Euclidean stretch factor δ (the
// paper's P2: path length ≤ δ × straight-line distance) is
//
//	p_H(u, v) ≤ δ^β · d(u, v)^β,
//
// because the minimum-power path costs at most the power of the
// minimum-length path, which costs at most (its length)^β. The ratio
// against the dense base graph's optimal power p_G(u, v) is NOT bounded by
// the per-pair length-stretch^β: the base can split a route into many short
// hops whose power is far below length^β, so p_H/p_G can exceed
// (d_H/d_G)^β. Li–Wan–Wang's Lemma 2 applies to spanning subgraphs on the
// same vertex set via an edge-by-edge argument; SENS keeps only a subset of
// nodes, so the Euclidean form above is the one the paper's §1 claim
// reduces to.
func LiWanWangBound(distStretch, beta float64) float64 {
	return math.Pow(distStretch, beta)
}

// TotalEdgePower returns the sum of d^β over all edges of the graph — the
// network-wide maintenance cost of keeping every link up, a standard
// topology-control comparison metric.
func TotalEdgePower(g *graph.CSR, pos []geom.Point, beta float64) float64 {
	var sum float64
	for u := int32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				sum += EdgeCost(pos[u].Dist(pos[v]), beta)
			}
		}
	}
	return sum
}
