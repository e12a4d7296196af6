package power

import (
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Pair is one (source, target) measurement request for Measurer.Pairs.
// U and V index the position slice; U == V pairs are legal but degenerate
// (zero distances) — samplers filter them before batching.
type Pair struct{ U, V int32 }

// BatchSpec selects which quantities the engine computes per pair.
type BatchSpec struct {
	// Beta is the path-loss exponent for the power fields (PowerSub,
	// PowerBase, PowerStretch). Power runs are skipped when Beta <= 0 and
	// those fields stay zero.
	Beta float64
	// Hops additionally computes BFS hop counts in the subgraph
	// (StretchSample.Hops; −1 for unreachable targets).
	Hops bool
}

// Measurer is the batched stretch/power measurement engine. It precomputes
// per-edge weight slabs — Euclidean lengths and, when Beta > 0, d^β powers,
// aligned with each graph's CSR adjacency — once at construction, so every
// subsequent shortest-path sweep is a pure array-indexed traversal with no
// math.Pow or sqrt per edge relaxation. Samplers that measure in rounds
// (MeasureStretch, core.SampleRepStretch) build one Measurer and reuse it
// across rounds.
type Measurer struct {
	sub, base *graph.CSR
	pos       []geom.Point
	spec      BatchSpec
	// Per-Adj edge weights: [graph][kind] with kind 0 = Euclidean,
	// kind 1 = power (nil when Beta <= 0). base slots nil when base is nil.
	wSubD, wSubP, wBaseD, wBaseP []float64
	// Cache entries of the base slabs, for their gateway rows (nil
	// uncached).
	eBaseD, eBaseP *slabEntry
}

// NewMeasurer builds the engine for a subgraph, an optional base graph
// (nil skips all base-side fields) and a measurement spec. base, when
// non-nil, must have the same vertex count as sub. The weight slabs are
// filled in parallel with deterministic content (a pure function of the
// graphs and positions).
func NewMeasurer(sub, base *graph.CSR, pos []geom.Point, spec BatchSpec) *Measurer {
	return NewMeasurerCached(sub, base, pos, spec, nil)
}

// NewMeasurerCached is NewMeasurer with weight-slab memoization: slabs
// (nil = no caching) serves each (graph, β) slab from cache, so measurers
// sharing a base graph — the topology baselines of E14, the β sweep of E11
// — fill the shared slabs once instead of once per measurer. The slabs are
// read-only to the Measurer, so sharing is safe. When slabs has a gateway
// set, the base slabs come with their gateway rows (see SlabCache).
func NewMeasurerCached(sub, base *graph.CSR, pos []geom.Point, spec BatchSpec, slabs *SlabCache) *Measurer {
	m := &Measurer{sub: sub, base: base, pos: pos, spec: spec}
	m.wSubD = slabs.weights(sub, pos, 0)
	if spec.Beta > 0 {
		m.wSubP = slabs.weights(sub, pos, spec.Beta)
	}
	if base != nil {
		m.wBaseD, m.eBaseD = slabs.lookup(base, pos, 0, true)
		if spec.Beta > 0 {
			m.wBaseP, m.eBaseP = slabs.lookup(base, pos, spec.Beta, true)
		}
	}
	return m
}

// baseSweep returns the base-graph distances from src under weights w for
// the current group's targets: the gateway row for src when the slab's
// cache entry e has one (filled by a full sweep on first use), else a
// bounded sweep into *buf. The row and the bounded sweep hold the same
// bytes at every target (see graph.DijkstraEdgesInto). Rows are shared and
// must be read only.
func (m *Measurer) baseSweep(e *slabEntry, src int32, w []float64, buf *[]float64, ps *pairsScratch) []float64 {
	var rows []gatewayRow
	if e != nil {
		rows = e.rows
	}
	for i := range rows {
		r := &rows[i]
		if r.src != src {
			continue
		}
		filled := false
		r.once.Do(func() {
			r.d = graph.DijkstraEdgesInto(m.base, src, nil, w, nil, &ps.dijkstra)
			filled = true
		})
		if filled {
			e.cache.rowFills.Add(1)
		} else {
			e.cache.rowHits.Add(1)
		}
		return r.d
	}
	*buf = graph.DijkstraEdgesInto(m.base, src, ps.targets, w, *buf, &ps.dijkstra)
	return *buf
}

// edgeWeights fills the per-Adj weight slab for one graph: Euclidean edge
// length for beta <= 0, d^beta otherwise.
func edgeWeights(g *graph.CSR, pos []geom.Point, beta float64) []float64 {
	w := make([]float64, len(g.Adj))
	parallel.ForShard(g.N, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for i := g.Start[u]; i < g.Start[u+1]; i++ {
				d := pos[u].Dist(pos[g.Adj[i]])
				if beta > 0 {
					w[i] = math.Pow(d, beta)
				} else {
					w[i] = d
				}
			}
		}
	})
	return w
}

// pairsScratch is one source group's reusable state: the sweep scratch,
// the distance buffers of each (graph, weight) sweep and the group's
// targets.
type pairsScratch struct {
	dijkstra                 graph.DijkstraScratch
	bfs                      graph.PathScratch
	dSub, dBase, pSub, pBase []float64
	hop                      []int32
	targets                  []int32
}

// pairsPool recycles pairsScratch across source groups and Pairs calls, so
// a stream of small measurements (one daemon query each) reuses warm
// buffers instead of allocating them per call. A scratch carries no state
// from one sweep to the next, whatever graph it last served.
var pairsPool = sync.Pool{New: func() any { return new(pairsScratch) }}

// Pairs computes a StretchSample for every requested pair, in pair order,
// by grouping the pairs by source vertex and running ONE buffered Dijkstra
// per (source, weight slab) — instead of one point-to-point run per pair —
// so a source sampled with k targets costs a single sweep for all k.
//
// Each sweep is bounded by its group's targets: it stops once the last of
// them settles (graph.DijkstraEdgesInto, graph.BFSInto), so a query that
// reads a few distances settles only the vertices nearer than its farthest
// target. Pops and relaxations up to that exit are those of a full sweep,
// so every answer is the full sweep's bytes; a group with an unreachable
// target runs its sweeps to completion. A group whose source is one of the
// slab cache's gateways reads its base distances from the gateway rows
// instead (SlabCache.SetGateways): one full sweep per (gateway, weight),
// shared by every later group from that gateway.
//
// Source groups fan out across cores via parallel.ForGrain, each with a
// scratch from pairsPool, and each group writes its samples in place, so the
// result is deterministic at any GOMAXPROCS (the output depends only on
// the inputs, never on worker count or scheduling).
//
// Unreachable targets yield +Inf lengths (and Hops −1); callers filter
// them exactly as they would filter a +Inf point-to-point result.
func (m *Measurer) Pairs(pairs []Pair) []StretchSample {
	if len(pairs) == 0 {
		return nil
	}
	// Group pair indices by source: sort (U, index) keys so each source's
	// targets are contiguous, with original pair order preserved inside a
	// group (the index low bits make the sort total and stable).
	keys := make([]uint64, len(pairs))
	for i, p := range pairs {
		keys[i] = uint64(uint32(p.U))<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	// groupStart[k] is the offset in keys of the k-th distinct source.
	groupStart := make([]int32, 0, len(pairs)+1)
	for i := range keys {
		if i == 0 || keys[i]>>32 != keys[i-1]>>32 {
			groupStart = append(groupStart, int32(i))
		}
	}
	groupStart = append(groupStart, int32(len(keys)))
	nGroups := len(groupStart) - 1

	out := make([]StretchSample, len(pairs))
	// Grain 1: every source group is a Dijkstra sweep (or four), far
	// heavier than scheduling one shard, so sources spread across all
	// cores even for the small group counts the samplers produce.
	parallel.ForGrain(nGroups, 1, func(k int) {
		ps := pairsPool.Get().(*pairsScratch)
		defer pairsPool.Put(ps)
		g0, g1 := groupStart[k], groupStart[k+1]
		src := int32(keys[g0] >> 32)
		ps.targets = ps.targets[:0]
		for _, key := range keys[g0:g1] {
			ps.targets = append(ps.targets, pairs[uint32(key)].V)
		}
		var dBase, pBase []float64
		ps.dSub = graph.DijkstraEdgesInto(m.sub, src, ps.targets, m.wSubD, ps.dSub, &ps.dijkstra)
		if m.base != nil {
			dBase = m.baseSweep(m.eBaseD, src, m.wBaseD, &ps.dBase, ps)
		}
		if m.wSubP != nil {
			ps.pSub = graph.DijkstraEdgesInto(m.sub, src, ps.targets, m.wSubP, ps.pSub, &ps.dijkstra)
			if m.base != nil {
				pBase = m.baseSweep(m.eBaseP, src, m.wBaseP, &ps.pBase, ps)
			}
		}
		if m.spec.Hops {
			ps.hop = graph.BFSInto(m.sub, src, ps.targets, ps.hop, &ps.bfs)
		}
		for _, key := range keys[g0:g1] {
			idx := uint32(key)
			dst := pairs[idx].V
			s := StretchSample{
				U:      src,
				V:      dst,
				Euclid: m.pos[src].Dist(m.pos[dst]),
				SubLen: ps.dSub[dst],
			}
			if m.spec.Hops {
				s.Hops = int(ps.hop[dst])
			}
			if m.wSubP != nil {
				s.PowerSub = ps.pSub[dst]
			}
			if m.base != nil {
				s.BaseLen = dBase[dst]
				switch {
				case math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1):
					s.DistStretch = math.Inf(1)
				case s.BaseLen > 0:
					s.DistStretch = s.SubLen / s.BaseLen
				default:
					s.DistStretch = 1
				}
				if m.wSubP != nil {
					s.PowerBase = pBase[dst]
					if s.PowerBase > 0 && !math.IsInf(s.PowerBase, 1) &&
						!math.IsInf(s.PowerSub, 1) {
						s.PowerStretch = s.PowerSub / s.PowerBase
					} else if math.IsInf(s.PowerSub, 1) || math.IsInf(s.PowerBase, 1) {
						s.PowerStretch = math.Inf(1)
					}
				}
			}
			out[idx] = s
		}
	})
	return out
}

// MeasurePairs is the one-shot form of the engine: build a Measurer, run a
// single batch. Callers measuring in rounds over the same graphs should
// hold a Measurer instead to reuse the precomputed weight slabs.
func MeasurePairs(sub, base *graph.CSR, pos []geom.Point, pairs []Pair, spec BatchSpec) []StretchSample {
	if len(pairs) == 0 {
		return nil
	}
	return NewMeasurer(sub, base, pos, spec).Pairs(pairs)
}
