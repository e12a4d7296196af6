// Package sens implements the paper's primary contribution: the sparse
// power-efficient subnetwork constructions UDG-SENS(2, λ) and NN-SENS(2, k)
// (§2), built by the distributed algorithm of §4.1 (Figure 7):
//
//  1. each node locates its tile from position information,
//  2. each node classifies itself into a tile region,
//  3. each region elects a leader (representative or relay),
//  4. leaders connect to form the rep–relay–relay–rep paths between
//     adjacent good tiles.
//
// The resulting network couples to site percolation on Z² through
// tiling.Map: a site is open iff its tile is good, and the SENS subgraph
// realizes the open edges of the percolated mesh (Figures 2, 4, 6, 8).
// The sensing network proper is the largest connected component of the
// rep/relay graph, per the paper's definition.
package core

import (
	"fmt"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/rgg"
	"repro/internal/tiling"
)

// Kind distinguishes the two constructions.
type Kind int

// The two SENS constructions of the paper.
const (
	KindUDG Kind = iota
	KindNN
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindUDG {
		return "UDG-SENS"
	}
	return "NN-SENS"
}

// TileNodes records the elected nodes of one mapped tile. Indices refer to
// the deployment point slice; −1 means "no point elected", so a tile with no
// live point has Population 0 and every index −1.
type TileNodes struct {
	Good       bool
	Population int
	Rep        int32
	// Bridge holds, per direction, the relay adjacent to the representative:
	// the UDG edge relay (regions E_l/E_r/E_t/E_b of §2.1) or the NN bridge
	// relay (regions E_* of §2.2).
	Bridge [4]int32
	// Disk holds, per direction, the NN outer-disk relay (regions C_* of
	// §2.2); unused (−1) for UDG-SENS.
	Disk [4]int32
}

// Stats aggregates construction-time accounting.
type Stats struct {
	Tiles             int // mapped tiles
	GoodTiles         int
	ElectionMessages  int // total messages across all region elections
	ElectionRounds    int // max rounds over regions (they run in parallel)
	HandshakeAttempts int // connect() calls attempted
	HandshakeFailures int // connect() calls that failed (relaxed mode: endpoints out of range)
	SubgraphEdges     int // edges of the rep/relay graph
	MissingBaseEdges  int // SENS edges absent from the base graph
}

// Network is a constructed SENS subnetwork together with its coupling data.
type Network struct {
	Kind Kind
	// Pts are all deployment points (the Poisson process realization).
	Pts []geom.Point
	// Box is the deployment region.
	Box geom.Rect
	// Map is the tile ↔ Z² bijection φ restricted to the full tiles of Box.
	Map tiling.Map
	// Base is the underlying UDG(2, λ) or NN(2, k) graph (nil when skipped).
	Base *rgg.Geometric
	// Tiles holds the per-tile election results of the mapped window,
	// φ-indexed like Lat: tile φ⁻¹(x, y) is Tiles[y·Map.W + x]. Use Tile to
	// look a tile up by coordinate.
	Tiles []TileNodes
	// Lat is the coupled site-percolation configuration: site (x, y) open
	// iff tile φ⁻¹(x, y) is good. Nil when the map window is empty.
	Lat *lattice.Lattice
	// Graph is the rep/relay subgraph over all point indices (non-members
	// are isolated vertices).
	Graph *graph.CSR
	// Members lists the vertices of the largest connected component — the
	// SENS network proper.
	Members []int32
	// InNet flags Members for O(1) lookup.
	InNet []bool
	// Stats carries construction accounting.
	Stats Stats

	// UDGSpec / NNSpec record the geometry used (exactly one non-nil).
	UDGSpec *tiling.UDGSpec
	NNSpec  *tiling.NNSpec
}

// Options tunes the construction pipeline.
type Options struct {
	// Election selects the leader-election protocol (default Tournament).
	Election election.Algorithm
	// Base supplies a pre-built base graph, avoiding a rebuild.
	Base *rgg.Geometric
	// SkipBase skips building the base graph entirely. Validation of SENS
	// edges against the base is then impossible and MissingBaseEdges stays
	// 0. (The UDG repaired-mode construction is guaranteed valid anyway;
	// use this to speed up large Monte-Carlo sweeps.)
	SkipBase bool
	// Alive optionally masks the deployment (UDG-SENS only; BuildNN
	// rejects any non-nil mask, since an NN(2, k) base over a masked
	// deployment is not defined): a point with Alive[i] == false takes no
	// part in classification or elections and stays an isolated vertex,
	// while indices keep their meaning. Nil means every point is alive. This
	// is how the kinetic maintainer's from-scratch comparator and the
	// live-network scenarios express node deaths without renumbering the
	// deployment. The base graph, when built, still spans all points.
	Alive []bool
}

// MemberPoints returns the positions of the network members.
func (n *Network) MemberPoints() []geom.Point {
	out := make([]geom.Point, len(n.Members))
	for i, v := range n.Members {
		out[i] = n.Pts[v]
	}
	return out
}

// Tile returns the election results of tile c, or nil when c lies outside
// the mapped window.
func (n *Network) Tile(c tiling.Coord) *TileNodes {
	t, ok := n.Map.Index(c)
	if !ok {
		return nil
	}
	return &n.Tiles[t]
}

// GoodReps returns the representatives of good tiles that made it into the
// largest component, together with their tile coordinates, in (J, I) order
// — the slab order.
func (n *Network) GoodReps() (reps []int32, coords []tiling.Coord) {
	for t := range n.Tiles {
		if tn := &n.Tiles[t]; tn.Good && n.InNet[tn.Rep] {
			reps = append(reps, tn.Rep)
			coords = append(coords, n.Map.TileAt(t))
		}
	}
	return reps, coords
}

// GoodFraction returns the fraction of mapped tiles that are good — the
// empirical estimate of the site-open probability in the coupling.
func (n *Network) GoodFraction() float64 {
	if n.Stats.Tiles == 0 {
		return 0
	}
	return float64(n.Stats.GoodTiles) / float64(n.Stats.Tiles)
}

// ActiveFraction returns |Members| / |Pts| — the fraction of deployed nodes
// the sensing network actually uses (the paper's "redundancy" headline).
func (n *Network) ActiveFraction() float64 {
	if len(n.Pts) == 0 {
		return 0
	}
	return float64(len(n.Members)) / float64(len(n.Pts))
}

// MaxDegree returns the maximum degree in the rep/relay subgraph (the
// paper's sparsity property P1 asserts ≤ 4).
func (n *Network) MaxDegree() int { return n.Graph.MaxDegree() }

// finalize records the tile accounting and computes the coupled lattice,
// the largest component of g and the membership flags.
func (n *Network) finalize(g *graph.CSR) {
	n.Stats.Tiles = len(n.Tiles)
	if len(n.Tiles) > 0 {
		n.Lat = lattice.New(n.Map.W, n.Map.H)
		for t := range n.Tiles {
			if n.Tiles[t].Good {
				n.Lat.Open[t] = true
				n.Stats.GoodTiles++
			}
		}
	}
	n.Graph = g
	n.Stats.SubgraphEdges = g.EdgeCount
	n.Members, _ = graph.LargestComponent(g)
	if len(n.Members) == 1 {
		// A single isolated vertex is not a network.
		n.Members = nil
	}
	n.InNet = make([]bool, len(n.Pts))
	for _, v := range n.Members {
		n.InNet[v] = true
	}
}

// electRegion runs a leader election over the given candidate point indices
// and accumulates its cost into the stats; returns −1 for no candidates.
// The scratch buffer is reused across the construction's per-region
// elections (one per occupied region per tile), so the hot tournament path
// allocates nothing.
func electRegion(alg election.Algorithm, ids []int32, st *Stats, esc *election.Scratch) int32 {
	res := esc.Elect(alg, ids)
	st.ElectionMessages += res.Messages
	if res.Rounds > st.ElectionRounds {
		st.ElectionRounds = res.Rounds
	}
	return res.Leader
}

// countHandshake charges one connect() handshake to st and, when a base
// graph is present and lacks the edge {u, v}, counts a missing base edge.
// The base only audits: whether the edge is installed is the caller's rule.
func countHandshake(base *rgg.Geometric, u, v int32, st *Stats) {
	st.HandshakeAttempts++
	if base != nil && !base.HasEdge(u, v) {
		st.MissingBaseEdges++
	}
}

// merge folds a shard's partial accounting into st: counters add, and
// election rounds take the maximum (regions elect in parallel).
func (st *Stats) merge(o Stats) {
	st.ElectionMessages += o.ElectionMessages
	st.ElectionRounds = max(st.ElectionRounds, o.ElectionRounds)
	st.HandshakeAttempts += o.HandshakeAttempts
	st.HandshakeFailures += o.HandshakeFailures
	st.MissingBaseEdges += o.MissingBaseEdges
}

// String renders a one-line summary.
func (n *Network) String() string {
	return fmt.Sprintf("%s: %d pts, %d/%d good tiles, %d members (%.1f%% active), %d edges, maxdeg %d",
		n.Kind, len(n.Pts), n.Stats.GoodTiles, n.Stats.Tiles, len(n.Members),
		100*n.ActiveFraction(), n.Stats.SubgraphEdges, n.MaxDegree())
}
