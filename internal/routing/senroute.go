package routing

import (
	"errors"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tiling"
)

// SensResult reports one routing attempt over a SENS network.
type SensResult struct {
	// Delivered is true when the packet reached the destination
	// representative.
	Delivered bool
	// LatticeHops is the number of tile-to-tile moves (the Figure 9 level).
	LatticeHops int
	// Probes is the lattice-level probe count (tile goodness queries).
	Probes int
	// NodeHops is the number of SENS edges traversed once each lattice hop
	// is expanded into its rep–relay–…–rep subpath (Figure 8).
	NodeHops int
	// NodePath is the full node trajectory, starting at the source rep.
	NodePath []int32
}

// RouteOnSens routes a packet between the representatives of two good tiles
// of a SENS network: lattice-level decisions follow Figure 9 on the coupled
// percolation configuration, and every lattice hop is realized by the
// rep-to-rep relay subpath of Figure 8.
func RouteOnSens(n *core.Network, from, to tiling.Coord, probeBudget int) (SensResult, error) {
	var out SensResult
	if n.Lat == nil {
		return out, errors.New("routing: network has no lattice window")
	}
	fx, fy, ok := n.Map.Phi(from)
	if !ok {
		return out, errors.New("routing: source tile outside mapped window")
	}
	tx, ty, ok := n.Map.Phi(to)
	if !ok {
		return out, errors.New("routing: target tile outside mapped window")
	}
	ft, tt := n.Tile(from), n.Tile(to)
	if !ft.Good || !tt.Good {
		return out, errors.New("routing: endpoints must be good tiles")
	}

	lat := RouteXY(n.Lat, fx, fy, tx, ty, probeBudget)
	out.LatticeHops = lat.Hops
	out.Probes = lat.Probes
	out.NodePath = append(out.NodePath, ft.Rep)
	if !lat.Delivered {
		return out, nil
	}

	// Expand consecutive trajectory sites into rep-to-rep SENS subpaths,
	// reusing one BFS scratch across hops: the seed allocated an O(N) parent
	// array per lattice hop, which dominated the routing benchmark's bytes.
	var scratch graph.PathScratch
	var seg []int32
	for i := 1; i < len(lat.Trajectory); i++ {
		ra, rb := n.Tiles[lat.Trajectory[i-1]].Rep, n.Tiles[lat.Trajectory[i]].Rep
		seg = graph.BFSPathInto(n.Graph, ra, rb, &scratch, seg[:0])
		if seg == nil {
			// The coupling guarantees adjacent good tiles connect; a miss
			// here means the caller's network violates the invariant.
			return out, errors.New("routing: adjacent good tiles disconnected in SENS graph")
		}
		out.NodeHops += len(seg) - 1
		out.NodePath = append(out.NodePath, seg[1:]...)
	}
	out.Delivered = true
	return out, nil
}
