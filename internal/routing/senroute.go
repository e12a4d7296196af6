package routing

import (
	"errors"

	"repro/internal/core"
	"repro/internal/energy"
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

// SensOptions tunes RouteOnSensWith.
type SensOptions struct {
	// ProbeBudget caps lattice-level probes (≤ 0 means unlimited).
	ProbeBudget int
	// Memoize enables lattice probe memoization (see Options.Memoize).
	Memoize bool
	// Bank, when non-nil, is debited for the energy the attempt spends:
	// every SENS edge the packet traverses costs the sending node
	// PacketBits tx (distance-priced) and the receiving node PacketBits rx;
	// every lattice probe costs the probing tile's representative ProbeBits
	// tx toward the probed tile (with the probed rep, if one exists, paying
	// ProbeBits rx). Mains-powered or non-member nodes are exempt per the
	// bank's Powered set.
	Bank *energy.Bank
	// PacketBits is the payload size per data hop (0 disables data debits).
	PacketBits float64
	// ProbeBits is the query size per lattice probe (0 disables probe
	// debits).
	ProbeBits float64
}

// sensCharger implements ChargeHooks over a SENS network's tile slab,
// debiting lattice probes against the probing tile's representative.
type sensCharger struct {
	n   *core.Network
	opt *SensOptions
}

// rep returns the elected representative of the tile mapped to lattice
// site idx (the tile slab shares the lattice layout), or −1.
func (c *sensCharger) rep(idx int32) int32 { return c.n.Tiles[idx].Rep }

// Probe implements ChargeHooks: the probing rep transmits a ProbeBits query
// over the rep-to-rep distance; the probed rep (when the tile elected one)
// receives it.
func (c *sensCharger) Probe(from, to int32) {
	if c.opt.ProbeBits <= 0 {
		return
	}
	rf, rt := c.rep(from), c.rep(to)
	if rf < 0 {
		return
	}
	if rt >= 0 {
		c.opt.Bank.ChargeTx(rf, rt, c.opt.ProbeBits)
		c.opt.Bank.ChargeRx(rt, c.opt.ProbeBits)
	} else {
		// Nobody answers a bad tile; the query still costs the sender.
		c.opt.Bank.ChargeTx(rf, rf, c.opt.ProbeBits)
	}
}

// Hop implements ChargeHooks. Lattice-level hops are priced at expansion
// time, per SENS edge, so nothing is debited here.
func (c *sensCharger) Hop(from, to int32) {}

// RouteOnSens routes a packet between the representatives of two good tiles
// of a SENS network: lattice-level decisions follow Figure 9 on the coupled
// percolation configuration, and every lattice hop is realized by the
// rep-to-rep relay subpath of Figure 8.
func RouteOnSens(n *core.Network, from, to tiling.Coord, probeBudget int) (SensResult, error) {
	return RouteOnSensWith(n, from, to, SensOptions{ProbeBudget: probeBudget})
}

// RouteOnSensWith is RouteOnSens with explicit options, including the
// per-hop/per-probe energy debits of the energy layer.
func RouteOnSensWith(n *core.Network, from, to tiling.Coord, sopt SensOptions) (SensResult, error) {
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

	opt := Options{ProbeBudget: sopt.ProbeBudget, Memoize: sopt.Memoize}
	if sopt.Bank != nil {
		opt.Charge = &sensCharger{n: n, opt: &sopt}
	}
	lat := RouteXYWith(n.Lat, fx, fy, tx, ty, opt)
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
		if sopt.Bank != nil && sopt.PacketBits > 0 {
			for j := 1; j < len(seg); j++ {
				sopt.Bank.ChargeTx(seg[j-1], seg[j], sopt.PacketBits)
				sopt.Bank.ChargeRx(seg[j], sopt.PacketBits)
			}
		}
		out.NodeHops += len(seg) - 1
		out.NodePath = append(out.NodePath, seg[1:]...)
	}
	out.Delivered = true
	return out, nil
}
