package core

import (
	"errors"
	"fmt"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rgg"
	"repro/internal/tiling"
)

// BuildNN constructs NN-SENS(2, k) over the deployment pts in box (§2.2):
//
//   - every mapped tile classifies its points into the nine regions (C0,
//     four outer disks C_*, four bridges E_*) and elects a leader per
//     occupied region;
//   - a tile is good when all nine leaders exist AND its population is at
//     most k/2;
//   - for each pair of adjacent good tiles the five-edge path
//     rep(t) — E_d(t) — C_d(t) — C_d'(t') — E_d'(t') — rep(t') is installed
//     (Figure 6: four relays between the two representatives).
//
// Edges toward direction d are installed only when the d-neighbor is also
// good: the Claim 2.3 ball argument that guarantees these edges exist in
// NN(2, k) needs BOTH tiles' populations capped at k/2, so only then are
// the hops guaranteed base edges. The construction validates each edge
// against the base NN graph when available and fails loudly on a violation
// — this is the executable form of Claim 2.3.
func BuildNN(pts []geom.Point, box geom.Rect, spec tiling.NNSpec, opt Options) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.Alive != nil {
		return nil, errors.New("sens: NN-SENS takes no alive mask (Options.Alive is UDG-SENS only)")
	}
	gm := spec.Compile()
	n := &Network{
		Kind:   KindNN,
		Pts:    pts,
		Box:    box,
		Map:    tiling.NewMap(box, spec.TileSide()),
		NNSpec: &spec,
	}
	n.Base = opt.Base
	if n.Base == nil && !opt.SkipBase {
		n.Base = rgg.NN(pts, spec.K)
	}
	if n.Base != nil && n.Base.N != len(pts) {
		return nil, fmt.Errorf("sens: base graph has %d vertices, deployment has %d", n.Base.N, len(pts))
	}

	start, order := tiling.AssignTilesCSR(n.Map, pts)
	n.Tiles = make([]TileNodes, n.Map.Tiles())

	// Region elections. Index layout: 0 = C0, 1..4 = disks, 5..8 = bridges.
	var regionIDs [9][]int32
	var local []geom.Point
	var esc election.Scratch
	for t := range n.Tiles {
		idx := order[start[t]:start[t+1]]
		local = tiling.LocalPoints(n.Map, n.Map.TileAt(t), pts, idx, local)
		for r := range regionIDs {
			regionIDs[r] = regionIDs[r][:0]
		}
		for k, p := range local {
			switch r := gm.Classify(p); {
			case r == tiling.NC0:
				regionIDs[0] = append(regionIDs[0], idx[k])
			case r >= tiling.NDiskRight && r <= tiling.NDiskBottom:
				d := int(r - tiling.NDiskRight)
				regionIDs[1+d] = append(regionIDs[1+d], idx[k])
			case r >= tiling.NBridgeRight && r <= tiling.NBridgeBottom:
				d := int(r - tiling.NBridgeRight)
				regionIDs[5+d] = append(regionIDs[5+d], idx[k])
			}
		}
		tn := &n.Tiles[t]
		tn.Population = len(idx)
		tn.Rep = electRegion(opt.Election, regionIDs[0], &n.Stats, &esc)
		good := tn.Rep >= 0
		for d := 0; d < 4; d++ {
			tn.Disk[d] = electRegion(opt.Election, regionIDs[1+d], &n.Stats, &esc)
			tn.Bridge[d] = electRegion(opt.Election, regionIDs[5+d], &n.Stats, &esc)
			good = good && tn.Disk[d] >= 0 && tn.Bridge[d] >= 0
		}
		tn.Good = good && len(idx) <= spec.K/2
	}

	// Connections: the five-edge path per adjacent good pair.
	b := graph.NewBuilder(len(pts))
	for t := range n.Tiles {
		tn := &n.Tiles[t]
		if !tn.Good {
			continue
		}
		c := n.Map.TileAt(t)
		for _, d := range []tiling.Direction{tiling.Right, tiling.Top} {
			nb := n.Tile(c.Neighbor(d))
			if nb == nil || !nb.Good {
				continue
			}
			od := d.Opposite()
			hops := [5][2]int32{
				{tn.Rep, tn.Bridge[d]},
				{tn.Bridge[d], tn.Disk[d]},
				{tn.Disk[d], nb.Disk[od]},
				{nb.Disk[od], nb.Bridge[od]},
				{nb.Bridge[od], nb.Rep},
			}
			for _, h := range hops {
				countHandshake(n.Base, h[0], h[1], &n.Stats)
				b.AddEdge(h[0], h[1])
			}
		}
	}
	n.finalize(b.Build())

	if n.Base != nil && n.Stats.MissingBaseEdges > 0 {
		return nil, fmt.Errorf("sens: Claim 2.3 invariant violated: %d SENS edges absent from NN(2, %d) base",
			n.Stats.MissingBaseEdges, spec.K)
	}
	return n, nil
}
