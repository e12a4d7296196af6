package core

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/tiling"
)

// NN-SENS protocol payloads.
type nnRepAnnounceMsg struct{ rep int32 }
type nnCensusMsg struct{ node int32 }
type nnLeaderMsg struct {
	region tiling.NRegion
	leader int32
}
type nnTileGoodMsg struct {
	rep    int32
	disk   [4]int32
	bridge [4]int32
}
type nnCrossMsg struct{ from int32 }
type nnCrossAckMsg struct{ from int32 }

// nnNodeState is the per-node protocol state of BuildNNDistributed.
type nnNodeState struct {
	tile    tiling.Coord
	region  tiling.NRegion
	maxSeen int32
	// Representative-elect bookkeeping.
	census int
	disk   [4]int32
	bridge [4]int32
	// Relay bookkeeping (filled by nnTileGoodMsg).
	tileGood nnTileGoodMsg
	hasGood  bool
}

// BuildNNDistributed executes the §2.2 / §4.1 construction for NN-SENS as a
// message-passing protocol on the discrete-event simulator:
//
//	t=0: region-internal ID broadcast (election, 9 regions per tile);
//	t=2: the C0 winner announces itself to every node of its tile;
//	t=4: every tile node reports to the representative-elect (the census
//	     that enforces the population ≤ k/2 goodness condition) and region
//	     winners announce their regions;
//	t=6: a representative with all eight relay leaders and census ≤ k/2
//	     declares the tile good and ships the relay table to its relays;
//	t=8: outer-disk relays of good tiles handshake across tile boundaries;
//	     a successful handshake installs the five-edge Figure 6 path
//	     rep—E_d—C_d—C_d'—E_d'—rep'.
//
// The topology equals the centralized BuildNN with the broadcast election
// protocol (asserted by tests). Base-graph validation is not performed here
// — run BuildNN for the Claim 2.3 check; the point of this variant is
// measured message costs for P4.
func BuildNNDistributed(pts []geom.Point, box geom.Rect, spec tiling.NNSpec) (*DistributedResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	gm := spec.Compile()
	n := &Network{
		Kind:   KindNN,
		Pts:    pts,
		Box:    box,
		Map:    tiling.NewMap(box, spec.TileSide()),
		NNSpec: &spec,
	}
	nt := n.Map.Tiles()

	// Phase 1: local classification. tileNodes lists every node of each slab
	// tile, regionPeers the nodes of each of its regions.
	states := make([]nnNodeState, len(pts))
	tileNodes := make([][]int32, nt)
	regionPeers := make([][tiling.NBridgeBottom + 1][]int32, nt)
	for i, p := range pts {
		st := &states[i]
		st.maxSeen = int32(i)
		for d := 0; d < 4; d++ {
			st.disk[d] = -1
			st.bridge[d] = -1
		}
		c := n.Map.Tiling.TileOf(p)
		t, ok := n.Map.Index(c)
		if !ok {
			continue
		}
		st.tile = c
		st.region = gm.Classify(n.Map.Tiling.Local(c, p))
		tileNodes[t] = append(tileNodes[t], int32(i))
		if st.region != tiling.NNone {
			regionPeers[t][st.region] = append(regionPeers[t][st.region], int32(i))
		}
	}

	sim := simnet.New()
	b := graph.NewBuilder(len(pts))
	goodTiles := make([]bool, nt)

	for i := range pts {
		i := i
		sim.Register(simnet.NodeID(i), simnet.HandlerFunc(func(s *simnet.Network, m simnet.Message) {
			st := &states[i]
			switch payload := m.Payload.(type) {
			case electionMsg:
				if payload.id > st.maxSeen {
					st.maxSeen = payload.id
				}
			case nnRepAnnounceMsg:
				// Every tile node replies with its census entry.
				s.Send(simnet.NodeID(i), simnet.NodeID(payload.rep), nnCensusMsg{node: int32(i)})
			case nnCensusMsg:
				st.census++
			case nnLeaderMsg:
				switch {
				case payload.region >= tiling.NDiskRight && payload.region <= tiling.NDiskBottom:
					st.disk[payload.region-tiling.NDiskRight] = payload.leader
				case payload.region >= tiling.NBridgeRight && payload.region <= tiling.NBridgeBottom:
					st.bridge[payload.region-tiling.NBridgeRight] = payload.leader
				}
			case nnTileGoodMsg:
				st.tileGood = payload
				st.hasGood = true
			case nnCrossMsg:
				// Facing outer-disk relay: accept iff own tile is good; the
				// ACK carries our ID; we also install our side's intra-tile
				// path edges.
				if !st.hasGood {
					return
				}
				s.Send(simnet.NodeID(i), simnet.NodeID(payload.from), nnCrossAckMsg{from: int32(i)})
				st.installIntraPath(b, int32(i))
			case nnCrossAckMsg:
				// Initiating outer-disk relay: install the boundary edge and
				// our side's intra-tile path edges.
				b.AddEdge(int32(i), payload.from)
				st.installIntraPath(b, int32(i))
			}
		}))
	}

	// t=0: elections in all nine regions.
	sim.After(0, func(s *simnet.Network) {
		for t := range regionPeers {
			for _, peers := range regionPeers[t] {
				for _, u := range peers {
					for _, v := range peers {
						if u != v {
							s.Send(simnet.NodeID(u), simnet.NodeID(v), electionMsg{id: u})
						}
					}
				}
			}
		}
	})

	// t=2: representative-elect announces to the whole tile.
	sim.After(2, func(s *simnet.Network) {
		for t := range regionPeers {
			rep := winner(regionPeers[t][tiling.NC0])
			if rep < 0 {
				continue
			}
			for _, v := range tileNodes[t] {
				if v != rep {
					s.Send(simnet.NodeID(rep), simnet.NodeID(v), nnRepAnnounceMsg{rep: rep})
				}
			}
			states[rep].census++ // the rep counts itself
		}
	})

	// t=4: relay winners announce their regions to the representative.
	sim.After(4, func(s *simnet.Network) {
		for t := range regionPeers {
			regions := &regionPeers[t]
			rep := winner(regions[tiling.NC0])
			if rep < 0 {
				continue
			}
			for _, d := range tiling.Directions {
				if l := winner(regions[tiling.NDisk(d)]); l >= 0 {
					s.Send(simnet.NodeID(l), simnet.NodeID(rep),
						nnLeaderMsg{region: tiling.NDisk(d), leader: l})
				}
				if l := winner(regions[tiling.NBridge(d)]); l >= 0 {
					s.Send(simnet.NodeID(l), simnet.NodeID(rep),
						nnLeaderMsg{region: tiling.NBridge(d), leader: l})
				}
			}
		}
	})

	// t=6: goodness decision and relay-table distribution.
	sim.After(6, func(s *simnet.Network) {
		for t := range regionPeers {
			rep := winner(regionPeers[t][tiling.NC0])
			if rep < 0 {
				continue
			}
			st := &states[rep]
			good := st.census <= spec.K/2
			for d := 0; d < 4; d++ {
				good = good && st.disk[d] >= 0 && st.bridge[d] >= 0
			}
			if !good {
				continue
			}
			goodTiles[t] = true
			msg := nnTileGoodMsg{rep: rep, disk: st.disk, bridge: st.bridge}
			states[rep].tileGood = msg
			states[rep].hasGood = true
			for d := 0; d < 4; d++ {
				s.Send(simnet.NodeID(rep), simnet.NodeID(st.disk[d]), msg)
				s.Send(simnet.NodeID(rep), simnet.NodeID(st.bridge[d]), msg)
			}
		}
	})

	// t=8: cross-boundary handshakes (initiated toward Right and Top).
	sim.After(8, func(s *simnet.Network) {
		for t, good := range goodTiles {
			if !good {
				continue
			}
			for _, d := range []tiling.Direction{tiling.Right, tiling.Top} {
				nb, ok := n.Map.Index(n.Map.TileAt(t).Neighbor(d))
				if !ok || !goodTiles[nb] {
					continue
				}
				u := winner(regionPeers[t][tiling.NDisk(d)])
				v := winner(regionPeers[nb][tiling.NDisk(d.Opposite())])
				if u >= 0 && v >= 0 {
					s.Send(simnet.NodeID(u), simnet.NodeID(v), nnCrossMsg{from: u})
				}
			}
		}
	})

	sim.Run(0)

	// Assemble the Network view.
	n.Tiles = make([]TileNodes, nt)
	for t := range n.Tiles {
		tn := &n.Tiles[t]
		tn.Rep = winner(regionPeers[t][tiling.NC0])
		tn.Population = len(tileNodes[t])
		for _, d := range tiling.Directions {
			tn.Disk[d] = winner(regionPeers[t][tiling.NDisk(d)])
			tn.Bridge[d] = winner(regionPeers[t][tiling.NBridge(d)])
		}
		tn.Good = goodTiles[t]
	}
	n.Stats.ElectionMessages = sim.MessagesSent
	n.Stats.ElectionRounds = 1
	n.finalize(b.Build())

	return &DistributedResult{
		Network:           n,
		MessagesSent:      sim.MessagesSent,
		MessagesDelivered: sim.MessagesDelivered,
		Duration:          sim.Now(),
	}, nil
}

// installIntraPath adds, for the outer-disk relay `self` of a good tile,
// its side of the Figure 6 path: C_d—E_d and E_d—rep, using the relay table
// received at t=6. The direction is identified by locating self in the
// table.
func (st *nnNodeState) installIntraPath(b *graph.Builder, self int32) {
	for d := 0; d < 4; d++ {
		if st.tileGood.disk[d] == self {
			b.AddEdge(self, st.tileGood.bridge[d])
			b.AddEdge(st.tileGood.bridge[d], st.tileGood.rep)
			return
		}
	}
}
