package core

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/tiling"
)

// DistributedResult reports a message-passing execution of the Figure 7
// construction protocol.
type DistributedResult struct {
	// Network is the constructed network, identical in topology to the
	// centralized BuildUDG output with the broadcast election protocol.
	Network *Network
	// MessagesSent / MessagesDelivered are the simnet totals over all
	// protocol phases (elections, leader announcements, connects).
	MessagesSent      int
	MessagesDelivered int
	// Duration is the simulated completion time in hop-time units.
	Duration float64
}

// Protocol message payloads.
type electionMsg struct{ id int32 }
type leaderAnnounceMsg struct {
	tile   tiling.Coord
	region tiling.URegion
	leader int32
}
type tileGoodMsg struct{ rep int32 }

// crossConnectMsg is the cross-tile handshake request. Its receiver keeps no
// state; the edge is installed when the sender handles the crossAckMsg.
type crossConnectMsg struct{}
type crossAckMsg struct{ from int32 }

// BuildUDGDistributed executes the §4.1 algorithm (Figure 7) as an actual
// message-passing protocol on the discrete-event simulator, with every
// decision made by a node from its own position and received messages:
//
//	phase 1 (local): each node computes its tile and region from its GPS
//	         position — no messages;
//	phase 2 (t=0): nodes broadcast their ID inside their region; each node
//	         tracks the maximum ID it hears (broadcast election);
//	phase 3 (t=2): region winners announce themselves to the tile's
//	         representative-elect;
//	phase 4 (t=4): a representative that heard all four relay leaders
//	         declares the tile good and connects to them (edges rep–relay);
//	phase 5 (t=6): relay leaders of good tiles handshake with the facing
//	         relay leader of the neighboring tile; the edge is installed iff
//	         both tiles are good and the nodes are within radio range.
//
// The resulting topology is provably identical to the centralized
// BuildUDG(..., AlgorithmBroadcast) pipeline — the equivalence is asserted
// by tests — while the message counts here are measured on the simulator
// rather than computed from formulas: the strongest form of the paper's
// local-computability property P4.
//
// The protocol needs each node to address its region peers and each relay
// leader to address the facing region; physically these are local radio
// broadcasts (every such pair is within the connection radius in the
// repaired geometry). The simulation enumerates the recipients from the
// same geometric classification the nodes themselves use.
func BuildUDGDistributed(pts []geom.Point, box geom.Rect, spec tiling.UDGSpec) (*DistributedResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Kind:    KindUDG,
		Pts:     pts,
		Box:     box,
		Map:     tiling.NewMap(box, spec.Side),
		UDGSpec: &spec,
	}
	nt := n.Map.Tiles()

	// Phase 1: local classification (per node, zero messages). regionPeers
	// lists, per slab tile, the nodes of each region; population counts
	// every node of the tile, in a region or not.
	gm := spec.Compile()
	states := make([]nodeState, len(pts))
	regionPeers := make([][tiling.URelayBottom + 1][]int32, nt)
	population := make([]int, nt)
	for i, p := range pts {
		c := n.Map.Tiling.TileOf(p)
		st := &states[i]
		st.maxSeen = int32(i)
		for d := range st.relayLeader {
			st.relayLeader[d] = -1
		}
		t, ok := n.Map.Index(c)
		if !ok {
			continue
		}
		st.tile = c
		population[t]++
		st.region = gm.Classify(n.Map.Tiling.Local(c, p))
		if st.region != tiling.UNone {
			regionPeers[t][st.region] = append(regionPeers[t][st.region], int32(i))
		}
	}

	sim := simnet.New()
	b := graph.NewBuilder(len(pts))
	// The relaxed handshake is BuildUDG's: d(u, v)² ≤ r² (inRange).
	requireRange := spec.Mode == tiling.GeometryRelaxed

	// Node handlers.
	for i := range pts {
		i := i
		sim.Register(simnet.NodeID(i), simnet.HandlerFunc(func(s *simnet.Network, m simnet.Message) {
			st := &states[i]
			switch payload := m.Payload.(type) {
			case electionMsg:
				if payload.id > st.maxSeen {
					st.maxSeen = payload.id
				}
			case leaderAnnounceMsg:
				// Only the representative-elect retains relay announcements.
				if st.region == tiling.UC0 && st.maxSeen == int32(i) &&
					payload.tile == st.tile && payload.region != tiling.UC0 {
					st.relayLeader[payload.region-tiling.URelayRight] = payload.leader
				}
			case tileGoodMsg:
				// Relay leader learns its tile is good: edge to the rep.
				n.Stats.HandshakeAttempts++
				if !requireRange || inRange(pts, spec.Radius, int32(i), payload.rep) {
					b.AddEdge(int32(i), payload.rep)
				} else {
					n.Stats.HandshakeFailures++
				}
			case crossAckMsg:
				n.Stats.HandshakeAttempts++
				if !requireRange || inRange(pts, spec.Radius, int32(i), payload.from) {
					b.AddEdge(int32(i), payload.from)
				} else {
					n.Stats.HandshakeFailures++
				}
			}
		}))
	}

	// Phase 2 at t=0: region-internal ID broadcast.
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

	// Phase 3 at t=2: relay winners announce to the C0 region.
	sim.After(2, func(s *simnet.Network) {
		for t := range regionPeers {
			regions := &regionPeers[t]
			for _, d := range tiling.Directions {
				leader := winner(regions[tiling.URelay(d)])
				if leader < 0 {
					continue
				}
				msg := leaderAnnounceMsg{tile: n.Map.TileAt(t), region: tiling.URelay(d), leader: leader}
				for _, v := range regions[tiling.UC0] {
					s.Send(simnet.NodeID(leader), simnet.NodeID(v), msg)
				}
			}
		}
	})

	// Phase 4 at t=4: representatives of good tiles install rep–relay edges
	// by notifying each relay leader.
	goodTiles := make([]bool, nt)
	sim.After(4, func(s *simnet.Network) {
		for t := range regionPeers {
			rep := winner(regionPeers[t][tiling.UC0])
			if rep < 0 {
				continue
			}
			st := &states[rep]
			good := true
			for d := range st.relayLeader {
				if st.relayLeader[d] < 0 {
					good = false
					break
				}
			}
			if !good {
				continue
			}
			goodTiles[t] = true
			for d := range st.relayLeader {
				s.Send(simnet.NodeID(rep), simnet.NodeID(st.relayLeader[d]), tileGoodMsg{rep: rep})
			}
		}
	})

	// Phase 5 at t=6: cross-boundary handshakes between good tiles.
	sim.After(6, func(s *simnet.Network) {
		for t, good := range goodTiles {
			if !good {
				continue
			}
			for _, d := range []tiling.Direction{tiling.Right, tiling.Top} {
				nb, ok := n.Map.Index(n.Map.TileAt(t).Neighbor(d))
				if !ok || !goodTiles[nb] {
					continue
				}
				u := winner(regionPeers[t][tiling.URelay(d)])
				v := winner(regionPeers[nb][tiling.URelay(d.Opposite())])
				if u < 0 || v < 0 {
					continue
				}
				s.Send(simnet.NodeID(u), simnet.NodeID(v), crossConnectMsg{})
				s.Send(simnet.NodeID(v), simnet.NodeID(u), crossAckMsg{from: v})
			}
		}
	})

	sim.Run(0)

	// Assemble the Network view (tile table mirrors what the nodes decided).
	n.Tiles = make([]TileNodes, nt)
	for t := range n.Tiles {
		tn := &n.Tiles[t]
		tn.Rep = winner(regionPeers[t][tiling.UC0])
		tn.Population = population[t]
		for _, d := range tiling.Directions {
			tn.Disk[d] = -1
			tn.Bridge[d] = winner(regionPeers[t][tiling.URelay(d)])
		}
		tn.Good = goodTiles[t]
	}
	// Election accounting in simnet terms.
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

// nodeState is the per-node protocol state of BuildUDGDistributed.
type nodeState struct {
	tile    tiling.Coord
	region  tiling.URegion
	maxSeen int32 // election state: largest ID heard in the region
	// relayLeader records, at the representative-elect, which relay leaders
	// announced themselves (phase 3), indexed by direction.
	relayLeader [4]int32
}

// winner returns the maximum ID in peers (the broadcast-election outcome),
// or −1 for an empty region.
func winner(peers []int32) int32 {
	best := int32(-1)
	for _, p := range peers {
		if p > best {
			best = p
		}
	}
	return best
}
