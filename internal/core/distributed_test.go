package core

import (
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// TestDistributedMatchesCentralized is the strongest P4 statement in the
// repository: the message-passing protocol (nodes acting only on their own
// position and received messages) produces byte-for-byte the same network
// as the centralized pipeline.
func TestDistributedMatchesCentralized(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   tiling.UDGSpec
		lambda float64
	}{
		{"repaired", tiling.DefaultUDGSpec(), 16},
		{"relaxed", tiling.RelaxedUDGSpec(), 5},
		{"literal", tiling.PaperUDGSpec(), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := rng.New(11)
			box := geom.Box(18, 18)
			pts := pointprocess.Poisson(box, tc.lambda, g)
			central, err := BuildUDG(pts, box, tc.spec, Options{
				Election: election.AlgorithmBroadcast,
				SkipBase: tc.spec.Mode == tiling.GeometryRepaired,
			})
			if err != nil {
				t.Fatal(err)
			}
			dist, err := BuildUDGDistributed(pts, box, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			dn := dist.Network

			ds, cs := dn.Stats, central.Stats
			if ds.GoodTiles != cs.GoodTiles || ds.HandshakeAttempts != cs.HandshakeAttempts ||
				ds.HandshakeFailures != cs.HandshakeFailures {
				t.Fatalf("good tiles / handshakes / failures: distributed %d/%d/%d vs centralized %d/%d/%d",
					ds.GoodTiles, ds.HandshakeAttempts, ds.HandshakeFailures,
					cs.GoodTiles, cs.HandshakeAttempts, cs.HandshakeFailures)
			}
			// Every tile agrees in every field: goodness, population and
			// the elected nodes, good tile or not.
			if len(dn.Tiles) != len(central.Tiles) {
				t.Fatalf("tiles: distributed %d vs centralized %d", len(dn.Tiles), len(central.Tiles))
			}
			for i, ct := range central.Tiles {
				if dt := dn.Tiles[i]; dt != ct {
					t.Fatalf("tile %v: distributed %+v vs centralized %+v", central.Map.TileAt(i), dt, ct)
				}
			}
			// Identical edge sets.
			if dn.Graph.EdgeCount != central.Graph.EdgeCount {
				t.Fatalf("edges: distributed %d vs centralized %d",
					dn.Graph.EdgeCount, central.Graph.EdgeCount)
			}
			for u := int32(0); int(u) < central.Graph.N; u++ {
				for _, v := range central.Graph.Neighbors(u) {
					if !dn.Graph.HasEdge(u, v) {
						t.Fatalf("centralized edge (%d,%d) missing from distributed", u, v)
					}
				}
			}
			// Identical member sets.
			if len(dn.Members) != len(central.Members) {
				t.Fatalf("members: distributed %d vs centralized %d",
					len(dn.Members), len(central.Members))
			}
			for i := range dn.Members {
				if dn.Members[i] != central.Members[i] {
					t.Fatalf("member list diverges at %d", i)
				}
			}
		})
	}
}

func TestDistributedMessageAccounting(t *testing.T) {
	g := rng.New(12)
	box := geom.Box(15, 15)
	pts := pointprocess.Poisson(box, 16, g)
	dist, err := BuildUDGDistributed(pts, box, tiling.DefaultUDGSpec())
	if err != nil {
		t.Fatal(err)
	}
	if dist.MessagesSent == 0 || dist.MessagesSent != dist.MessagesDelivered {
		t.Errorf("message accounting: sent %d delivered %d",
			dist.MessagesSent, dist.MessagesDelivered)
	}
	// Election broadcast dominates: messages must be at least the sum of
	// m(m−1) over regions, and the per-node cost must be O(1)-ish.
	perNode := float64(dist.MessagesSent) / float64(len(pts))
	if perNode > 20 {
		t.Errorf("messages per node %v — locality (P4) violated?", perNode)
	}
	if dist.Duration <= 0 {
		t.Errorf("duration = %v", dist.Duration)
	}
}

func TestDistributedRejectsInvalidSpec(t *testing.T) {
	bad := tiling.DefaultUDGSpec()
	bad.Re = 0.5
	if _, err := BuildUDGDistributed(nil, geom.Box(5, 5), bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestDistributedEmptyDeployment(t *testing.T) {
	dist, err := BuildUDGDistributed(nil, geom.Box(6, 6), tiling.DefaultUDGSpec())
	if err != nil {
		t.Fatal(err)
	}
	if dist.Network.Stats.GoodTiles != 0 || len(dist.Network.Members) != 0 {
		t.Error("empty deployment should give empty network")
	}
	if dist.MessagesSent != 0 {
		t.Errorf("empty deployment sent %d messages", dist.MessagesSent)
	}
}
