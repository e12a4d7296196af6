package core

import (
	"testing"

	"repro/internal/election"
	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/rng"
	"repro/internal/tiling"
)

func TestNNDistributedMatchesCentralized(t *testing.T) {
	spec := tiling.PaperNNSpec()
	g := rng.New(31)
	side := 5 * spec.TileSide()
	box := geom.Box(side, side)
	pts := pointprocess.Poisson(box, 1.0, g)

	central, err := BuildNN(pts, box, spec, Options{
		Election: election.AlgorithmBroadcast,
		SkipBase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildNNDistributed(pts, box, spec)
	if err != nil {
		t.Fatal(err)
	}
	dn := dist.Network

	if dn.Stats.GoodTiles != central.Stats.GoodTiles {
		t.Fatalf("good tiles: distributed %d vs centralized %d",
			dn.Stats.GoodTiles, central.Stats.GoodTiles)
	}
	for i, ct := range central.Tiles {
		c, dt := central.Map.TileAt(i), dn.Tiles[i]
		// Both builders count every mapped node, good tile or not, so an
		// occupied tile the distributed census missed shows up here.
		if dt.Population != ct.Population {
			t.Fatalf("tile %v population: distributed %d vs %d",
				c, dt.Population, ct.Population)
		}
		if ct.Good != dt.Good {
			t.Fatalf("tile %v goodness mismatch (pop %d)", c, ct.Population)
		}
		if !ct.Good {
			continue
		}
		if dt.Rep != ct.Rep {
			t.Fatalf("tile %v rep mismatch", c)
		}
		for d := range ct.Disk {
			if dt.Disk[d] != ct.Disk[d] || dt.Bridge[d] != ct.Bridge[d] {
				t.Fatalf("tile %v relay tables differ", c)
			}
		}
	}
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
	if len(dn.Members) != len(central.Members) {
		t.Fatalf("members: %d vs %d", len(dn.Members), len(central.Members))
	}
}

func TestNNDistributedMessageCost(t *testing.T) {
	spec := tiling.PaperNNSpec()
	g := rng.New(32)
	side := 4 * spec.TileSide()
	box := geom.Box(side, side)
	pts := pointprocess.Poisson(box, 1.0, g)
	dist, err := BuildNNDistributed(pts, box, spec)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
	// The census makes the cost ~2 messages per tile node plus elections:
	// still O(1) per node.
	perNode := float64(dist.MessagesSent) / float64(len(pts))
	if perNode > 25 {
		t.Errorf("messages per node = %v — locality violated?", perNode)
	}
}

func TestNNDistributedRejectsInvalidSpec(t *testing.T) {
	if _, err := BuildNNDistributed(nil, geom.Box(5, 5), tiling.NNSpec{A: -1, K: 5}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestNNDistributedEmpty(t *testing.T) {
	spec := tiling.PaperNNSpec()
	dist, err := BuildNNDistributed(nil, geom.Box(2*spec.TileSide(), 2*spec.TileSide()), spec)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Network.Stats.GoodTiles != 0 || dist.MessagesSent != 0 {
		t.Error("empty deployment should be silent")
	}
}
