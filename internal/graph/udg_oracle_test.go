package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
)

// TestFromPackedMatchesOracleOnUDG checks the unique FromPacked path byte
// for byte against the two-pass oracle on the edge set of a 10⁵-point
// UDG(2, 16) — the many-block, many-chunk input the scale tier builds — fed
// in shuffled order.
func TestFromPackedMatchesOracleOnUDG(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-point UDG")
	}
	pts := pointprocess.Poisson(geom.Box(79, 79), 16, rng.New(17))
	g := rgg.UDGGrid(pts, 1)
	edges := make([]uint64, 0, g.EdgeCount)
	for u := int32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, graph.Pack(u, v))
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	want := graph.MakeCSRReference(len(pts), edges, false)
	if d := graph.CSRDiff(graph.FromPacked(len(pts), edges, true), want); d != "" {
		t.Fatalf("n=%d, %d edges: %s", len(pts), len(edges), d)
	}
	if d := graph.CSRDiff(g.CSR, want); d != "" {
		t.Fatalf("UDGGrid's own CSR: %s", d)
	}
}
