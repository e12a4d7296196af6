// Allocation-regression tests for the graph-construction pipeline: the
// flat-CSR builder and the buffered spatial queries keep allocs/op for a
// build bounded by the shard count, not the node count. The seed
// adjacency-list pipeline allocated Θ(n) times per build (per-vertex slice
// growth, a copy and a sort.Slice interface box per vertex in Build, plus a
// heap, a closure and a result slice per kNN query) — roughly 50k
// allocations for the 20k-point deployments below. The bounds here are ~25×
// under that, but leave generous slack over the measured ~200.
package sensnet_test

import (
	"testing"

	sensnet "repro"
)

func TestGraphBuildAllocationsBounded(t *testing.T) {
	box := sensnet.Box(35, 35)
	pts := sensnet.Deploy(box, 16, 13) // ~20k points
	if len(pts) < 15000 {
		t.Fatalf("deployment too small: %d", len(pts))
	}
	const maxAllocs = 2000
	if a := testing.AllocsPerRun(3, func() {
		if g := sensnet.UDG(pts, 1); g.EdgeCount == 0 {
			t.Error("empty UDG")
		}
	}); a > maxAllocs {
		t.Errorf("UDG build allocates %.0f/op for n=%d, want ≤ %d", a, len(pts), maxAllocs)
	}
	if a := testing.AllocsPerRun(3, func() {
		if g := sensnet.NN(pts, 6); g.EdgeCount == 0 {
			t.Error("empty NN graph")
		}
	}); a > maxAllocs {
		t.Errorf("NN build allocates %.0f/op for n=%d, want ≤ %d", a, len(pts), maxAllocs)
	}
}

// TestHNGBuildAllocationsBounded gates the hierarchical-neighbor-graph
// construction the same way: allocations per build are bounded by the
// hierarchy height and shard count, not the node count. The dominant terms
// are the per-level subset slices and grids (O(levels)), the per-shard
// query scratch and the one attachment sort — far under one allocation per
// node.
func TestHNGBuildAllocationsBounded(t *testing.T) {
	box := sensnet.Box(35, 35)
	pts := sensnet.Deploy(box, 16, 13) // ~20k points
	if len(pts) < 15000 {
		t.Fatalf("deployment too small: %d", len(pts))
	}
	spec := sensnet.DefaultHNGSpec()
	const maxAllocs = 2000
	if a := testing.AllocsPerRun(3, func() {
		g, err := sensnet.BuildHNG(pts, spec, 21)
		if err != nil || g.EdgeCount == 0 {
			t.Error("bad HNG build")
		}
	}); a > maxAllocs {
		t.Errorf("HNG build allocates %.0f/op for n=%d, want ≤ %d", a, len(pts), maxAllocs)
	}
}
