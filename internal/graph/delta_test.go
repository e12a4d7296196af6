package graph

import (
	"testing"

	"repro/internal/rng"
)

// refGraph is a map-backed undirected graph used as the oracle for Delta.
type refGraph struct {
	n     int
	edges map[uint64]bool
}

func newRef(n int) *refGraph { return &refGraph{n: n, edges: make(map[uint64]bool)} }

func (r *refGraph) add(u, v int32) bool {
	if u == v {
		return false
	}
	k := Pack(u, v)
	if r.edges[k] {
		return false
	}
	r.edges[k] = true
	return true
}

func (r *refGraph) remove(u, v int32) bool {
	k := Pack(u, v)
	if !r.edges[k] {
		return false
	}
	delete(r.edges, k)
	return true
}

func (r *refGraph) csr() *CSR {
	b := NewBuilder(r.n)
	for k := range r.edges {
		u, v := Unpack(k)
		b.AddEdge(u, v)
	}
	return b.Build()
}

func TestDeltaMatchesBuilderUnderRandomEdits(t *testing.T) {
	const n = 60
	gen := rng.Sub(3, 0)
	base := NewBuilder(n)
	ref := newRef(n)
	for i := 0; i < 150; i++ {
		u, v := int32(gen.IntN(n)), int32(gen.IntN(n))
		if ref.add(u, v) {
			base.AddEdge(u, v)
		}
	}
	baseCSR := base.Build()
	d := NewDelta(baseCSR)
	if !Equal(d.Materialize(), baseCSR) {
		t.Fatalf("empty overlay differs from base: %s", FirstDiff(d.Materialize(), baseCSR))
	}

	for round := 0; round < 30; round++ {
		for step := 0; step < 20; step++ {
			u, v := int32(gen.IntN(n)), int32(gen.IntN(n))
			if gen.Float64() < 0.5 {
				if got, want := d.AddEdge(u, v), ref.add(u, v); got != want {
					t.Fatalf("AddEdge(%d,%d)=%v want %v", u, v, got, want)
				}
			} else {
				if got, want := d.RemoveEdge(u, v), ref.remove(u, v); got != want {
					t.Fatalf("RemoveEdge(%d,%d)=%v want %v", u, v, got, want)
				}
			}
		}
		want := ref.csr()
		got := d.Materialize()
		if diff := FirstDiff(got, want); diff != "" {
			t.Fatalf("round %d: overlay != rebuilt: %s", round, diff)
		}
		if d.EdgeCount() != len(ref.edges) {
			t.Fatalf("round %d: EdgeCount=%d want %d", round, d.EdgeCount(), len(ref.edges))
		}
	}
}

func TestDeltaUntouchedVerticesAliasBase(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	base := b.Build()
	d := NewDelta(base)
	d.AddEdge(0, 2)
	touched := 0
	for _, s := range d.seg {
		if s.cap > 0 {
			touched++
		}
	}
	if touched != 2 {
		t.Fatalf("touched vertices = %d want 2", touched)
	}
	// Vertex 3 was never touched: its view must be the base slab itself.
	got := d.Neighbors(3)
	want := base.Neighbors(3)
	if &got[0] != &want[0] {
		t.Fatal("untouched vertex does not alias the base adjacency")
	}
}
