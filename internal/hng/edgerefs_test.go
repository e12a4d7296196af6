package hng

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestEdgeRefsMatchesMap holds the open-addressing refcount table to a Go
// map under random emits and retracts over a small edge domain, starting
// from the smallest table, so probe runs collide, wrap around the slab end,
// shift back on deletion and survive growth.
func TestEdgeRefsMatchesMap(t *testing.T) {
	var keys []uint64
	for u := int32(0); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			keys = append(keys, graph.Pack(u, v))
		}
	}
	refs, want := newEdgeRefs(0), map[uint64]int32{}
	gen := rng.New(71)
	for op := 0; op < 20000; op++ {
		key := keys[gen.IntN(len(keys))]
		d := int32(1)
		if want[key] > 0 && gen.Float64() < 0.55 {
			d = -1
		}
		want[key] += d
		if got := refs.add(key, d); got != want[key] {
			t.Fatalf("op %d: add(%#x, %d) = %d, want %d", op, key, d, got, want[key])
		}
		if want[key] == 0 {
			delete(want, key)
		}
		if refs.n != len(want) {
			t.Fatalf("op %d: %d keys held, want %d", op, refs.n, len(want))
		}
		for _, k := range keys {
			if got := refs.get(k); got != want[k] {
				t.Fatalf("op %d: get(%#x) = %d, want %d", op, k, got, want[k])
			}
		}
	}
}
