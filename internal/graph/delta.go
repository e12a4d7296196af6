package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Delta is a mutable edge overlay over an immutable base CSR: localized
// structure repair records its edge changes here, and CSR consumers read
// through it without the base ever being rewritten. A vertex is either
// untouched — its adjacency comes straight from the base slab — or touched,
// in which case the overlay holds its full replacement adjacency (sorted,
// like the base) in a segment of one shared arena. Repair around k moved
// nodes therefore costs O(k·degree) arena entries while the other n−k
// vertices stay zero-cost views into the base.
//
// Mutators keep both endpoints' adjacencies in sync, so the overlay is an
// undirected graph at every point. Materialize freezes the current view
// into a standalone CSR — the form the equivalence gate compares
// edge-for-edge against a from-scratch rebuild.
type Delta struct {
	base  *CSR
	seg   []adjSeg // per vertex; cap 0 = untouched
	arena []int32  // replacement adjacencies of the touched vertices
	edges int      // current undirected edge count
}

// adjSeg locates one touched vertex's adjacency: arena[off:off+n], with
// room up to off+cap. A segment that outgrows its room moves to the end of
// the arena with twice the room, so a vertex's segment settles once its
// degree stops growing.
type adjSeg struct{ off, n, cap int32 }

// NewDelta returns an empty overlay over base.
func NewDelta(base *CSR) *Delta {
	return &Delta{base: base, seg: make([]adjSeg, base.N), edges: base.EdgeCount}
}

// Base returns the underlying immutable CSR.
func (d *Delta) Base() *CSR { return d.base }

// EdgeCount returns the current undirected edge count through the overlay.
func (d *Delta) EdgeCount() int { return d.edges }

// Neighbors returns the current sorted adjacency of u. The slice aliases
// internal storage: valid until the next mutation.
func (d *Delta) Neighbors(u int32) []int32 {
	if s := d.seg[u]; s.cap > 0 {
		return d.arena[s.off : s.off+s.n : s.off+s.n]
	}
	return d.base.Neighbors(u)
}

// Degree returns the current degree of u.
func (d *Delta) Degree(u int32) int { return len(d.Neighbors(u)) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *Delta) HasEdge(u, v int32) bool {
	a := d.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// touch returns u's overlay segment, copying its base adjacency into the
// arena (with two slots of room) on first touch.
func (d *Delta) touch(u int32) *adjSeg {
	s := &d.seg[u]
	if s.cap == 0 {
		base := d.base.Neighbors(u)
		s.off, s.n, s.cap = int32(len(d.arena)), int32(len(base)), int32(len(base)+2)
		d.arena = append(append(d.arena, base...), 0, 0)
	}
	return s
}

// insertSorted adds v into u's overlay adjacency; reports whether it was
// absent.
func (d *Delta) insertSorted(u, v int32) bool {
	s := d.touch(u)
	a := d.arena[s.off : s.off+s.n]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i < len(a) && a[i] == v {
		return false
	}
	if s.n == s.cap {
		off := int32(len(d.arena))
		d.arena = slices.Grow(d.arena, int(2*s.cap))[:off+2*s.cap]
		copy(d.arena[off:], d.arena[s.off:s.off+s.n])
		s.off, s.cap = off, 2*s.cap
	}
	a = d.arena[s.off : s.off+s.n+1]
	copy(a[i+1:], a[i:])
	a[i] = v
	s.n++
	return true
}

// deleteSorted removes v from u's overlay adjacency; reports whether it was
// present.
func (d *Delta) deleteSorted(u, v int32) bool {
	s := d.touch(u)
	a := d.arena[s.off : s.off+s.n]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i >= len(a) || a[i] != v {
		return false
	}
	copy(a[i:], a[i+1:])
	s.n--
	return true
}

// AddEdge inserts the undirected edge {u, v} (self loops ignored); reports
// whether the edge was new.
func (d *Delta) AddEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if !d.insertSorted(u, v) {
		return false
	}
	d.insertSorted(v, u)
	d.edges++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}; reports whether it existed.
func (d *Delta) RemoveEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if !d.deleteSorted(u, v) {
		return false
	}
	d.deleteSorted(v, u)
	d.edges--
	return true
}

// Materialize freezes the current overlay view into a standalone CSR with
// the same representation a from-scratch Builder.Build would produce —
// sorted adjacencies, exact EdgeCount — which is what the incremental-repair
// equivalence gates compare against.
func (d *Delta) Materialize() *CSR {
	n := d.base.N
	c := &CSR{N: n, Start: make([]int32, n+1), EdgeCount: d.edges}
	for u := int32(0); u < int32(n); u++ {
		c.Start[u+1] = c.Start[u] + int32(len(d.Neighbors(u)))
	}
	c.Adj = make([]int32, c.Start[n])
	for u := int32(0); u < int32(n); u++ {
		copy(c.Adj[c.Start[u]:c.Start[u+1]], d.Neighbors(u))
	}
	return c
}

// Equal reports whether two CSR graphs are identical edge-for-edge: same
// vertex count, same sorted adjacency everywhere. The incremental-repair
// equivalence gate in its comparison form.
func Equal(a, b *CSR) bool {
	if a.N != b.N || a.EdgeCount != b.EdgeCount {
		return false
	}
	for u := int32(0); u < int32(a.N); u++ {
		x, y := a.Neighbors(u), b.Neighbors(u)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// FirstDiff returns a human-readable description of the first adjacency
// difference between two CSRs, or "" when they are equal — the diagnostic
// companion of Equal for equivalence-gate failures.
func FirstDiff(a, b *CSR) string {
	if a.N != b.N {
		return fmt.Sprintf("vertex count %d != %d", a.N, b.N)
	}
	for u := int32(0); u < int32(a.N); u++ {
		x, y := a.Neighbors(u), b.Neighbors(u)
		if len(x) != len(y) {
			return fmt.Sprintf("vertex %d: degree %d != %d (%v vs %v)", u, len(x), len(y), x, y)
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("vertex %d: adjacency %v != %v", u, x, y)
			}
		}
	}
	if a.EdgeCount != b.EdgeCount {
		return fmt.Sprintf("edge count %d != %d", a.EdgeCount, b.EdgeCount)
	}
	return ""
}
