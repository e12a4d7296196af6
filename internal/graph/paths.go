package graph

import "math"

// BFS computes hop distances from src; unreachable vertices get −1.
// The dist slice is reused if non-nil and long enough.
func BFS(g *CSR, src int32, dist []int32) []int32 {
	return BFSInto(g, src, nil, dist, nil)
}

// BFSInto is BFS bounded by a target set, with a reusable queue buffer held
// in scratch (which may be nil). Batch engines that sweep hop distances
// from many sources over the same graph (power.Measurer) reuse both dist
// and the queue across sources instead of re-growing an O(N) queue per
// call.
//
// The sweep returns as soon as the last of targets is discovered; nil or
// empty targets means every vertex, a full sweep. A hop distance is final
// when its vertex is discovered, and the discovery order up to the exit is
// that of the full sweep, so dist holds the full sweep's value for every
// target (and −1 for an unreachable one, in which case the sweep runs to
// completion). Other entries of dist are unspecified after an early exit.
// Duplicate targets and src itself are allowed.
func BFSInto(g *CSR, src int32, targets []int32, dist []int32, scratch *PathScratch) []int32 {
	if cap(dist) < g.N {
		dist = make([]int32, g.N)
	}
	dist = dist[:g.N]
	for i := range dist {
		dist[i] = -1
	}
	if scratch == nil {
		scratch = &PathScratch{}
	}
	marks := &scratch.marks
	marks.mark(g.N, targets)
	// Every vertex enters the queue at most once.
	if cap(scratch.queue) < g.N {
		scratch.queue = make([]int32, 0, g.N)
	}
	queue := scratch.queue[:0]
	dist[src] = 0
	if !marks.reached(src) {
		queue = append(queue, src)
	}
sweep:
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				if marks.reached(v) {
					break sweep
				}
				queue = append(queue, v)
			}
		}
	}
	marks.clear(targets)
	scratch.queue = queue
	return dist
}

// BFSPath returns a shortest hop path from src to dst (inclusive), or nil if
// unreachable.
func BFSPath(g *CSR, src, dst int32) []int32 {
	return BFSPathInto(g, src, dst, nil, nil)
}

// BFSPathInto is BFSPath with caller-owned buffers: scratch (parent array,
// resized to g.N) and dst-slice path (overwritten, returned extended from
// empty). Either may be nil. Hot loops that expand many short paths over the
// same graph — the Figure 8 lattice-hop expansion in routing — reuse both
// across calls instead of allocating O(N) per hop.
func BFSPathInto(g *CSR, src, dst int32, scratch *PathScratch, path []int32) []int32 {
	path = path[:0]
	if src == dst {
		return append(path, src)
	}
	if scratch == nil {
		scratch = &PathScratch{}
	}
	parent := scratch.parent
	if cap(parent) < g.N {
		parent = make([]int32, g.N)
	}
	parent = parent[:g.N]
	scratch.parent = parent
	for i := range parent {
		parent[i] = -1
	}
	queue := scratch.queue[:0]
	parent[src] = src
	queue = append(queue, src)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if parent[v] < 0 {
				parent[v] = u
				if v == dst {
					found = true
					break
				}
				queue = append(queue, v)
			}
		}
	}
	scratch.queue = queue
	if !found {
		return nil
	}
	// Reconstruct dst → src into path, then reverse in place.
	for v := dst; ; v = parent[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathScratch holds reusable buffers for BFSInto and BFSPathInto.
type PathScratch struct {
	parent []int32
	queue  []int32
	marks  targetMarks
}

// targetMarks is the target set of a bounded sweep: a slab indexed by
// vertex plus the count of targets not yet reached. A sweep marks its
// targets on entry and clears them before returning, so the slab is all
// false between sweeps and one scratch serves graphs of any size.
type targetMarks struct {
	marked []bool
	left   int
}

// mark sets the marks of targets on a graph of n vertices and counts the
// distinct ones. No targets leave left at zero: reached never fires and
// the sweep runs over every vertex.
func (t *targetMarks) mark(n int, targets []int32) {
	t.left = 0
	if len(targets) == 0 {
		return
	}
	if len(t.marked) < n {
		t.marked = make([]bool, n)
	}
	for _, v := range targets {
		if !t.marked[v] {
			t.marked[v] = true
			t.left++
		}
	}
}

// reached records that v's distance is final and reports whether v was
// the last pending target, the sweep's exit condition.
func (t *targetMarks) reached(v int32) bool {
	if t.left == 0 || !t.marked[v] {
		return false
	}
	t.marked[v] = false
	t.left--
	return t.left == 0
}

// clear unmarks every target, including unreachable ones a sweep ran to
// completion without reaching.
func (t *targetMarks) clear(targets []int32) {
	for _, v := range targets {
		t.marked[v] = false
	}
	t.left = 0
}

// DijkstraEdgesInto computes weighted distances from src, bounded by a
// target set, with caller-owned buffers: dist (resized to g.N) and scratch
// (the priority queue and target marks), either of which may be nil.
// w[i] is the weight of the directed edge stored at Adj[i]; batch
// measurement engines that sweep the same graph from many sources
// (power.Measurer) fill w once and save the distance/power evaluation per
// edge relaxation on every sweep. Unreachable vertices get +Inf.
//
// The sweep returns as soon as the last of targets is popped from the
// queue; nil or empty targets means every vertex, a full sweep. Pops and
// relaxations up to the exit are those of the full sweep, and a popped
// vertex's distance is final, so dist holds the full sweep's bytes for
// every target (+Inf for an unreachable one, in which case the sweep runs
// to completion). Other entries of dist are unspecified after an early
// exit. Duplicate targets and src itself are allowed.
func DijkstraEdgesInto(g *CSR, src int32, targets []int32, w []float64, dist []float64, scratch *DijkstraScratch) []float64 {
	if cap(dist) < g.N {
		dist = make([]float64, g.N)
	}
	dist = dist[:g.N]
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	if scratch == nil {
		scratch = &DijkstraScratch{}
	}
	marks := &scratch.marks
	marks.mark(g.N, targets)
	pq := &scratch.pq
	pq.items = append(pq.items[:0], distItem{src, 0})
	for len(pq.items) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		if marks.reached(it.v) {
			break
		}
		for i := g.Start[it.v]; i < g.Start[it.v+1]; i++ {
			nd := it.d + w[i]
			if v := g.Adj[i]; nd < dist[v] {
				dist[v] = nd
				pq.push(distItem{v, nd})
			}
		}
	}
	marks.clear(targets)
	return dist
}

// DijkstraScratch holds the reusable priority queue and target marks for
// DijkstraEdgesInto.
type DijkstraScratch struct {
	pq    distHeap
	marks targetMarks
}

type distItem struct {
	v int32
	d float64
}

// distHeap is a binary min-heap on d with concrete push/pop: container/heap
// would box every pushed item through interface{}, one allocation per edge
// relaxation — the dominant allocation source of the Monte-Carlo
// shortest-path loops before it was replaced.
type distHeap struct{ items []distItem }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.items[r].d < h.items[c].d {
			c = r
		}
		if h.items[i].d <= h.items[c].d {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}
