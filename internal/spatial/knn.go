package spatial

import "repro/internal/geom"

// KNNScratch holds the reusable candidate heap of a KNearestInto query. A
// zero KNNScratch is ready to use; reusing one across queries (one scratch
// per goroutine) makes the queries allocation-free once the heap has grown
// to steady state. A scratch must not be shared between concurrent queries.
type KNNScratch struct {
	h maxHeap
}

// maxHeap is a bounded max-heap on (dist2, index) pairs keeping the k
// lexicographically smallest: ordering ties at equal distance by index makes
// every k-nearest result — and hence the NN graph built from it — fully
// deterministic, matching BruteKNearest exactly even on degenerate inputs
// with duplicate points. Buffers are retained across reset for reuse.
type maxHeap struct {
	k   int
	d   []float64
	idx []int32
}

// reset prepares the heap for a fresh query keeping the k smallest entries.
func (h *maxHeap) reset(k int) {
	h.k = k
	h.d = h.d[:0]
	h.idx = h.idx[:0]
}

func (h *maxHeap) full() bool   { return len(h.d) >= h.k }
func (h *maxHeap) top() float64 { return h.d[0] }

// greater reports whether entry i orders after entry j under (dist2, index).
func (h *maxHeap) greater(i, j int) bool {
	if h.d[i] != h.d[j] {
		return h.d[i] > h.d[j]
	}
	return h.idx[i] > h.idx[j]
}

func (h *maxHeap) push(d float64, i int32) {
	if len(h.d) < h.k {
		h.d = append(h.d, d)
		h.idx = append(h.idx, i)
		h.up(len(h.d) - 1)
		return
	}
	if d > h.d[0] || (d == h.d[0] && i > h.idx[0]) {
		return
	}
	h.d[0], h.idx[0] = d, i
	h.down(0, len(h.d))
}

func (h *maxHeap) swap(i, j int) {
	h.d[i], h.d[j] = h.d[j], h.d[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
}

func (h *maxHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.greater(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *maxHeap) down(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.greater(l, big) {
			big = l
		}
		if r < n && h.greater(r, big) {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

// appendSorted drains the heap into dst by increasing (distance, index) —
// an in-place heapsort, so it allocates nothing beyond growth of dst. The
// heap is consumed.
func (h *maxHeap) appendSorted(dst []int32) []int32 {
	// Repeatedly move the max to the end of the shrinking heap prefix, then
	// append the ascending result.
	for n := len(h.d); n > 1; n-- {
		h.swap(0, n-1)
		h.down(0, n-1)
	}
	dst = append(dst, h.idx...)
	h.d = h.d[:0]
	h.idx = h.idx[:0]
	return dst
}

// BruteWithin returns (for testing and small inputs) the indices of points
// within r of q by exhaustive scan, in index order.
func BruteWithin(pts []geom.Point, q geom.Point, r float64) []int32 {
	r2 := r * r
	var out []int32
	for i, p := range pts {
		if p.Dist2(q) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

// BruteKNearest returns the k nearest points to q by exhaustive scan,
// excluding index exclude, sorted by increasing distance (ties by index).
func BruteKNearest(pts []geom.Point, q geom.Point, k int, exclude int) []int32 {
	if k <= 0 {
		return nil
	}
	var h maxHeap
	h.reset(k)
	for i, p := range pts {
		if i == exclude {
			continue
		}
		h.push(p.Dist2(q), int32(i))
	}
	return h.appendSorted(nil)
}
