package spatial

import (
	"repro/internal/geom"
)

// KDTree is a static 2D kd-tree over a point set, built once and queried
// many times. Nodes are stored in a flat array (implicit tree) for cache
// friendliness; construction is O(n log n) via quickselect median
// partitioning, and queries traverse iteratively with an explicit stack so
// the zero-alloc *Into variants never touch the heap.
type KDTree struct {
	pts   []geom.Point
	nodes []kdNode
	root  int32
}

type kdNode struct {
	point       int32 // index into pts
	left, right int32 // node indices, −1 for none
	axis        uint8 // 0 = X, 1 = Y
}

// kdStackDepth bounds the traversal stacks. The tree is median-balanced so
// its depth is ≤ ⌈log₂ n⌉ + 1 ≤ 32 for int32-indexed points; each visit
// pushes at most two children, hence 64 slots can never overflow.
const kdStackDepth = 64

// NewKDTree builds a kd-tree over pts.
func NewKDTree(pts []geom.Point) *KDTree {
	t := &KDTree{pts: pts, root: -1}
	if len(pts) == 0 {
		return t
	}
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.nodes = make([]kdNode, 0, len(pts))
	t.root = t.build(idx, 0)
	return t
}

// kdLess is the strict total order used for median selection: coordinate on
// the splitting axis, ties broken by point index so the tree shape — and
// therefore every downstream traversal — is deterministic.
func (t *KDTree) kdLess(a, b int32, axis uint8) bool {
	pa, pb := t.pts[a], t.pts[b]
	if axis == 0 {
		if pa.X != pb.X {
			return pa.X < pb.X
		}
	} else {
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
	}
	return a < b
}

// nthElement partially sorts idx so that idx[k] holds the element of rank k
// under kdLess and everything before/after it compares below/above —
// Hoare-partition quickselect with median-of-three pivots. Expected O(n)
// per call; pivots are deterministic, which keeps builds reproducible.
func (t *KDTree) nthElement(idx []int32, k int, axis uint8) {
	lo, hi := 0, len(idx)-1
	for hi > lo {
		if hi-lo < 8 {
			// Insertion sort for tiny ranges.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && t.kdLess(idx[j], idx[j-1], axis); j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			return
		}
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if t.kdLess(idx[mid], idx[lo], axis) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if t.kdLess(idx[hi], idx[lo], axis) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if t.kdLess(idx[hi], idx[mid], axis) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		idx[lo], idx[mid] = idx[mid], idx[lo]
		pivot := idx[lo]
		// Hoare partition.
		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || !t.kdLess(idx[i], pivot, axis) {
					break
				}
			}
			for {
				j--
				if !t.kdLess(pivot, idx[j], axis) {
					break
				}
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
		}
		idx[lo], idx[j] = idx[j], idx[lo]
		switch {
		case j == k:
			return
		case j < k:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
}

func (t *KDTree) build(idx []int32, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	mid := len(idx) / 2
	t.nthElement(idx, mid, axis)
	n := kdNode{point: idx[mid], axis: axis, left: -1, right: -1}
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// kdVisit is a deferred far-subtree visit: the subtree is pruned at pop
// time if the k-th best distance has shrunk below the splitting distance.
type kdVisit struct {
	node  int32
	dist2 float64 // squared distance from q to the splitting plane
}

// KNearestInto appends to dst the indices of the k points nearest to q —
// excluding index exclude (−1 for none), sorted by increasing distance with
// ties broken by index — and returns the extended slice. scratch carries the
// candidate heap across calls; after warm-up the query performs no heap
// allocations beyond growth of dst.
func (t *KDTree) KNearestInto(q geom.Point, k int, exclude int, scratch *KNNScratch, dst []int32) []int32 {
	if k <= 0 || t.root < 0 {
		return dst
	}
	if scratch == nil {
		scratch = &KNNScratch{}
	}
	h := &scratch.h
	h.reset(k)
	var stackArr [kdStackDepth]kdVisit
	stack := stackArr[:0]
	stack = append(stack, kdVisit{t.root, 0})
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h.full() && v.dist2 > h.top() {
			continue // plane moved out of range since this visit was queued
		}
		ni := v.node
		for ni >= 0 {
			n := &t.nodes[ni]
			p := t.pts[n.point]
			if int(n.point) != exclude {
				h.push(p.Dist2(q), n.point)
			}
			var delta float64
			if n.axis == 0 {
				delta = q.X - p.X
			} else {
				delta = q.Y - p.Y
			}
			near, far := n.left, n.right
			if delta > 0 {
				near, far = far, near
			}
			if far >= 0 && (!h.full() || delta*delta <= h.top()) {
				stack = append(stack, kdVisit{far, delta * delta})
			}
			ni = near // descend the near side without a stack push
		}
	}
	return h.appendSorted(dst)
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
