package graph

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; returns true if they were distinct.
func (uf *UnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int32) bool { return uf.Find(x) == uf.Find(y) }

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Components labels each vertex of the graph with a component id in
// [0, numComponents) and returns (labels, sizes). Ids are assigned in order
// of each component's smallest vertex. Implemented as a flood fill over the
// CSR, then one counting pass for the sizes — O(N + E) with the labels,
// queue and sizes slabs as its only allocations.
func Components(g *CSR) (labels []int32, sizes []int) {
	labels = make([]int32, g.N)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, 256)
	id := int32(0)
	for s := 0; s < g.N; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			for _, v := range g.Neighbors(queue[head]) {
				if labels[v] < 0 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
		id++
	}
	sizes = make([]int, id)
	for _, l := range labels {
		sizes[l]++
	}
	return labels, sizes
}

// LargestComponentWhere returns the size of the largest connected
// component of the subgraph induced by the vertices of members for which
// keep reports true (edges incident to a dropped vertex disappear).
// members nil means every vertex of the graph. It is the shared primitive
// behind the failure/churn experiments' "how much network survives without
// a rebuild" metric.
func LargestComponentWhere(g *CSR, members []int32, keep func(int32) bool) int {
	forEach := func(f func(u int32)) {
		if members == nil {
			for u := int32(0); int(u) < g.N; u++ {
				f(u)
			}
		} else {
			for _, u := range members {
				f(u)
			}
		}
	}
	uf := NewUnionFind(g.N)
	forEach(func(u int32) {
		if !keep(u) {
			return
		}
		for _, v := range g.Neighbors(u) {
			if v > u && keep(v) {
				uf.Union(u, v)
			}
		}
	})
	counts := make([]int32, g.N)
	best := 0
	forEach(func(u int32) {
		if !keep(u) {
			return
		}
		r := uf.Find(u)
		counts[r]++
		if int(counts[r]) > best {
			best = int(counts[r])
		}
	})
	return best
}

// LargestComponent returns the vertex set of the largest connected component
// (ties broken by lowest label) and its component label.
func LargestComponent(g *CSR) (members []int32, label int32) {
	labels, sizes := Components(g)
	if len(sizes) == 0 {
		return nil, -1
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	label = int32(best)
	members = make([]int32, 0, sizes[best])
	for u, l := range labels {
		if l == label {
			members = append(members, int32(u))
		}
	}
	return members, label
}
