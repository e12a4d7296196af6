package spatial

import "repro/internal/geom"

// Insert re-activates removed slot i at position p — the resurrection step
// the mutation tests mix with Move and Remove.
func (g *DynGrid) Insert(i int32, p geom.Point) {
	if g.cellOf[i] >= 0 {
		panic("spatial: Insert on live slot")
	}
	g.pts[i] = p
	c := int32(g.cellIndex(p))
	g.cellInsert(c, i)
	g.cellOf[i] = c
	g.live++
}
