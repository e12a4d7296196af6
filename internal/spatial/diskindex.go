package spatial

import (
	"math"

	"repro/internal/geom"
)

// DiskIndex is the reverse query side of the package: where DynGrid answers
// "which points lie near q", DiskIndex answers "whose disks may contain q".
// Each slot registers at most one disk — a centre and a squared radius — in
// every cell of a fixed uniform grid that the disk's bounding box overlaps,
// and a query reads q's one cell. The answer is a superset of the disks that
// contain q (each listed once); callers apply their own exact test.
//
// A slot re-registers only when its disk's cell box changes. Unregistering
// is O(1): every registration carries the slot's current stamp, and entries
// with an older stamp are stale, dropped from a cell when it is read or has
// to grow. (A uint32 stamp could alias a stale entry only after 2³²
// re-registrations of one slot while that cell is never read or grown.) The cells are capped sub-slices of one slab, laid out by a
// counting pass at the first query (registrations before it only record
// their boxes). A cell that outgrows its capacity moves to the slab's free
// tail, and a full slab is repacked (stale entries dropped, every cell given
// slack) into the previous slab or a larger buffer, so the index allocates
// only while its working set grows.
type DiskIndex struct {
	cellGeom
	box   []cellBox     // per slot: registered cell box, empty when none
	stamp []uint32      // per slot: current registration stamp
	cells [][]diskEntry // per cell: registrations, capped sub-slices of slab
	slab  []diskEntry   // cell storage, nil until laid out; slab[used:] is free
	used  int
	spare []diskEntry // the slab before the last repack, reused by the next
}

// cellBox is an inclusive range of cell coordinates; x1 < x0 is empty.
type cellBox struct{ x0, y0, x1, y1 int32 }

var noBox = cellBox{0, 0, -1, -1}

// diskEntry is one registration of a slot's disk in a cell.
type diskEntry struct {
	slot  int32
	stamp uint32
}

// NewDiskIndex returns an empty index for slots 0..n−1 over the fixed world
// bounds with cells of the given size (see CellSize), enlarged like
// NewDynGrid's when the bounds would need more than
// maxCellsPerPoint·n + minCellBudget cells. cell must be positive.
func NewDiskIndex(bounds geom.Rect, cell float64, n int) *DiskIndex {
	x := &DiskIndex{
		cellGeom: newCellGeom(bounds, cell, n),
		box:      make([]cellBox, n),
		stamp:    make([]uint32, n),
	}
	for i := range x.box {
		x.box[i] = noBox
	}
	x.cells = make([][]diskEntry, x.nx*x.ny)
	return x
}

// Set registers slot i's disk: centre c, squared radius r2. A disk with a
// negative or NaN r2 contains no point and leaves the slot unregistered.
// Disks with coordinates outside the bounds, NaN or infinite, are filed
// like DynGrid's points, in clamped cells; the query never misses a disk
// that contains q.
func (x *DiskIndex) Set(i int32, c geom.Point, r2 float64) {
	if !(r2 >= 0) {
		x.Clear(i)
		return
	}
	// The relative slack covers rounding in Dist2 and the square root, the
	// absolute term underflow of a tiny squared offset.
	r := math.Sqrt(r2)*(1+1e-12) + 0x1p-511
	b := cellBox{
		x0: int32(clampCell((c.X-r-x.bounds.Min.X)/x.cell, x.nx)),
		y0: int32(clampCell((c.Y-r-x.bounds.Min.Y)/x.cell, x.ny)),
		x1: int32(clampCellHi((c.X+r-x.bounds.Min.X)/x.cell, x.nx)),
		y1: int32(clampCellHi((c.Y+r-x.bounds.Min.Y)/x.cell, x.ny)),
	}
	if x.box[i] == b {
		return
	}
	x.stamp[i]++
	x.box[i] = b
	if x.slab == nil {
		return
	}
	e := diskEntry{slot: i, stamp: x.stamp[i]}
	for cy := b.y0; cy <= b.y1; cy++ {
		for cx := b.x0; cx <= b.x1; cx++ {
			x.insert(int(cy)*x.nx+int(cx), e)
		}
	}
}

// clampCellHi is clampCell for the upper end of a span: NaN (a NaN centre,
// or −∞ + ∞) maps to the last cell, so the span stays conservative.
func clampCellHi(f float64, n int) int {
	if f != f {
		return n - 1
	}
	return clampCell(f, n)
}

// Clear unregisters slot i; clearing an unregistered slot is a no-op.
func (x *DiskIndex) Clear(i int32) {
	if x.box[i] == noBox {
		return
	}
	x.stamp[i]++
	x.box[i] = noBox
}

// AppendAt appends to dst every slot whose registered disk overlaps q's
// cell — each slot once, in registration order within the cell — and
// returns the extended slice. Every disk that contains q is among them.
func (x *DiskIndex) AppendAt(q geom.Point, dst []int32) []int32 {
	if x.slab == nil {
		x.layout()
	}
	c := x.cellIndex(q)
	live := x.cells[c][:0]
	for _, e := range x.cells[c] {
		if e.stamp == x.stamp[e.slot] {
			live = append(live, e)
			dst = append(dst, e.slot)
		}
	}
	x.cells[c] = live
	return dst
}

// compact drops the stale entries of a cell list in place.
func (x *DiskIndex) compact(list []diskEntry) []diskEntry {
	live := list[:0]
	for _, e := range list {
		if e.stamp == x.stamp[e.slot] {
			live = append(live, e)
		}
	}
	return live
}

// insert appends e to cell c. A full cell is compacted first; if it is
// still full it moves to the slab's free tail with twice the capacity,
// repacking the slab when the tail is too short.
func (x *DiskIndex) insert(c int, e diskEntry) {
	list := x.cells[c]
	if len(list) == cap(list) {
		list = x.compact(list)
	}
	if len(list) == cap(list) {
		want := max(2*len(list), 4)
		if x.used+want > len(x.slab) {
			x.cells[c] = list
			x.repack(want)
			list = x.cells[c]
		}
		if len(list) == cap(list) {
			moved := x.slab[x.used : x.used+len(list) : x.used+want]
			copy(moved, list)
			x.used += want
			list = moved
		}
	}
	x.cells[c] = append(list, e)
}

// slack is the free room a laid-out cell of length n gets.
func slack(n int) int { return 1 + n/4 }

// layout files every registered disk into freshly carved cells of one new
// slab: a counting pass (in the cell lists' lengths) sizes each cell, which
// then gets its slack, and a free tail half their size follows.
func (x *DiskIndex) layout() {
	packed := len(x.cells) // Σ len + slack(len), bounded from the entry total
	for _, b := range x.box {
		if b != noBox {
			n := int(b.x1-b.x0+1) * int(b.y1-b.y0+1)
			packed += n + n/4
		}
	}
	buf := make([]diskEntry, packed+packed/2)
	x.eachCell(func(c int, _ int32) { x.cells[c] = buf[:len(x.cells[c])+1] })
	x.place(buf, false)
	x.eachCell(func(c int, i int32) { x.cells[c] = append(x.cells[c], diskEntry{slot: i, stamp: x.stamp[i]}) })
}

// eachCell calls fn(c, i) for every cell c of every registered slot i.
func (x *DiskIndex) eachCell(fn func(c int, i int32)) {
	for i, b := range x.box {
		for cy := b.y0; cy <= b.y1; cy++ {
			for cx := b.x0; cx <= b.x1; cx++ {
				fn(int(cy)*x.nx+int(cx), int32(i))
			}
		}
	}
}

// repack compacts every cell and moves the cells, each with its slack,
// into a buffer with a free tail of half their size plus want: the previous
// slab when that is large enough, so a steady working set repacks without
// allocating, else a new buffer of twice that size, so a growing one
// allocates O(log growth) times.
func (x *DiskIndex) repack(want int) {
	packed := 0
	for c, list := range x.cells {
		list = x.compact(list)
		x.cells[c] = list
		packed += len(list) + slack(len(list))
	}
	buf := x.spare
	if size := packed + packed/2 + want; len(buf) < size {
		buf = make([]diskEntry, 2*size)
	}
	x.spare = x.slab
	x.place(buf, true)
}

// place carves buf into the cells, each at its length plus slack, copying
// their entries when keep is set, and makes buf the slab.
func (x *DiskIndex) place(buf []diskEntry, keep bool) {
	at := 0
	for c, list := range x.cells {
		n := 0
		if keep {
			n = copy(buf[at:], list)
		}
		m := len(list) + slack(len(list))
		x.cells[c] = buf[at : at+n : at+m]
		at += m
	}
	x.slab, x.used = buf, at
}
