package tiling

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// NNSpec parameterizes the NN-SENS(2, k) tile geometry of §2.2: a square
// tile of side 10·A containing nine regions — the center disk C0 (radius A),
// four outer disks Cl/Cr/Ct/Cb (radius A, centered 4A from the center), and
// four bridge regions El/Er/Et/Eb.
//
// A bridge region E_d is the locus of points contained in every "largest
// circle centred at any point in C0 or C_d that lies wholly within the two
// tiles t and t_d" (the paper's definition, implemented exactly up to
// boundary discretization; see NNGeometry).
type NNSpec struct {
	A float64 // scale parameter; tile side = 10·A
	K int     // the NN(2, k) parameter; goodness caps tile population at K/2
}

// bridgeSamples is the number of points per boundary circle that discretize
// the bridge-region membership test.
const bridgeSamples = 96

// PaperNNSpec returns the paper's Theorem 2.4 parameters: k = 188 and
// a = 0.893 (for unit density λ = 1).
func PaperNNSpec() NNSpec { return NNSpec{A: 0.893, K: 188} }

// TileSide returns the tile side length 10·A.
func (s NNSpec) TileSide() float64 { return 10 * s.A }

// Validate checks basic soundness.
func (s NNSpec) Validate() error {
	if math.IsNaN(s.A) || math.IsInf(s.A, 0) {
		return fmt.Errorf("tiling: NN scale A = %v must be finite", s.A)
	}
	if s.A <= 0 {
		return fmt.Errorf("tiling: non-positive NN scale A = %v", s.A)
	}
	if s.K < 2 {
		return fmt.Errorf("tiling: NN spec needs K ≥ 2, got %d", s.K)
	}
	return nil
}

// NRegion identifies the region of an NN-SENS tile a point belongs to.
type NRegion int8

// NN tile region identifiers. Disk regions are NDiskBase + Direction and
// bridge regions are NBridgeBase + Direction.
const (
	NNone NRegion = iota
	NC0
	NDiskRight
	NDiskLeft
	NDiskTop
	NDiskBottom
	NBridgeRight
	NBridgeLeft
	NBridgeTop
	NBridgeBottom
	numNRegions
)

// NDisk returns the region id of the outer disk in direction d.
func NDisk(d Direction) NRegion { return NDiskRight + NRegion(d) }

// NBridge returns the region id of the bridge region in direction d.
func NBridge(d Direction) NRegion { return NBridgeRight + NRegion(d) }

// String implements fmt.Stringer.
func (r NRegion) String() string {
	switch {
	case r == NNone:
		return "none"
	case r == NC0:
		return "C0"
	case r >= NDiskRight && r <= NDiskBottom:
		return "C-" + Direction(r-NDiskRight).String()
	case r >= NBridgeRight && r <= NBridgeBottom:
		return "E-" + Direction(r-NBridgeRight).String()
	}
	return fmt.Sprintf("NRegion(%d)", int8(r))
}

// NNGeometry is a compiled NNSpec: the bridge-region membership test needs
// the supremum of d(p, q) − rmax(q) over q in the boundary circles of C0
// and C_d (the supremum of a convex function over a disk is attained on its
// boundary), which is discretized once here and reused for every point.
type NNGeometry struct {
	Spec    NNSpec
	tile    geom.Rect
	c0      geom.Circle
	disks   [4]geom.Circle
	samples [4][]boundarySample // per direction: q and its largest-circle radius
	// bridgeBox conservatively bounds bridge region E_d: the tile clipped to
	// every sampled circle's bounding box. Points outside it skip the sample
	// scan entirely, which is the common case for the construction loop.
	bridgeBox [4]geom.Rect
}

type boundarySample struct {
	q     geom.Point
	rmax  float64
	rmax2 float64 // rmax² — membership compares squared distances
}

// Compile precomputes the boundary samples for the four bridge regions.
func (s NNSpec) Compile() *NNGeometry {
	a := s.A
	g := &NNGeometry{
		Spec: s,
		tile: geom.Square(geom.Pt(0, 0), 10*a),
		c0:   geom.NewCircle(geom.Pt(0, 0), a),
	}
	for _, d := range Directions {
		dx, dy := d.Vec()
		dir := geom.Pt(float64(dx), float64(dy))
		g.disks[d] = geom.NewCircle(dir.Scale(4*a), a)
		// Union of tile t and neighbor t_d is a 20a×10a rectangle.
		u := g.tile.Union(geom.Square(dir.Scale(10*a), 10*a))
		var samp []boundarySample
		box := g.tile
		empty := false
		for _, c := range []geom.Circle{g.c0, g.disks[d]} {
			for i := 0; i < bridgeSamples; i++ {
				theta := 2 * math.Pi * float64(i) / float64(bridgeSamples)
				q := c.Center.Add(geom.Pt(c.R*math.Cos(theta), c.R*math.Sin(theta)))
				rmax := insetDistance(u, q)
				// Signed square: a negative inset (sample outside the union
				// rect) must keep rejecting every point, as d > rmax did.
				samp = append(samp, boundarySample{q: q, rmax: rmax, rmax2: rmax * math.Abs(rmax)})
				if rmax < 0 {
					// NewRect would normalize the inverted corners into a
					// non-empty box, so detect the empty bridge directly.
					empty = true
					break
				}
				var ok bool
				box, ok = box.Intersect(geom.NewRect(
					geom.Pt(q.X-rmax, q.Y-rmax), geom.Pt(q.X+rmax, q.Y+rmax)))
				if !ok {
					empty = true
					break
				}
			}
			if empty {
				break
			}
		}
		g.samples[d] = samp
		if empty {
			// Inverted rect: contains no point.
			box = geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}
		}
		g.bridgeBox[d] = box
	}
	return g
}

// insetDistance returns the distance from an interior point q to the
// boundary of rect — the radius of the largest disk at q inside rect.
func insetDistance(r geom.Rect, q geom.Point) float64 {
	return math.Min(
		math.Min(q.X-r.Min.X, r.Max.X-q.X),
		math.Min(q.Y-r.Min.Y, r.Max.Y-q.Y),
	)
}

// BridgeContains reports whether the tile-local point p lies in the bridge
// region E_d: inside the tile, inside every sampled largest circle, and
// outside the five disks (the disks take classification precedence, and
// keeping the regions disjoint matches the paper's Figure 5).
func (g *NNGeometry) BridgeContains(d Direction, p geom.Point) bool {
	if !g.bridgeBox[d].Contains(p) {
		// Covers the tile test: bridgeBox is the tile clipped to the
		// sampled circles' boxes.
		return false
	}
	if g.c0.Contains(p) {
		return false
	}
	for _, disk := range g.disks {
		if disk.Contains(p) {
			return false
		}
	}
	for _, s := range g.samples[d] {
		if p.Dist2(s.q) > s.rmax2 {
			return false
		}
	}
	return true
}

// Classify returns the region containing the tile-local point p. Disks take
// precedence over bridges; overlapping bridge regions resolve in Directions
// order (the paper notes only the E regions can overlap).
func (g *NNGeometry) Classify(p geom.Point) NRegion {
	if g.c0.Contains(p) {
		return NC0
	}
	for _, d := range Directions {
		if g.disks[d].Contains(p) {
			return NDisk(d)
		}
	}
	for _, d := range Directions {
		if g.BridgeContains(d, p) {
			return NBridge(d)
		}
	}
	return NNone
}

// TileGood reports whether a tile with the given local points is good
// (§2.2): population at most K/2 and all nine regions occupied.
func (g *NNGeometry) TileGood(localPts []geom.Point) bool {
	if len(localPts) > g.Spec.K/2 {
		return false
	}
	var have [numNRegions]bool
	need := int(numNRegions) - 1 // all but NNone
	for _, p := range localPts {
		r := g.Classify(p)
		if r == NNone || have[r] {
			continue
		}
		have[r] = true
		need--
		if need == 0 {
			return true
		}
	}
	return false
}

// Occupied returns which regions contain at least one of the local points,
// plus the population count — the per-region diagnostic used by the
// construction pipeline and the experiments.
func (g *NNGeometry) Occupied(localPts []geom.Point) (have [numNRegions]bool, count int) {
	for _, p := range localPts {
		have[g.Classify(p)] = true
		count++
	}
	return have, count
}
