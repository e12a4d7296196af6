package tiling

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pointprocess"
)

// GeometryMode selects how the UDG-SENS tile regions are realized.
type GeometryMode int

const (
	// GeometryLiteral evaluates the paper's §2.1 definition verbatim: C0 is
	// the radius-1/2 disk at the tile center and each relay region is the
	// intersection, within the tile, of all unit disks centered at points of
	// C0 (and of the facing neighbor relay region), minus C0. As shown in
	// DESIGN.md §2 this set is empty, so literal tiles are never good; the
	// mode exists to pin the negative result down in code.
	GeometryLiteral GeometryMode = iota
	// GeometryRepaired is the default feasible parameterization: C0 is a
	// disk of radius R0 < 1/2 and each relay region is a disk of radius Re
	// centered Xe from the tile center toward the edge, with the constraints
	// that make Claim 2.1 hold for every choice of representatives and
	// relays (validated by Spec.Validate).
	GeometryRepaired
	// GeometryRelaxed is the closest operational reading of the paper's
	// Figure 7 algorithm: relay regions are the rectangular bands between C0
	// and each tile edge (the blob drawn in the paper's Figure 3), and
	// connection handshakes are allowed to fail at runtime when elected
	// leaders are farther than the connection radius apart.
	GeometryRelaxed
)

// String implements fmt.Stringer.
func (m GeometryMode) String() string {
	switch m {
	case GeometryLiteral:
		return "literal"
	case GeometryRepaired:
		return "repaired"
	case GeometryRelaxed:
		return "relaxed"
	}
	return fmt.Sprintf("GeometryMode(%d)", int(m))
}

// UDGSpec parameterizes the UDG-SENS(2, λ) tile geometry.
type UDGSpec struct {
	Mode   GeometryMode
	Side   float64 // tile side a_u
	R0     float64 // radius of the center region C0
	Re     float64 // relay-disk radius (repaired mode)
	Xe     float64 // relay-disk center offset from tile center (repaired)
	BandH  float64 // relay-band half height (relaxed mode)
	Radius float64 // UDG connection radius (1 in the paper)
}

// PaperUDGSpec returns the paper's literal parameters: tile side 4/3 and
// C0 radius 1/2 (Theorem 2.2's λs = 1.568 was claimed for this geometry).
func PaperUDGSpec() UDGSpec {
	return UDGSpec{
		Mode:   GeometryLiteral,
		Side:   4.0 / 3.0,
		R0:     0.5,
		Radius: 1,
	}
}

// DefaultUDGSpec returns the repaired feasible geometry with the
// probability-optimal clean parameters a = 3/2, R0 = Re = 1/4, Xe = 1/2:
// all three reachability constraints hold with equality, the four relay
// disks are disjoint from C0 and from each other, and the five region areas
// are equal (which maximizes the good-tile probability for a product of
// occupancy events at fixed total constraint budget).
func DefaultUDGSpec() UDGSpec {
	return UDGSpec{
		Mode:   GeometryRepaired,
		Side:   1.5,
		R0:     0.25,
		Re:     0.25,
		Xe:     0.5,
		Radius: 1,
	}
}

// RelaxedUDGSpec returns the operational variant on the paper's original
// tile: side 4/3, C0 radius 1/2, relay bands of half-height 1/2 filling the
// gap between C0 and each edge.
func RelaxedUDGSpec() UDGSpec {
	return UDGSpec{
		Mode:   GeometryRelaxed,
		Side:   4.0 / 3.0,
		R0:     0.5,
		BandH:  0.5,
		Radius: 1,
	}
}

// UDGSpecFor returns the preset geometry named by mode — the parser behind
// every -mode flag and request field: "literal" (PaperUDGSpec), "repaired"
// (DefaultUDGSpec) or "relaxed" (RelaxedUDGSpec).
func UDGSpecFor(mode string) (UDGSpec, error) {
	switch mode {
	case "literal":
		return PaperUDGSpec(), nil
	case "repaired":
		return DefaultUDGSpec(), nil
	case "relaxed":
		return RelaxedUDGSpec(), nil
	}
	return UDGSpec{}, fmt.Errorf("unknown mode %q (want literal | repaired | relaxed)", mode)
}

// Validate checks the geometric soundness of the spec. For GeometryRepaired
// it verifies the three reachability constraints of DESIGN.md §2 plus
// region disjointness; for the other modes it checks basic positivity.
// Every field must be finite, whether or not the mode reads it.
func (s UDGSpec) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Side", s.Side}, {"R0", s.R0}, {"Re", s.Re}, {"Xe", s.Xe}, {"BandH", s.BandH}, {"Radius", s.Radius}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tiling: UDG spec %s = %v must be finite", f.name, f.v)
		}
	}
	if s.Side <= 0 || s.R0 <= 0 || s.Radius <= 0 {
		return fmt.Errorf("tiling: non-positive UDG spec dimensions: %+v", s)
	}
	if 2*s.R0 > s.Side {
		return fmt.Errorf("tiling: C0 (r=%v) does not fit in tile (side %v)", s.R0, s.Side)
	}
	if s.Mode != GeometryRepaired {
		return nil
	}
	if s.Re <= 0 || s.Xe <= 0 {
		return fmt.Errorf("tiling: repaired mode needs positive Re, Xe: %+v", s)
	}
	const eps = 1e-9
	if s.Xe+s.Re > s.Side/2+eps {
		return fmt.Errorf("tiling: relay disk leaves the tile: Xe+Re = %v > side/2 = %v",
			s.Xe+s.Re, s.Side/2)
	}
	if s.Xe+s.Re+s.R0 > s.Radius+eps {
		return fmt.Errorf("tiling: rep↔relay reach violated: Xe+Re+R0 = %v > radius %v",
			s.Xe+s.Re+s.R0, s.Radius)
	}
	if s.Side-2*s.Xe+2*s.Re > s.Radius+eps {
		return fmt.Errorf("tiling: relay↔relay cross-boundary reach violated: a−2Xe+2Re = %v > radius %v",
			s.Side-2*s.Xe+2*s.Re, s.Radius)
	}
	if s.Xe-s.Re < s.R0-eps {
		return fmt.Errorf("tiling: relay disk overlaps C0: Xe−Re = %v < R0 = %v",
			s.Xe-s.Re, s.R0)
	}
	if s.Xe*math.Sqrt2 < 2*s.Re-eps {
		return fmt.Errorf("tiling: adjacent relay disks overlap: Xe·√2 = %v < 2·Re = %v",
			s.Xe*math.Sqrt2, 2*s.Re)
	}
	return nil
}

// URegion identifies the region of a UDG-SENS tile a point belongs to.
type URegion int8

// UDG tile region identifiers. Relay regions are URelayBase + Direction.
const (
	UNone URegion = iota
	UC0
	URelayRight
	URelayLeft
	URelayTop
	URelayBottom
)

// URelay returns the region id of the relay region in direction d.
func URelay(d Direction) URegion { return URelayRight + URegion(d) }

// UDGGeometry is a compiled UDGSpec: C0 and the relay regions of the
// spec's mode are materialized once, as closed-form shapes, so per-point
// classification is a few comparisons and allocates nothing.
type UDGGeometry struct {
	Spec  UDGSpec
	c0    geom.Circle
	disks [4]geom.Circle // repaired: the relay disks
	bands [4]geom.Rect   // relaxed: the bands between C0 and each edge
	tile  geom.Rect      // literal: the tile, clipping the relay set
}

// Compile precomputes the region shapes for per-point classification.
func (s UDGSpec) Compile() *UDGGeometry {
	g := &UDGGeometry{
		Spec: s,
		c0:   geom.NewCircle(geom.Pt(0, 0), s.R0),
		tile: geom.Square(geom.Pt(0, 0), s.Side),
	}
	for _, d := range Directions {
		dx, dy := d.Vec()
		g.disks[d] = geom.NewCircle(geom.Pt(float64(dx), float64(dy)).Scale(s.Xe), s.Re)
		// Band between C0 and the tile edge; its overlap with C0 never
		// classifies, because C0 is tested first.
		lo, hi := s.R0, s.Side/2
		if dy == 0 {
			g.bands[d] = geom.NewRect(geom.Pt(float64(dx)*lo, -s.BandH), geom.Pt(float64(dx)*hi, s.BandH))
		} else {
			g.bands[d] = geom.NewRect(geom.Pt(-s.BandH, float64(dy)*lo), geom.Pt(s.BandH, float64(dy)*hi))
		}
	}
	return g
}

// Classify returns the region containing the tile-local point p. C0 always
// takes precedence; where relay regions overlap (relaxed-mode corners) the
// first direction in Directions order wins.
//
// Literal mode uses the closed form of DESIGN.md §2: the points within
// Radius of every point of C0 are those with d(p, 0) + R0 ≤ Radius, clipped
// to the tile. The four literal relay regions are that same set minus C0
// (the facing neighbor region can only shrink it), so Directions order
// assigns it to Right; at R0 = Radius/2 it lies inside C0 and is empty, up
// to rounding on C0's rim.
func (g *UDGGeometry) Classify(p geom.Point) URegion {
	if g.c0.Contains(p) {
		return UC0
	}
	switch g.Spec.Mode {
	case GeometryRepaired:
		for d, c := range g.disks {
			if c.Contains(p) {
				return URelay(Direction(d))
			}
		}
	case GeometryRelaxed:
		for d, b := range g.bands {
			if b.Contains(p) {
				return URelay(Direction(d))
			}
		}
	default: // GeometryLiteral
		if g.c0.MaxDistToPoint(p) <= g.Spec.Radius && g.tile.Contains(p) {
			return URelay(Right)
		}
	}
	return UNone
}

// TileGood reports whether a tile whose local points are given is good:
// C0 and all four relay regions are occupied.
func (g *UDGGeometry) TileGood(localPts []geom.Point) bool {
	var have [5]bool
	need := 5
	for _, p := range localPts {
		r := g.Classify(p)
		if r == UNone || have[r-1] {
			continue
		}
		have[r-1] = true
		need--
		if need == 0 {
			return true
		}
	}
	return false
}

// GoodProbability returns the exact probability that a tile is good under a
// Poisson process of density lambda, valid for GeometryRepaired (disjoint
// disk regions ⇒ independent occupancy events). For other modes it returns
// NaN; use Monte Carlo estimation instead.
func (s UDGSpec) GoodProbability(lambda float64) float64 {
	if s.Mode != GeometryRepaired {
		return math.NaN()
	}
	p0 := pointprocess.OccupancyProbability(lambda, math.Pi*s.R0*s.R0)
	pe := pointprocess.OccupancyProbability(lambda, math.Pi*s.Re*s.Re)
	return p0 * pe * pe * pe * pe
}

// LambdaS returns the smallest density at which GoodProbability exceeds the
// given site-percolation threshold (use lattice.SitePcReference), found by
// bisection on the exact formula. Only meaningful for GeometryRepaired.
func (s UDGSpec) LambdaS(pc float64) float64 {
	if s.Mode != GeometryRepaired {
		return math.NaN()
	}
	lo, hi := 0.0, 1.0
	for s.GoodProbability(hi) < pc {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1)
		}
	}
	for hi-lo > 1e-9 {
		mid := (lo + hi) / 2
		if s.GoodProbability(mid) >= pc {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
