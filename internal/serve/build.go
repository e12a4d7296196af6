package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hng"
	"repro/internal/pointprocess"
	"repro/internal/power"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/tiling"
)

// BuildSpec is the JSON body of POST /snapshots: the semantic parameters
// of one snapshot build. The zero value of every optional field selects
// the documented default, so {"kind":"udg","seed":1} is a complete spec.
type BuildSpec struct {
	// Kind selects the construction: "udg" (UDG-SENS via the tile-sharded
	// scale-tier build) or "hng" (hierarchical neighbor graph).
	Kind string `json:"kind"`
	// Seed and Stream locate the deployment's RNG substream (rng.Sub(Seed,
	// Stream)); an HNG's level draws use Stream+1, the adjacent substream.
	Seed   uint64 `json:"seed"`
	Stream uint64 `json:"stream"`
	// Side is the deployment box side (default 30); Lambda the Poisson
	// intensity (default 16).
	Side   float64 `json:"side"`
	Lambda float64 `json:"lambda"`
	// GenSide, when positive, switches the deployment to the streamed
	// tile-generated Poisson path (pointprocess.PoissonSoA) with generation
	// tiles of this side. It is part of the snapshot identity: tile
	// boundaries decide which derived substream each point is drawn from,
	// so two GenSide values are different point sets. 0 (default) keeps
	// the serial single-stream deployment and the historical key shape.
	GenSide float64 `json:"genSide"`
	// Mode picks the UDG-SENS tile geometry: "literal", "repaired"
	// (default) or "relaxed". Ignored for HNG.
	Mode string `json:"mode"`
	// P and MaxChildren parameterize the HNG (defaults hng.DefaultSpec).
	// Ignored for UDG.
	P           float64 `json:"p"`
	MaxChildren int     `json:"maxChildren"`
	// BaseRadius, for HNG only, additionally builds the UDG base graph at
	// this radius so the snapshot can serve stretch queries; 0 (default)
	// skips it. UDG-SENS snapshots always carry their UDG base.
	BaseRadius float64 `json:"baseRadius"`
	// SlabCap bounds the snapshot's weight-slab LRU cache in entries
	// (default 8: two β values measured against sub and base).
	SlabCap int `json:"slabCap"`
}

// Admission limits of a snapshot build, checked before anything is
// allocated. MaxSnapshotPoints bounds the expected point count λ·side² and
// the generation-tile count (side/genSide)²; MaxSnapshotEdges bounds the
// expected edge count of the UDG base graph. A spec past either limit is
// refused with 413. The limits sit ~200× above the 10⁴-point serving
// snapshot and leave the 10⁶-point scale tier admissible.
const (
	MaxSnapshotPoints = 2e6
	MaxSnapshotEdges  = 5e7
)

// errTooLarge marks a spec refused by the admission limits (HTTP 413)
// rather than malformed (HTTP 400).
var errTooLarge = errors.New("snapshot too large")

// normalize applies defaults and validates the spec, including the
// admission limits.
func (sp *BuildSpec) normalize() error {
	if sp.Kind != "udg" && sp.Kind != "hng" {
		return fmt.Errorf("unknown kind %q (want udg | hng)", sp.Kind)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"side", sp.Side}, {"lambda", sp.Lambda}, {"genSide", sp.GenSide}, {"baseRadius", sp.BaseRadius}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be finite (got %v)", f.name, f.v)
		}
	}
	if sp.Side == 0 {
		sp.Side = 30
	}
	if sp.Lambda == 0 {
		sp.Lambda = 16
	}
	if sp.Side < 0 || sp.Lambda < 0 {
		return fmt.Errorf("side and lambda must be positive (side=%v, lambda=%v)", sp.Side, sp.Lambda)
	}
	if sp.GenSide < 0 {
		return fmt.Errorf("genSide must be >= 0 (got %v)", sp.GenSide)
	}
	if sp.Mode == "" {
		sp.Mode = "repaired"
	}
	udgSpec, err := udgSpecFor(sp.Mode)
	if sp.Kind == "udg" && err != nil {
		return err
	}
	if sp.P == 0 {
		sp.P = hng.DefaultSpec().P
	}
	if sp.MaxChildren == 0 {
		sp.MaxChildren = hng.DefaultSpec().MaxChildren
	}
	if sp.BaseRadius < 0 {
		return fmt.Errorf("baseRadius must be >= 0 (got %v)", sp.BaseRadius)
	}
	if sp.SlabCap < 0 {
		return fmt.Errorf("slabCap must be >= 0 (got %d)", sp.SlabCap)
	}
	if sp.SlabCap == 0 {
		sp.SlabCap = 8
	}

	area := sp.Side * sp.Side
	if pts := sp.Lambda * area; pts > MaxSnapshotPoints {
		return fmt.Errorf("%w: expected %.3g points (λ·side²) exceeds %g", errTooLarge, pts, float64(MaxSnapshotPoints))
	}
	if sp.GenSide > 0 {
		if tiles := area / (sp.GenSide * sp.GenSide); tiles > MaxSnapshotPoints {
			return fmt.Errorf("%w: %.3g generation tiles ((side/genSide)²) exceeds %g", errTooLarge, tiles, float64(MaxSnapshotPoints))
		}
	}
	radius := sp.BaseRadius
	if sp.Kind == "udg" {
		radius = udgSpec.Radius
	}
	if edges := rgg.ExpectedUDGEdges(sp.Lambda*area, area, radius); edges > MaxSnapshotEdges {
		return fmt.Errorf("%w: expected %.3g base edges exceeds %g", errTooLarge, edges, float64(MaxSnapshotEdges))
	}
	return nil
}

// udgSpecFor maps a geometry mode name to its tile spec.
func udgSpecFor(mode string) (tiling.UDGSpec, error) {
	switch mode {
	case "literal":
		return tiling.PaperUDGSpec(), nil
	case "repaired":
		return tiling.DefaultUDGSpec(), nil
	case "relaxed":
		return tiling.RelaxedUDGSpec(), nil
	}
	return tiling.UDGSpec{}, fmt.Errorf("unknown mode %q (want literal | repaired | relaxed)", mode)
}

// Key returns the snapshot's content-shaped identity: the scenario engine's
// cache key for the same deployment and structure (scenario.PoissonKey or
// PoissonSoAKey extended by UDGNetKey or HNGKey), a pure function of
// everything the build consumes. The spec must be normalized; Build
// guarantees that.
func (sp *BuildSpec) Key() string {
	box := geom.Box(sp.Side, sp.Side)
	seed := rng.Seed(sp.Seed)
	dep := scenario.PoissonKey(seed, sp.Stream, box, sp.Lambda)
	if sp.GenSide > 0 {
		// The streamed deployment is a different point process realization:
		// genSide joins the key.
		dep = scenario.PoissonSoAKey(seed, sp.Stream, box, sp.Lambda, sp.GenSide)
	}
	switch sp.Kind {
	case "udg":
		spec, _ := udgSpecFor(sp.Mode)
		return scenario.UDGNetKey(dep, spec, scenario.NetOptions{})
	default:
		key := scenario.HNGKey(dep, hng.Spec{P: sp.P, MaxChildren: sp.MaxChildren}, sp.Stream+1)
		if sp.BaseRadius > 0 {
			key += fmt.Sprintf("|base=udg|r=%v", sp.BaseRadius)
		}
		return key
	}
}

// Build constructs the immutable snapshot the spec describes: the Poisson
// deployment from the spec's substream, then the UDG-SENS network via the
// tile-sharded construction (core.BuildUDG, base included)
// or the hierarchical neighbor graph (hng.Build, optional UDG base). The
// result is deterministic — a pure function of the normalized spec — which
// is what makes the content-shaped key an identity.
func Build(sp BuildSpec) (*Snapshot, error) {
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	box := geom.Box(sp.Side, sp.Side)
	var pts []geom.Point
	if sp.GenSide > 0 {
		// Streamed tile-generated deployment: the SoA seed is derived from
		// (seed, stream) so per-tile substreams cannot collide with scenario
		// stream numbers of the same seed.
		pts = pointprocess.PoissonSoA(box, sp.Lambda, rng.Derive(rng.Seed(sp.Seed), sp.Stream), sp.GenSide).Points(nil)
	} else {
		pts = pointprocess.Poisson(box, sp.Lambda, rng.Sub(rng.Seed(sp.Seed), sp.Stream))
	}

	s := &Snapshot{Pts: pts, slabs: power.NewSlabCacheLRU(sp.SlabCap)}
	key := sp.Key()
	s.Info = SnapshotInfo{ID: snapshotID(key), Key: key, Points: len(pts)}

	switch sp.Kind {
	case "udg":
		spec, _ := udgSpecFor(sp.Mode)
		net, err := core.BuildUDG(pts, box, spec, core.Options{})
		if err != nil {
			return nil, err
		}
		s.Graph = net.Graph
		if net.Base != nil {
			s.Base = net.Base.CSR
		}
		s.Members = net.Members
		s.Info.Kind = "udg-sens"
		s.Info.GoodFraction = net.GoodFraction()
	default:
		spec := hng.Spec{P: sp.P, MaxChildren: sp.MaxChildren}
		g, err := hng.Build(pts, spec, rng.Sub(rng.Seed(sp.Seed), sp.Stream+1))
		if err != nil {
			return nil, err
		}
		s.Graph = g.CSR
		s.Members = g.Vertices()
		if sp.BaseRadius > 0 {
			s.Base = rgg.UDGGrid(pts, sp.BaseRadius).CSR
		}
		s.Info.Kind = "hng"
	}

	s.Info.Members = len(s.Members)
	s.Info.Edges = s.Graph.EdgeCount
	s.Info.MaxDegree = s.Graph.MaxDegree()
	if len(pts) > 0 {
		s.Info.ActiveFraction = float64(len(s.Members)) / float64(len(pts))
	}
	s.Info.HasBase = s.Base != nil
	s.Info.BuildMillis = float64(time.Since(start).Microseconds()) / 1e3
	return s, nil
}
