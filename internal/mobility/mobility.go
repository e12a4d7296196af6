// Package mobility generates deterministic node-motion trajectories for the
// live-network scenarios: random-waypoint and random-direction models over a
// fixed deployment box.
//
// A trajectory is pure data — the full schedule of per-step position updates
// — sampled up front from per-node RNG substreams (rng.Derive of the
// trajectory stream by node index), so Sample consumes its substream
// entirely and trajectories are cache-eligible under the scenario engine's
// RNG-substream rule, exactly like fault schedules. Simulations then replay
// the schedule against a kinetic structure without touching any generator.
package mobility

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Model selects the motion law.
type Model uint8

const (
	// ModelWaypoint is random waypoint: pick a uniform target in the box,
	// travel toward it at constant speed, pause on arrival, repeat.
	ModelWaypoint Model = iota
	// ModelDirection is random direction: travel at constant speed along a
	// uniform heading for a drawn leg duration, reflecting specularly off
	// the box walls, pause between legs, redraw.
	ModelDirection
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelWaypoint:
		return "waypoint"
	case ModelDirection:
		return "direction"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel parses a model name as used by the -mobility CLI flag.
func ParseModel(s string) (Model, error) {
	switch s {
	case "waypoint":
		return ModelWaypoint, nil
	case "direction":
		return ModelDirection, nil
	}
	return 0, fmt.Errorf("unknown mobility model %q (want waypoint | direction)", s)
}

// Spec parameterizes a trajectory sample.
type Spec struct {
	Model Model
	Speed float64 // travel distance per step, in box units
	Pause int     // steps spent paused at each waypoint / between legs
	Steps int     // number of steps to sample
}

// DefaultSpec returns a gentle waypoint motion: 2% of a unit box per step,
// 3-step pauses, 50 steps.
func DefaultSpec() Spec {
	return Spec{Model: ModelWaypoint, Speed: 0.02, Pause: 3, Steps: 50}
}

// Validate checks the spec's parameter ranges.
func (s Spec) Validate() error {
	if s.Speed <= 0 || math.IsNaN(s.Speed) || math.IsInf(s.Speed, 0) {
		return fmt.Errorf("mobility: speed %v out of range (want > 0)", s.Speed)
	}
	if s.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %d", s.Pause)
	}
	if s.Steps < 0 {
		return fmt.Errorf("mobility: negative steps %d", s.Steps)
	}
	return nil
}

// Move is one node's position update within a step.
type Move struct {
	Node int32
	To   geom.Point
}

// Trajectory is a sampled motion schedule: for each step, the sparse list of
// nodes that moved (ascending by node index) with their new positions.
// Paused nodes emit nothing. A Trajectory is immutable pure data.
type Trajectory struct {
	Box   geom.Rect
	Spec  Spec
	Steps [][]Move
}

// TotalMoves returns the total number of position updates across all steps.
func (t *Trajectory) TotalMoves() int {
	n := 0
	for _, s := range t.Steps {
		n += len(s)
	}
	return n
}

// walker is the per-node motion state shared by both models.
type walker struct {
	pos    geom.Point
	target geom.Point // waypoint model
	vel    geom.Point // direction model: per-step displacement
	legs   int        // direction model: steps left on the current leg
	pause  int        // steps left paused
}

// Sample draws a trajectory for the nodes initially at init inside box.
// Node i's motion comes entirely from substream Derive(Derive(seed, stream),
// i), so the sample is independent of iteration order, reproducible, and —
// because nothing reads those substreams afterwards — cache-eligible.
func Sample(init []geom.Point, box geom.Rect, spec Spec, seed rng.Seed, stream uint64) *Trajectory {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := &Trajectory{Box: box, Spec: spec, Steps: make([][]Move, spec.Steps)}
	base := rng.Derive(seed, stream)
	// The leg-duration scale for the direction model: roughly the steps
	// needed to cross the box.
	diag := math.Hypot(box.Width(), box.Height())
	maxLeg := int(diag / spec.Speed)
	if maxLeg < 1 {
		maxLeg = 1
	}
	for i := range init {
		gen := rng.New(rng.Derive(base, uint64(i)))
		w := walker{pos: box.Clamp(init[i])}
		switch spec.Model {
		case ModelWaypoint:
			w.target = uniformPoint(box, gen)
		case ModelDirection:
			w.redraw(spec, maxLeg, gen)
		}
		for step := 0; step < spec.Steps; step++ {
			if w.pause > 0 {
				w.pause--
				continue
			}
			var moved bool
			switch spec.Model {
			case ModelWaypoint:
				moved = w.stepWaypoint(box, spec, gen)
			case ModelDirection:
				moved = w.stepDirection(box, spec, maxLeg, gen)
			}
			if moved {
				t.Steps[step] = append(t.Steps[step], Move{Node: int32(i), To: w.pos})
			}
		}
	}
	return t
}

// stepWaypoint advances one step of random-waypoint motion; reports whether
// the position changed.
func (w *walker) stepWaypoint(box geom.Rect, spec Spec, gen rngSource) bool {
	d := w.target.Sub(w.pos)
	dist := d.Norm()
	if dist <= spec.Speed {
		// Arrive exactly, pause, then pick the next waypoint.
		w.pos = w.target
		w.pause = spec.Pause
		w.target = uniformPoint(box, gen)
		return dist > 0
	}
	w.pos = w.pos.Add(d.Scale(spec.Speed / dist))
	return true
}

// stepDirection advances one step of random-direction motion with specular
// wall reflection; reports whether the position changed (always true: legs
// never have zero velocity).
func (w *walker) stepDirection(box geom.Rect, spec Spec, maxLeg int, gen rngSource) bool {
	w.pos = reflectInto(w.pos.Add(w.vel), box, &w.vel)
	w.legs--
	if w.legs <= 0 {
		w.pause = spec.Pause
		w.redraw(spec, maxLeg, gen)
	}
	return true
}

// redraw samples a fresh heading and leg duration.
func (w *walker) redraw(spec Spec, maxLeg int, gen rngSource) {
	theta := 2 * math.Pi * gen.Float64()
	s, c := math.Sincos(theta)
	w.vel = geom.Point{X: c * spec.Speed, Y: s * spec.Speed}
	w.legs = 1 + gen.IntN(maxLeg)
}

// rngSource is the subset of *rand.Rand the samplers draw from.
type rngSource interface {
	Float64() float64
	IntN(int) int
}

// uniformPoint draws a uniform point in box.
func uniformPoint(box geom.Rect, gen rngSource) geom.Point {
	return geom.Point{
		X: box.Min.X + gen.Float64()*box.Width(),
		Y: box.Min.Y + gen.Float64()*box.Height(),
	}
}

// reflectInto folds p back into box by specular reflection, flipping the
// corresponding velocity component each time a wall is crossed. Degenerate
// boxes fall back to clamping.
func reflectInto(p geom.Point, box geom.Rect, vel *geom.Point) geom.Point {
	w, h := box.Width(), box.Height()
	if w <= 0 || h <= 0 {
		return box.Clamp(p)
	}
	for p.X < box.Min.X || p.X > box.Max.X {
		if p.X < box.Min.X {
			p.X = 2*box.Min.X - p.X
		} else {
			p.X = 2*box.Max.X - p.X
		}
		vel.X = -vel.X
	}
	for p.Y < box.Min.Y || p.Y > box.Max.Y {
		if p.Y < box.Min.Y {
			p.Y = 2*box.Min.Y - p.Y
		} else {
			p.Y = 2*box.Max.Y - p.Y
		}
		vel.Y = -vel.Y
	}
	return p
}
