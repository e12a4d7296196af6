package mobility

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func deployment(n int, box geom.Rect, seed rng.Seed) []geom.Point {
	gen := rng.Sub(seed, 0)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: box.Min.X + gen.Float64()*box.Width(),
			Y: box.Min.Y + gen.Float64()*box.Height(),
		}
	}
	return pts
}

func TestSampleDeterministicAndInBounds(t *testing.T) {
	box := geom.Box(1, 1)
	init := deployment(100, box, 5)
	for _, model := range []Model{ModelWaypoint, ModelDirection} {
		spec := Spec{Model: model, Speed: 0.05, Pause: 2, Steps: 40}
		a := Sample(init, box, spec, 2026, 4400)
		b := Sample(init, box, spec, 2026, 4400)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: Sample not deterministic", model)
		}
		c := Sample(init, box, spec, 2026, 4401)
		if reflect.DeepEqual(a.Steps, c.Steps) {
			t.Fatalf("%v: different streams produced identical trajectories", model)
		}
		for step, moves := range a.Steps {
			last := int32(-1)
			for _, m := range moves {
				if m.Node <= last {
					t.Fatalf("%v step %d: nodes out of order (%d after %d)", model, step, m.Node, last)
				}
				last = m.Node
				if !box.Contains(m.To) {
					t.Fatalf("%v step %d: node %d left the box: %v", model, step, m.Node, m.To)
				}
			}
		}
		if a.TotalMoves() == 0 {
			t.Fatalf("%v: trajectory is static", model)
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	box := geom.Box(1, 1)
	init := deployment(60, box, 9)
	spec := Spec{Model: ModelWaypoint, Speed: 0.03, Pause: 1, Steps: 60}
	traj := Sample(init, box, spec, 7, 4400)
	pos := append([]geom.Point(nil), init...)
	for step, moves := range traj.Steps {
		for _, m := range moves {
			d := pos[m.Node].Dist(m.To)
			if d > spec.Speed*(1+1e-9) {
				t.Fatalf("step %d node %d moved %v > speed %v", step, m.Node, d, spec.Speed)
			}
		}
		Apply(pos, moves)
	}
}

func TestDirectionReflectsOffWalls(t *testing.T) {
	// A node starting near a wall with a large speed must stay inside via
	// reflection, not clamping-in-place (positions keep changing).
	box := geom.Box(1, 1)
	init := []geom.Point{geom.Pt(0.01, 0.5)}
	spec := Spec{Model: ModelDirection, Speed: 0.3, Pause: 0, Steps: 30}
	traj := Sample(init, box, spec, 3, 4400)
	moves := traj.TotalMoves()
	if moves != 30 {
		t.Fatalf("direction model paused unexpectedly: %d moves of 30", moves)
	}
	for _, stepMoves := range traj.Steps {
		for _, m := range stepMoves {
			if !box.Contains(m.To) {
				t.Fatalf("reflection left the box: %v", m.To)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []Spec{
		{Model: ModelWaypoint, Speed: 0, Pause: 0, Steps: 1},
		{Model: ModelWaypoint, Speed: math.NaN(), Pause: 0, Steps: 1},
		{Model: ModelWaypoint, Speed: 0.1, Pause: -1, Steps: 1},
		{Model: ModelWaypoint, Speed: 0.1, Pause: 0, Steps: -1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("DefaultSpec invalid: %v", err)
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
		ok   bool
	}{
		{"waypoint", ModelWaypoint, true},
		{"direction", ModelDirection, true},
		{"teleport", 0, false},
		{"", 0, false},
	} {
		got, err := ParseModel(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseModel(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ModelWaypoint.String() != "waypoint" || ModelDirection.String() != "direction" {
		t.Error("Model.String mismatch")
	}
}

// Apply replays step moves onto a position slice — the reference the
// trajectory tests check every step against.
func Apply(pts []geom.Point, step []Move) {
	for _, m := range step {
		pts[m.Node] = m.To
	}
}
