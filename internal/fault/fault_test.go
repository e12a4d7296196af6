package fault

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func buildCSR(n int, edges [][2]int32) *graph.CSR {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestValidate(t *testing.T) {
	good := &Schedule{
		Crashes: []Event{{Round: 1, Node: 2}, {Round: 1, Node: 5}, {Round: 3, Node: 0}},
		Loss:    0.1,
		Bursts:  []Window{{From: 2, To: 4, Rate: 0.5}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []*Schedule{
		{Loss: 1},
		{Loss: -0.1},
		{Bursts: []Window{{From: 0, To: 3, Rate: 0.1}}},
		{Bursts: []Window{{From: 5, To: 3, Rate: 0.1}}},
		{Bursts: []Window{{From: 1, To: 1, Rate: 1.5}}},
		{Crashes: []Event{{Round: 0, Node: 1}}},
		{Crashes: []Event{{Round: 3, Node: 1}, {Round: 2, Node: 0}}},
		{Crashes: []Event{{Round: 2, Node: 5}, {Round: 2, Node: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted: %+v", i, s)
		}
	}
}

func TestLossAtComposesIndependentSources(t *testing.T) {
	s := (&Schedule{Loss: 0.1}).WithBurst(5, 10, 0.5)
	if got := s.LossAt(1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("outside burst: %v, want 0.1", got)
	}
	want := 1 - 0.9*0.5 // independent composition
	if got := s.LossAt(7); math.Abs(got-want) > 1e-12 {
		t.Errorf("inside burst: %v, want %v", got, want)
	}
	// Overlapping bursts stack.
	s2 := s.WithBurst(7, 7, 0.5)
	want2 := 1 - 0.9*0.5*0.5
	if got := s2.LossAt(7); math.Abs(got-want2) > 1e-12 {
		t.Errorf("stacked bursts: %v, want %v", got, want2)
	}
}

func TestAliveSetAndCrashedBy(t *testing.T) {
	s := CrashSchedule([]int32{4, 1, 3}, 1.0, 2, 1) // one crash per round from round 2
	if got := s.MaxRound(); got != 4 {
		t.Fatalf("MaxRound = %d, want 4", got)
	}
	alive := s.AliveSet(5, 1)
	for i, a := range alive {
		if !a {
			t.Fatalf("node %d dead before any crash round", i)
		}
	}
	// Rounds 2 and 3 crash victims[0]=4 and victims[1]=1.
	alive = s.AliveSet(5, 3)
	if alive[4] || alive[1] {
		t.Fatalf("expected nodes 4 and 1 dead by round 3: %v", alive)
	}
	if !alive[3] {
		t.Fatalf("node 3 should still be alive at round 3: %v", alive)
	}
	if got := s.CrashedBy(3); got != 2 {
		t.Errorf("CrashedBy(3) = %d, want 2", got)
	}
	if got := s.CrashedBy(100); got != 3 {
		t.Errorf("CrashedBy(100) = %d, want 3", got)
	}
}

func TestCrashScheduleFracAndMass(t *testing.T) {
	victims := []int32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	s := CrashSchedule(victims, 0.3, 1, 0) // mass failure: all at round 1
	if len(s.Crashes) != 3 {
		t.Fatalf("frac 0.3 of 10 victims: %d crashes, want 3", len(s.Crashes))
	}
	for _, e := range s.Crashes {
		if e.Round != 1 {
			t.Errorf("mass failure crash at round %d, want 1", e.Round)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("built schedule invalid: %v", err)
	}
	if got := len(CrashSchedule(victims, 0, 1, 0).Crashes); got != 0 {
		t.Errorf("frac 0: %d crashes, want 0", got)
	}
	if got := len(CrashSchedule(victims, 2.0, 1, 0).Crashes); got != 10 {
		t.Errorf("frac clamped to 1: %d crashes, want 10", got)
	}
}

func TestVictimsDegree(t *testing.T) {
	// Star: center 0 has max degree, leaves tie at 1 → ascending id.
	g := buildCSR(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	got := Victims(g, []int32{3, 1, 0, 2}, SelectDegree, nil)
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degree order %v, want %v", got, want)
		}
	}
}

func TestVictimsBetweenness(t *testing.T) {
	// Barbell: 0-1-2-3-4; interior vertex 2 bridges the most pairs.
	g := buildCSR(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	got := Victims(g, []int32{0, 1, 2, 3, 4}, SelectBetweenness, nil)
	if got[0] != 2 {
		t.Fatalf("betweenness order %v, want center vertex 2 first", got)
	}
}

func TestVictimsRandomDeterministicAndNonMutating(t *testing.T) {
	g := buildCSR(6, [][2]int32{{0, 1}})
	in := []int32{0, 1, 2, 3, 4, 5}
	a := Victims(g, in, SelectRandom, rng.Sub(1, 99))
	b := Victims(g, in, SelectRandom, rng.Sub(1, 99))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same substream produced different orders: %v vs %v", a, b)
		}
	}
	for i, v := range in {
		if v != int32(i) {
			t.Fatalf("input slice mutated: %v", in)
		}
	}
}

func TestSelectorString(t *testing.T) {
	cases := map[Selector]string{SelectRandom: "random", SelectDegree: "degree", SelectBetweenness: "betweenness"}
	for sel, want := range cases {
		if got := sel.String(); got != want {
			t.Errorf("Selector(%d).String() = %q, want %q", int(sel), got, want)
		}
	}
}
