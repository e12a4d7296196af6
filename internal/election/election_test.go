package election

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// tournament runs one knockout election on a fresh scratch.
func tournament(ids []int32) Result {
	var s Scratch
	return s.Tournament(ids)
}

func TestEmptyCandidates(t *testing.T) {
	if r := Broadcast(nil); r.Leader != -1 || r.Messages != 0 {
		t.Errorf("Broadcast(nil) = %+v", r)
	}
	if r := tournament(nil); r.Leader != -1 || r.Messages != 0 {
		t.Errorf("tournament(nil) = %+v", r)
	}
}

func TestSingleton(t *testing.T) {
	if r := Broadcast([]int32{7}); r.Leader != 7 || r.Messages != 0 || r.Rounds != 0 {
		t.Errorf("Broadcast singleton = %+v", r)
	}
	if r := tournament([]int32{7}); r.Leader != 7 || r.Messages != 0 || r.Rounds != 0 {
		t.Errorf("Tournament singleton = %+v", r)
	}
}

func TestBothElectMaximum(t *testing.T) {
	ids := []int32{5, 9, 3, 9, 1, 12, 0}
	if r := Broadcast(ids); r.Leader != 12 {
		t.Errorf("Broadcast leader = %d", r.Leader)
	}
	if r := tournament(ids); r.Leader != 12 {
		t.Errorf("Tournament leader = %d", r.Leader)
	}
}

func TestMessageAndRoundCounts(t *testing.T) {
	ids := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	b := Broadcast(ids)
	if b.Messages != 8*7 || b.Rounds != 1 {
		t.Errorf("Broadcast cost = %+v", b)
	}
	tr := tournament(ids)
	// 8 → 4 → 2 → 1: rounds 3, messages 2·(4+2+1) = 14 = 2(n−1).
	if tr.Rounds != 3 || tr.Messages != 14 {
		t.Errorf("Tournament cost = %+v", tr)
	}
	// Odd count with byes: 5 → 3 → 2 → 1.
	tr5 := tournament([]int32{1, 2, 3, 4, 5})
	if tr5.Rounds != 3 || tr5.Messages != 2*(2+1+1) {
		t.Errorf("tournament(5) cost = %+v", tr5)
	}
}

func TestTournamentLinearMessages(t *testing.T) {
	g := rng.New(1)
	for _, n := range []int{2, 10, 100, 1000} {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(g.IntN(1 << 20))
		}
		r := tournament(ids)
		if r.Messages > 2*(n-1) {
			t.Errorf("n=%d: Tournament messages %d > 2(n−1)", n, r.Messages)
		}
	}
}

func TestAgreementProperty(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		return Broadcast(raw).Leader == tournament(raw).Leader
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestElectDispatch(t *testing.T) {
	ids := []int32{3, 1, 2}
	var s Scratch
	if r := s.Elect(AlgorithmBroadcast, ids); r.Leader != 3 || r.Messages != 6 {
		t.Errorf("Elect broadcast = %+v", r)
	}
	if r := s.Elect(AlgorithmTournament, ids); r.Leader != 3 || r.Messages != 4 {
		t.Errorf("Elect tournament = %+v", r)
	}
}

// TestScratchTournamentMatchesPackageLevel: a scratch reused across
// elections answers exactly like a fresh one.
func TestScratchTournamentMatchesPackageLevel(t *testing.T) {
	var s Scratch
	f := func(raw []int32) bool {
		a := tournament(raw)
		b := s.Tournament(raw)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if r := s.Elect(AlgorithmBroadcast, []int32{3, 1, 2}); r.Leader != 3 || r.Messages != 6 {
		t.Errorf("Scratch.Elect broadcast = %+v", r)
	}
}

// TestScratchTournamentZeroAllocs is the regression gate for the ~3% of the
// UDG-SENS profile the per-region candidate copy used to cost: once the
// scratch buffer has grown to the largest region, repeated elections
// allocate nothing.
func TestScratchTournamentZeroAllocs(t *testing.T) {
	g := rng.New(5)
	ids := make([]int32, 200)
	for i := range ids {
		ids[i] = int32(g.IntN(1 << 20))
	}
	var s Scratch
	s.Tournament(ids) // grow the buffer once
	if a := testing.AllocsPerRun(200, func() {
		if s.Tournament(ids).Leader < 0 {
			t.Error("no leader")
		}
	}); a != 0 {
		t.Errorf("scratch Tournament allocates %.2f/op, want 0", a)
	}
}
