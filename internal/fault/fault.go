// Package fault builds deterministic fault schedules: pure-data plans of
// crash-stop node failures at round boundaries, per-link Bernoulli message
// loss, burst/partition loss windows, and targeted attacks (highest-degree
// and highest-betweenness victim selection) — the adversarial workload the
// scale-free WSN literature (arXiv:1405.3368) uses to discriminate
// topologies by their random-failure vs targeted-attack decay curves.
//
// A schedule is data, not behavior: the layer that *applies* one (the
// lifetime simulation in internal/energy) draws its own per-run
// randomness; the schedule itself is fully determined by its inputs. Builders that need
// randomness (random victim orders) consume their RNG substream entirely,
// so schedules satisfy the scenario cache's correctness rule and are
// cache-eligible — simulations applying them never are.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/graph"
)

// Event is one crash-stop failure: Node permanently stops at the boundary
// entering Round (1-based). Crash-stop is the classical model — the node
// sends nothing afterwards, and messages addressed to it are dropped with
// the sender's transmit energy already spent.
type Event struct {
	// Round is the 1-based round whose boundary the crash happens at.
	Round int
	// Node is the crashed vertex.
	Node int32
}

// Window is a burst/partition loss episode: during rounds From..To
// (inclusive) every link additionally loses messages with probability Rate.
// Overlapping windows and the schedule's base rate compose as independent
// loss sources.
type Window struct {
	// From and To bound the episode in rounds, inclusive.
	From, To int
	// Rate is the additional per-message loss probability inside the window.
	Rate float64
}

// Schedule is a composed fault plan: crash-stop failures, a base per-link
// Bernoulli message-loss rate, and burst loss windows. The zero value is
// the no-fault schedule. Schedules are immutable by convention — the
// With* helpers copy — so a cached schedule can be shared across scenario
// rows.
type Schedule struct {
	// Crashes lists the crash-stop failures, sorted by (Round, Node).
	Crashes []Event
	// Loss is the base per-link Bernoulli message-loss probability applied
	// every round.
	Loss float64
	// Bursts are additional loss windows composed on top of Loss.
	Bursts []Window
}

// Validate checks the schedule's invariants: probabilities in [0, 1),
// rounds ≥ 1, windows well-formed, crashes sorted.
func (s *Schedule) Validate() error {
	if s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("fault: base loss %v outside [0, 1)", s.Loss)
	}
	for i, w := range s.Bursts {
		if w.Rate < 0 || w.Rate >= 1 {
			return fmt.Errorf("fault: burst %d rate %v outside [0, 1)", i, w.Rate)
		}
		if w.From < 1 || w.To < w.From {
			return fmt.Errorf("fault: burst %d window [%d, %d] malformed", i, w.From, w.To)
		}
	}
	for i, e := range s.Crashes {
		if e.Round < 1 {
			return fmt.Errorf("fault: crash %d at round %d < 1", i, e.Round)
		}
		if i > 0 {
			p := s.Crashes[i-1]
			if e.Round < p.Round || (e.Round == p.Round && e.Node < p.Node) {
				return errors.New("fault: crashes not sorted by (round, node)")
			}
		}
	}
	return nil
}

// LossAt returns the effective per-link loss probability during the given
// round: the base rate and every active burst window compose as
// independent loss sources, 1 − Π(1 − rate).
func (s *Schedule) LossAt(round int) float64 {
	keep := 1 - s.Loss
	for _, w := range s.Bursts {
		if round >= w.From && round <= w.To {
			keep *= 1 - w.Rate
		}
	}
	return 1 - keep
}

// MaxRound returns the last round any crash or burst is scheduled for
// (0 for a loss-only or empty schedule).
func (s *Schedule) MaxRound() int {
	m := 0
	if n := len(s.Crashes); n > 0 {
		m = s.Crashes[n-1].Round
	}
	for _, w := range s.Bursts {
		if w.To > m {
			m = w.To
		}
	}
	return m
}

// AliveSet returns the alive mask over n vertices after every crash
// scheduled at rounds ≤ round has been applied. Under a crash-only
// schedule the alive count is monotone non-increasing in round — the
// invariant the fuzz target pins.
func (s *Schedule) AliveSet(n, round int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, e := range s.Crashes {
		if e.Round > round {
			break
		}
		if int(e.Node) < n {
			alive[e.Node] = false
		}
	}
	return alive
}

// CrashedBy counts the crashes scheduled at rounds ≤ round.
func (s *Schedule) CrashedBy(round int) int {
	n := 0
	for _, e := range s.Crashes {
		if e.Round > round {
			break
		}
		n++
	}
	return n
}

// WithLoss returns a copy of the schedule with the base loss rate set.
func (s *Schedule) WithLoss(rate float64) *Schedule {
	c := *s
	c.Loss = rate
	return &c
}

// WithBurst returns a copy of the schedule with an additional burst loss
// window for rounds from..to inclusive.
func (s *Schedule) WithBurst(from, to int, rate float64) *Schedule {
	c := *s
	c.Bursts = append(append([]Window(nil), s.Bursts...), Window{From: from, To: to, Rate: rate})
	return &c
}

// sortEvents sorts crashes by (Round, Node) — the canonical order Validate
// checks and AliveSet relies on.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Round != evs[j].Round {
			return evs[i].Round < evs[j].Round
		}
		return evs[i].Node < evs[j].Node
	})
}

// Selector picks the victim-ordering policy of an attack.
type Selector int

// Victim-selection policies: uniform-random failure and the two targeted
// attacks of the scale-free robustness literature.
const (
	// SelectRandom orders victims uniformly at random (random failure).
	SelectRandom Selector = iota
	// SelectDegree orders victims by descending degree (targeted attack on
	// hubs), ties broken by ascending vertex id.
	SelectDegree
	// SelectBetweenness orders victims by descending betweenness centrality
	// (targeted attack on bridges; Brandes pass in internal/graph), ties
	// broken by ascending vertex id.
	SelectBetweenness
)

// String names the selector ("random", "degree", "betweenness").
func (s Selector) String() string {
	switch s {
	case SelectRandom:
		return "random"
	case SelectDegree:
		return "degree"
	case SelectBetweenness:
		return "betweenness"
	}
	return fmt.Sprintf("Selector(%d)", int(s))
}

// Victims orders the candidate nodes for removal under the selection
// policy: a deterministic ranking for the targeted attacks, a uniform
// shuffle for random failure. The rng is consumed entirely by SelectRandom
// (one shuffle) and untouched by the targeted selectors (their ranking is
// a pure function of the graph), so victim orders satisfy the scenario
// cache's substream rule either way; rng may be nil for targeted
// selection. The input slice is not modified.
func Victims(g *graph.CSR, nodes []int32, sel Selector, rng *rand.Rand) []int32 {
	out := append([]int32(nil), nodes...)
	switch sel {
	case SelectRandom:
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case SelectDegree:
		sort.SliceStable(out, func(i, j int) bool {
			di, dj := g.Degree(out[i]), g.Degree(out[j])
			if di != dj {
				return di > dj
			}
			return out[i] < out[j]
		})
	case SelectBetweenness:
		bc := graph.Betweenness(g)
		sort.SliceStable(out, func(i, j int) bool {
			if bc[out[i]] != bc[out[j]] {
				return bc[out[i]] > bc[out[j]]
			}
			return out[i] < out[j]
		})
	default:
		panic(fmt.Sprintf("fault: unknown selector %d", int(sel)))
	}
	return out
}

// CrashSchedule turns a victim ordering into a crash-stop schedule: the
// first ⌈frac·len(victims)⌉ victims crash, perRound per round, starting at
// the boundary entering round start. frac is clamped to [0, 1]; perRound
// ≤ 0 means all victims crash at the start round (a mass failure /
// partition event).
func CrashSchedule(victims []int32, frac float64, start, perRound int) *Schedule {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if start < 1 {
		start = 1
	}
	n := int(frac*float64(len(victims)) + 0.999999)
	if n > len(victims) {
		n = len(victims)
	}
	s := &Schedule{}
	for i := 0; i < n; i++ {
		round := start
		if perRound > 0 {
			round = start + i/perRound
		}
		s.Crashes = append(s.Crashes, Event{Round: round, Node: victims[i]})
	}
	sortEvents(s.Crashes)
	return s
}
