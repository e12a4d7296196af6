package energy

import (
	"errors"
	"math"
	"math/rand/v2"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/spatial"
	"repro/internal/stats"
)

// Spec configures a lifetime simulation.
type Spec struct {
	// Model prices every debit.
	Model Model
	// Capacity is the initial charge of every battery-powered node.
	Capacity float64
	// PacketBits is the payload size of one sensor report.
	PacketBits float64
	// Rate is the expected number of reports per source per round. The
	// integer part sends unconditionally; the fractional part is a Bernoulli
	// draw, so Rate 0.5 means each source reports every other round on
	// average and Rate 2 means two reports every round.
	Rate float64
	// MaxRounds caps the simulation (≤ 0 means 4096).
	MaxRounds int
	// CoverageTarget is the served-fraction level defining CoverageLifetime
	// (≤ 0 means 0.5): a round counts as covered while at least this
	// fraction of the original sources is alive with a live route to a sink.
	CoverageTarget float64
	// Rotation enables member rotation, the paper's expendable-members
	// story: when a role's battery empties and it has spares left, a
	// co-located standby node with a fresh battery takes the role over
	// instead of the role dying.
	Rotation bool
	// Spares gives each node's standby pool size (indexed like the position
	// slice); nil means no spares anywhere. Only consulted when Rotation is
	// set.
	Spares []int
	// Faults, when non-nil, injects the fault schedule: crash-stop failures
	// are applied at the round boundary entering their scheduled round,
	// before traffic, and every forwarding hop is additionally lost with the
	// schedule's per-round loss rate (tx energy spent, rx not — the simnet
	// drop-accounting contract). A nil schedule changes nothing, draws
	// nothing from the generator, and keeps results bit-identical.
	Faults *fault.Schedule
	// Repair selects how routes are fixed after deaths (battery or crash);
	// the zero value is the historical full rebuild.
	Repair RepairPolicy
}

// RepairPolicy selects how the uplink forest is fixed after the alive set
// shrinks.
type RepairPolicy int

const (
	// RepairRebuild recomputes every route with a full multi-source BFS from
	// the alive sinks — globally hop-optimal, the historical behavior and
	// the default.
	RepairRebuild RepairPolicy = iota
	// RepairLocal patches only the broken region — graceful degradation:
	// nodes whose uplink chain still reaches an alive sink keep their
	// routes untouched; each orphaned node re-attaches by a fresh radio
	// link to the geometrically nearest intact node (found through the
	// kinetic spatial index, distance ties broken by index), and orphans
	// stay routeless only when no intact node is left at all. Routes may
	// drift off hop-optimal and attachment links can exceed the original
	// edge lengths, which is the price of locality the R02 scenario
	// quantifies through the energy model's d^β tx pricing.
	RepairLocal
)

// DefaultSpec returns the reference lifetime configuration used by the Q**
// scenarios: the default radio model, unit packets at rate 1/2, and a
// battery sized so that mid-size member graphs live for a few hundred
// rounds.
func DefaultSpec() Spec {
	return Spec{
		Model:      DefaultModel(),
		Capacity:   2000,
		PacketBits: 1,
		Rate:       0.5,
		MaxRounds:  2000,
	}
}

// Report is the outcome of a lifetime simulation. Curves are indexed by
// round (starting at round 1) and truncated at Rounds.
type Report struct {
	// Rounds is the number of simulated rounds.
	Rounds int
	// FirstDeath is the round of the first permanent role death (time to
	// first death, the classical lifetime metric), or −1 if nothing died.
	FirstDeath int
	// CoverageLifetime counts the rounds before the served fraction first
	// fell below the coverage target — the QoS lifetime.
	CoverageLifetime int
	// Attempted, Delivered and Dropped count report packets over the whole
	// run; Dropped are reports by sources with no live route to any sink.
	Attempted, Delivered, Dropped int
	// Lost counts report packets eaten in flight by the fault schedule's
	// message loss (attempted, not delivered, tx spent on the lossy hop).
	Lost int
	// Crashed counts nodes killed by the fault schedule's crash-stop events
	// (battery deaths are not included).
	Crashed int
	// Rotations counts spare take-overs (0 unless Spec.Rotation).
	Rotations int
	// Alive holds the per-round fraction of battery-powered roles still
	// alive.
	Alive []float64
	// Largest holds the per-round largest-surviving-component fraction over
	// all participants.
	Largest []float64
	// Served holds the per-round fraction of original sources alive with a
	// route to a sink.
	Served []float64
	// ResidualMean, ResidualMin and ResidualSpread summarize the residual
	// energy fraction of every role at the end of the run (spares included:
	// a role's budget is (1+spares)·Capacity under rotation). Spread is the
	// population standard deviation — the evenness-of-consumption metric.
	ResidualMean, ResidualMin, ResidualSpread float64
	// SpreadAtFirstDeath is the residual spread captured the round the first
	// role died (NaN if nothing died): low spread means consumption was
	// distributed evenly up to the first loss.
	SpreadAtFirstDeath float64
	// ResidualJain is Jain's fairness index over the end-of-run residual
	// energy fractions: 1 means perfectly even consumption.
	ResidualJain float64
	// TotalSpent is the total energy demanded of all batteries.
	TotalSpent float64
}

// AliveAtEnd returns the final alive fraction (1 if no rounds ran).
func (r *Report) AliveAtEnd() float64 {
	if len(r.Alive) == 0 {
		return 1
	}
	return r.Alive[len(r.Alive)-1]
}

// LargestAtEnd returns the final largest-component fraction (1 if no rounds
// ran).
func (r *Report) LargestAtEnd() float64 {
	if len(r.Largest) == 0 {
		return 1
	}
	return r.Largest[len(r.Largest)-1]
}

// DeliveryRatio returns Delivered / Attempted (1 if nothing was attempted).
func (r *Report) DeliveryRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Attempted)
}

// SimulateLifetime runs the round-based data-gathering simulation on the
// structure: every round each alive source reports Spec.Rate packets on
// average toward its nearest sink along hop-shortest paths, each hop
// debiting the sender's tx cost (PacketBits·(c + d^β)) and the receiver's
// rx cost; every powered node pays the idle drain; batteries that empty die
// at the round boundary (or rotate in a spare), and routes are recomputed
// whenever the alive set changes. nodes lists the participating vertices
// (nil means all of g); sinks are the data collectors, modeled as
// mains-powered (no battery). The simulation is fully serial and
// deterministic in the generator: the same seed gives the same report at
// any GOMAXPROCS.
//
// Relays that run dry mid-round keep forwarding until the round boundary —
// batteries clamp at empty and the node dies at end of round — so within a
// round the traffic pattern depends only on the alive set at the round
// start, not on the order sources are drained in.
func SimulateLifetime(g *graph.CSR, pos []geom.Point, nodes, sinks []int32,
	spec Spec, rng *rand.Rand) (*Report, error) {
	s, err := newSim(g, pos, nodes, sinks, spec)
	if err != nil {
		return nil, err
	}
	for s.step(rng) {
	}
	return s.report(), nil
}

// MobileNetwork is a live structure a lifetime simulation can drain over:
// node positions move and edges are repaired while batteries deplete.
// Implementations typically wrap an incremental maintainer (core.Kinetic or
// hng.Kinetic) replaying a mobility trajectory. The vertex count must stay
// constant across Steps; motion and repair only change positions and edges.
type MobileNetwork interface {
	// Step advances the structure to the given 1-based round and reports
	// whether anything observable changed (positions or edges). It is
	// called exactly once per round, in increasing round order.
	Step(round int) bool
	// Died informs the structure of a permanent node death — battery
	// exhaustion or crash — so subsequent repairs route around the node.
	// The structure may buffer deaths and apply them at its next Step:
	// Graph is read only after a Step that reports a change, so a repair
	// batched into that Step is indistinguishable from an eager one.
	Died(u int32)
	// Graph returns the current topology. Only consulted after a Step that
	// reported a change (and once at start).
	Graph() *graph.CSR
	// Positions returns the current node positions, valid until the next
	// Step.
	Positions() []geom.Point
}

// SimulateMobileLifetime runs the lifetime simulation over a live mobile
// structure: entering every round the network steps its trajectory and
// repairs itself, and whenever it reports a change the routing forest is
// rebuilt over the fresh edges and positions before traffic flows. Deaths
// discovered by the simulation are reported back through Died, closing the
// motion → repair → drain → death loop the M03 scenario measures. As with
// the static entry point, the run is serial and deterministic in the
// generator.
func SimulateMobileLifetime(net MobileNetwork, nodes, sinks []int32,
	spec Spec, rng *rand.Rand) (*Report, error) {
	s, err := newSim(net.Graph(), net.Positions(), nodes, sinks, spec)
	if err != nil {
		return nil, err
	}
	s.mobile = net
	for s.step(rng) {
	}
	return s.report(), nil
}

// sim is the preallocated simulation state: after newSim, rounds in which
// nothing dies allocate nothing (the allocation gate in lifetime_test.go
// pins this), and rounds with deaths allocate only inside the
// largest-component recount.
type sim struct {
	g     *graph.CSR
	pos   []geom.Point
	spec  Spec
	nodes []int32 // participants (sinks included)

	isSink  []bool
	powered []bool // battery-powered participant (participant and not sink)
	alive   []bool
	spares  []int32 // remaining spare take-overs per node
	bats    []Battery

	// Routing state: per-node uplink toward the nearest alive sink.
	next     []int32   // parent toward sink; −1 = no route
	nextCost []float64 // tx cost of one PacketBits packet along the uplink
	queue    []int32
	dirty    bool // alive set changed since the last route build

	// Fault state: cursor into the schedule's sorted crashes, counters, and
	// the local-repair scratch (allocated on first repair).
	crashCursor  int
	crashed      int
	lost         int
	routesBuilt  bool
	repairStatus []int8 // 0 unknown, 1 chain intact, 2 chain broken
	repairWalk   []int32

	// Mobility state: the live structure (nil for static runs), the kinetic
	// index local repair re-attaches through, and staleness flags. The grid
	// is built on first local repair and kept in sync with deaths; motion
	// invalidates it wholesale (motionDirty also forces the next route fix
	// to be a full rebuild — every link length changed, so there is nothing
	// local to preserve).
	mobile      MobileNetwork
	grid        *spatial.DynGrid
	knn         spatial.KNNScratch
	gridStale   bool
	motionDirty bool

	nPowered    int // battery-powered roles
	nAlive      int // alive battery-powered roles
	largestFrac float64

	round                         int
	firstDeath                    int
	rotations                     int
	attempted, delivered, dropped int
	spreadAtFirstDeath            float64

	aliveCurve, largestCurve, servedCurve []float64

	rxCost   float64
	maxHops  int
	coverage float64 // target
	ended    bool
}

func newSim(g *graph.CSR, pos []geom.Point, nodes, sinks []int32, spec Spec) (*sim, error) {
	if g.N != len(pos) {
		return nil, errors.New("energy: graph and position counts differ")
	}
	if len(sinks) == 0 {
		return nil, errors.New("energy: need at least one sink")
	}
	if spec.Capacity <= 0 {
		return nil, errors.New("energy: battery capacity must be positive")
	}
	if spec.PacketBits <= 0 {
		return nil, errors.New("energy: packet size must be positive")
	}
	if spec.Rate < 0 {
		return nil, errors.New("energy: negative report rate")
	}
	if spec.MaxRounds <= 0 {
		spec.MaxRounds = 4096
	}
	if spec.CoverageTarget <= 0 {
		spec.CoverageTarget = 0.5
	}
	if nodes == nil {
		nodes = make([]int32, g.N)
		for i := range nodes {
			nodes[i] = int32(i)
		}
	}
	s := &sim{
		g: g, pos: pos, spec: spec, nodes: nodes,
		isSink:             make([]bool, g.N),
		powered:            make([]bool, g.N),
		alive:              make([]bool, g.N),
		spares:             make([]int32, g.N),
		bats:               make([]Battery, g.N),
		next:               make([]int32, g.N),
		nextCost:           make([]float64, g.N),
		firstDeath:         -1,
		spreadAtFirstDeath: math.NaN(),
		rxCost:             spec.Model.RxCost(spec.PacketBits),
		maxHops:            g.N + 1,
		coverage:           spec.CoverageTarget,
	}
	inNodes := make([]bool, g.N)
	for _, v := range nodes {
		inNodes[v] = true
	}
	for _, v := range sinks {
		if v < 0 || int(v) >= g.N || !inNodes[v] {
			return nil, errors.New("energy: sink outside the participant set")
		}
		s.isSink[v] = true
	}
	for _, v := range nodes {
		s.alive[v] = true
		if !s.isSink[v] {
			s.powered[v] = true
			s.nPowered++
			s.bats[v] = NewBattery(spec.Capacity)
			if spec.Rotation && spec.Spares != nil {
				s.spares[v] = int32(spec.Spares[v])
			}
		}
	}
	if s.nPowered == 0 {
		return nil, errors.New("energy: no battery-powered nodes to simulate")
	}
	s.nAlive = s.nPowered
	s.aliveCurve = make([]float64, 0, spec.MaxRounds)
	s.largestCurve = make([]float64, 0, spec.MaxRounds)
	s.servedCurve = make([]float64, 0, spec.MaxRounds)
	s.dirty = true
	return s, nil
}

// rebuildRoutes recomputes the uplink forest by a multi-source BFS from the
// sinks over the alive participant subgraph: next[u] is u's parent toward
// its nearest sink, nextCost[u] the precomputed tx cost of forwarding one
// packet along that edge (symmetric in the endpoints, so the parent-side
// edge scan prices the child's uplink).
func (s *sim) rebuildRoutes() {
	m := s.spec.Model
	bits := s.spec.PacketBits
	for _, v := range s.nodes {
		s.next[v] = -1
	}
	q := s.queue[:0]
	for _, v := range s.nodes {
		// A crashed sink stops collecting: only alive sinks seed the forest.
		if s.isSink[v] && s.alive[v] {
			s.next[v] = v
			q = append(q, v)
		}
	}
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range s.g.Neighbors(u) {
			if !s.alive[v] || s.next[v] >= 0 {
				continue
			}
			s.next[v] = u
			s.nextCost[v] = m.TxCost(bits, s.pos[u].Dist(s.pos[v]))
			q = append(q, v)
		}
	}
	s.queue = q
	s.dirty = false
	s.routesBuilt = true
}

// applyCrashes executes every crash-stop event scheduled at the boundary
// entering the upcoming round (s.round+1): the victim's battery state is
// irrelevant — the node simply stops. Crashes count toward FirstDeath and
// trigger the same route invalidation and component recount as battery
// deaths.
func (s *sim) applyCrashes() {
	evs := s.spec.Faults.Crashes
	killed := 0
	for s.crashCursor < len(evs) && evs[s.crashCursor].Round <= s.round+1 {
		u := evs[s.crashCursor].Node
		s.crashCursor++
		if u < 0 || int(u) >= s.g.N || !s.alive[u] {
			continue
		}
		s.alive[u] = false
		s.noteDeath(u)
		if s.powered[u] {
			s.nAlive--
		}
		s.crashed++
		killed++
	}
	if killed == 0 {
		return
	}
	s.dirty = true
	if s.firstDeath < 0 {
		s.firstDeath = s.round + 1
		s.spreadAtFirstDeath = s.residualSpread()
	}
	s.largestFrac = float64(graph.LargestComponentWhere(s.g, s.nodes,
		func(u int32) bool { return s.alive[u] })) / float64(len(s.nodes))
}

// repairRoutes is the RepairLocal alternative to rebuildRoutes: it walks
// each alive node's uplink chain once (memoized per invocation), keeps
// every route that still reaches an alive sink, orphans the rest, and
// re-attaches each orphan to the geometrically nearest intact node through
// the kinetic spatial index (distance ties broken by index — the index's
// deterministic contract). Fully deterministic: the orphan scan follows
// participant order and each attachment is a pure function of the
// positions and the intact set. Orphans stay routeless only when nothing
// intact is left. The attachment forest stays acyclic because orphans only
// ever point at already-intact nodes.
func (s *sim) repairRoutes() {
	if s.repairStatus == nil {
		s.repairStatus = make([]int8, s.g.N)
	}
	if s.grid == nil || s.gridStale {
		s.buildGrid()
	}
	status := s.repairStatus
	for _, v := range s.nodes {
		status[v] = 0
	}
	// Phase 1: classify every alive non-sink node's chain; orphan the broken.
	for _, v := range s.nodes {
		if !s.alive[v] {
			s.next[v] = -1
			continue
		}
		if s.isSink[v] {
			continue
		}
		if !s.chainIntact(v, status) {
			s.next[v] = -1
		}
	}
	m := s.spec.Model
	bits := s.spec.PacketBits
	// Phase 2: each orphan re-attaches to the nearest intact node. The
	// expanding-ring search costs O(local density), not O(intact nodes) —
	// the locality the repair policy promises.
	intact := func(w int32) bool {
		return s.alive[w] && (status[w] == 1 || s.isSink[w])
	}
	for _, v := range s.nodes {
		if !s.alive[v] || s.isSink[v] || s.next[v] >= 0 {
			continue
		}
		w := s.grid.NearestWhere(s.pos[v], &s.knn, intact)
		if w < 0 {
			continue
		}
		s.next[v] = w
		s.nextCost[v] = m.TxCost(bits, s.pos[w].Dist(s.pos[v]))
	}
	s.dirty = false
}

// buildGrid (re)indexes the current participant positions for the local
// repair's nearest-intact search. Dead and non-participant slots are
// removed up front; later deaths are pruned incrementally by noteDeath.
func (s *sim) buildGrid() {
	lo := geom.Pt(math.Inf(1), math.Inf(1))
	hi := geom.Pt(math.Inf(-1), math.Inf(-1))
	for _, v := range s.nodes {
		lo.X = math.Min(lo.X, s.pos[v].X)
		lo.Y = math.Min(lo.Y, s.pos[v].Y)
		hi.X = math.Max(hi.X, s.pos[v].X)
		hi.Y = math.Max(hi.Y, s.pos[v].Y)
	}
	side := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	cell := side / math.Sqrt(float64(len(s.nodes)))
	if cell <= 0 {
		cell = 1
	}
	s.grid = spatial.NewDynGrid(s.pos, geom.Rect{Min: lo, Max: hi}, cell)
	for i := 0; i < s.g.N; i++ {
		if !s.alive[int32(i)] {
			s.grid.Remove(int32(i))
		}
	}
	s.gridStale = false
}

// noteDeath keeps the auxiliary structures in sync with a permanent death:
// the repair index drops the slot and a live mobile structure is told to
// route around it.
func (s *sim) noteDeath(u int32) {
	if s.grid != nil {
		s.grid.Remove(u)
	}
	if s.mobile != nil {
		s.mobile.Died(u)
	}
}

// chainIntact reports whether v's uplink chain reaches an alive sink,
// memoizing the verdict for every node on the walked prefix. The forest is
// acyclic (orphans only ever attach to already-intact nodes), so the walk
// terminates.
func (s *sim) chainIntact(v int32, status []int8) bool {
	walk := s.repairWalk[:0]
	cur := v
	intact := false
	for {
		if status[cur] != 0 {
			intact = status[cur] == 1
			break
		}
		walk = append(walk, cur)
		if !s.alive[cur] {
			break
		}
		if s.isSink[cur] {
			intact = true
			break
		}
		w := s.next[cur]
		if w < 0 || !s.alive[w] {
			break
		}
		cur = w
	}
	verdict := int8(2)
	if intact {
		verdict = 1
	}
	for _, u := range walk {
		status[u] = verdict
	}
	s.repairWalk = walk
	return intact
}

// served returns the fraction of original (powered) sources currently alive
// with a route to a sink.
func (s *sim) served() float64 {
	n := 0
	for _, v := range s.nodes {
		if s.powered[v] && s.alive[v] && s.next[v] >= 0 {
			n++
		}
	}
	return float64(n) / float64(s.nPowered)
}

// step simulates one round; it returns false once the simulation is over
// (round cap, total death, or no source can reach a sink anymore).
func (s *sim) step(rng *rand.Rand) bool {
	if s.ended || s.round >= s.spec.MaxRounds {
		return false
	}
	if s.mobile != nil && s.mobile.Step(s.round+1) {
		s.g = s.mobile.Graph()
		s.pos = s.mobile.Positions()
		s.dirty = true
		s.gridStale = true
		s.motionDirty = true
	}
	if s.spec.Faults != nil {
		s.applyCrashes()
	}
	if s.dirty {
		if s.spec.Repair == RepairLocal && s.routesBuilt && !s.motionDirty {
			s.repairRoutes()
		} else {
			s.rebuildRoutes()
			s.motionDirty = false
		}
	}
	srv := s.served()
	if srv == 0 {
		// Routing-dead: no source can reach a sink; further rounds would only
		// replay the idle drain.
		s.ended = true
		return false
	}
	s.round++

	// Per-hop loss rate for this round. A nil schedule (and a zero rate)
	// draws nothing extra from the generator, keeping fault-free runs
	// bit-identical to the historical simulation.
	lossRate := 0.0
	if s.spec.Faults != nil {
		lossRate = s.spec.Faults.LossAt(s.round)
	}

	// Traffic: serial over sources in index order, all randomness from the
	// one generator — deterministic at any GOMAXPROCS.
	for _, u := range s.nodes {
		if !s.powered[u] || !s.alive[u] {
			continue
		}
		reports := int(s.spec.Rate)
		if frac := s.spec.Rate - float64(reports); frac > 0 && rng.Float64() < frac {
			reports++
		}
		for r := 0; r < reports; r++ {
			s.attempted++
			if s.next[u] < 0 {
				s.dropped++
				continue
			}
			v := u
			arrived := true
			for hops := 0; !s.isSink[v] && hops < s.maxHops; hops++ {
				w := s.next[v]
				s.bats[v].Drain(s.nextCost[v])
				if lossRate > 0 && rng.Float64() < lossRate {
					// Lost in flight: the sender's tx is spent, the receiver
					// pays nothing — the simnet drop-accounting contract.
					s.lost++
					arrived = false
					break
				}
				if s.powered[w] {
					s.bats[w].Drain(s.rxCost)
				}
				v = w
			}
			if arrived {
				s.delivered++
			}
		}
	}

	// Idle drain, then the round-boundary death/rotation scan.
	idle := s.spec.Model.Idle
	deaths := 0
	for _, u := range s.nodes {
		if !s.powered[u] || !s.alive[u] {
			continue
		}
		if idle > 0 {
			s.bats[u].Drain(idle)
		}
		if !s.bats[u].Dead() {
			continue
		}
		if s.spec.Rotation && s.spares[u] > 0 {
			// A standby neighbor with a fresh battery takes the role over.
			s.spares[u]--
			s.rotations++
			spent := s.bats[u].Spent
			s.bats[u] = NewBattery(s.spec.Capacity)
			s.bats[u].Spent = spent
			continue
		}
		s.alive[u] = false
		s.noteDeath(u)
		s.nAlive--
		deaths++
	}
	if deaths > 0 {
		s.dirty = true
		if s.firstDeath < 0 {
			s.firstDeath = s.round
			s.spreadAtFirstDeath = s.residualSpread()
		}
		s.largestFrac = float64(graph.LargestComponentWhere(s.g, s.nodes,
			func(u int32) bool { return s.alive[u] })) / float64(len(s.nodes))
	} else if s.round == 1 {
		s.largestFrac = float64(graph.LargestComponentWhere(s.g, s.nodes,
			func(u int32) bool { return s.alive[u] })) / float64(len(s.nodes))
	}

	s.aliveCurve = append(s.aliveCurve, float64(s.nAlive)/float64(s.nPowered))
	s.largestCurve = append(s.largestCurve, s.largestFrac)
	s.servedCurve = append(s.servedCurve, srv)
	if s.nAlive == 0 {
		s.ended = true
	}
	return !s.ended
}

// residual returns role u's remaining energy fraction: current charge plus
// unused spare batteries over the role's total budget.
func (s *sim) residual(u int32) float64 {
	budget := s.spec.Capacity
	if s.spec.Rotation && s.spec.Spares != nil {
		budget *= float64(1 + s.spec.Spares[u])
	}
	return (s.bats[u].Charge + float64(s.spares[u])*s.spec.Capacity) / budget
}

// residualSpread returns the population standard deviation of the residual
// fractions over all powered roles.
func (s *sim) residualSpread() float64 {
	var sum, sumsq float64
	for _, u := range s.nodes {
		if !s.powered[u] {
			continue
		}
		r := s.residual(u)
		sum += r
		sumsq += r * r
	}
	n := float64(s.nPowered)
	mean := sum / n
	v := sumsq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

func (s *sim) report() *Report {
	rep := &Report{
		Rounds:             s.round,
		FirstDeath:         s.firstDeath,
		Attempted:          s.attempted,
		Delivered:          s.delivered,
		Dropped:            s.dropped,
		Lost:               s.lost,
		Crashed:            s.crashed,
		Rotations:          s.rotations,
		Alive:              s.aliveCurve,
		Largest:            s.largestCurve,
		Served:             s.servedCurve,
		SpreadAtFirstDeath: s.spreadAtFirstDeath,
	}
	rep.CoverageLifetime = s.round
	for i, f := range s.servedCurve {
		if f < s.coverage {
			rep.CoverageLifetime = i
			break
		}
	}
	var sum float64
	min := math.Inf(1)
	residuals := make([]float64, 0, s.nPowered)
	for _, u := range s.nodes {
		if !s.powered[u] {
			continue
		}
		r := s.residual(u)
		sum += r
		if r < min {
			min = r
		}
		residuals = append(residuals, r)
	}
	rep.ResidualMean = sum / float64(s.nPowered)
	rep.ResidualMin = min
	rep.ResidualSpread = s.residualSpread()
	rep.ResidualJain = stats.JainFairness(residuals)
	for _, u := range s.nodes {
		if s.powered[u] {
			rep.TotalSpent += s.bats[u].Spent
		}
	}
	return rep
}

// UniformSpares builds the uniform spare allocation the SENS expendable-
// members story implies: total deployed nodes minus active members, divided
// evenly over the members. It returns a per-node slice (indexed 0..n-1,
// nonzero only at members) for Spec.Spares, or nil when there is nothing to
// spare.
func UniformSpares(n int, members []int32) []int {
	if len(members) == 0 || n <= len(members) {
		return nil
	}
	per := (n - len(members)) / len(members)
	if per == 0 {
		return nil
	}
	out := make([]int, n)
	for _, v := range members {
		out[v] = per
	}
	return out
}

// QuadrantSinks returns up to four distinct participants, each nearest the
// centroid of one quadrant of the participants' bounding box — the
// deterministic multi-gateway choice the Q** scenarios use. Spreading the
// gateways breaks the single-funnel energy hole a lone central sink
// creates (every packet squeezing through its ≤ 4 neighbors under the
// degree bound P1). nodes nil means all vertices.
func QuadrantSinks(pos []geom.Point, nodes []int32) []int32 {
	if nodes == nil {
		nodes = make([]int32, len(pos))
		for i := range nodes {
			nodes[i] = int32(i)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	lo := geom.Pt(math.Inf(1), math.Inf(1))
	hi := geom.Pt(math.Inf(-1), math.Inf(-1))
	for _, v := range nodes {
		lo.X = math.Min(lo.X, pos[v].X)
		lo.Y = math.Min(lo.Y, pos[v].Y)
		hi.X = math.Max(hi.X, pos[v].X)
		hi.Y = math.Max(hi.Y, pos[v].Y)
	}
	var sinks []int32
	for _, fx := range [2]float64{0.25, 0.75} {
		for _, fy := range [2]float64{0.25, 0.75} {
			c := geom.Pt(lo.X+fx*(hi.X-lo.X), lo.Y+fy*(hi.Y-lo.Y))
			best, bestD := int32(-1), math.Inf(1)
			for _, v := range nodes {
				if d := pos[v].Dist(c); d < bestD {
					best, bestD = v, d
				}
			}
			dup := false
			for _, s := range sinks {
				if s == best {
					dup = true
				}
			}
			if !dup {
				sinks = append(sinks, best)
			}
		}
	}
	return sinks
}
