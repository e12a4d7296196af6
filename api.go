package sensnet

import (
	"io"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hng"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/tiling"
	"repro/internal/topo"
)

// Core geometric types.
type (
	// Point is a point in R².
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Box returns the deployment rectangle [0, w] × [0, h].
func Box(w, h float64) Rect { return geom.Box(w, h) }

// Seed identifies a reproducible random stream.
type Seed = rng.Seed

// NewRand returns a deterministic generator for the seed — the type the
// measurement methods (Network.SampleRepStretch, EmptyBoxProbability)
// expect.
func NewRand(seed Seed) *rand.Rand { return rng.New(seed) }

// Deploy samples a Poisson(λ) deployment on box — the node placement model
// of the paper.
func Deploy(box Rect, lambda float64, seed Seed) []Point {
	return pointprocess.Poisson(box, lambda, rng.New(seed))
}

// DeployN places exactly n uniform nodes on box (the binomial process).
func DeployN(box Rect, n int, seed Seed) []Point {
	return pointprocess.Binomial(box, n, rng.New(seed))
}

// SoA is a struct-of-arrays point set (separate X/Y coordinate slabs) — the
// compact deployment representation of the million-node scale tier. Convert
// to the interleaved form once with SoA.Points when a builder needs []Point.
type SoA = geom.SoA

// DeploySoA samples a Poisson(λ) deployment on box straight into
// struct-of-arrays slabs, generated tile by tile (square generation tiles of
// side genSide; ≤ 0 means one tile) from per-tile RNG substreams: exact-size
// allocation, parallel fill, identical output at any GOMAXPROCS. This is
// the scale-tier form of Deploy — at 10⁶ points it avoids the append-growth
// copies and serial RNG stream of the slice path.
func DeploySoA(box Rect, lambda float64, seed Seed, genSide float64) SoA {
	return pointprocess.PoissonSoA(box, lambda, seed, genSide)
}

// DeployStream samples the same deployment as DeploySoA but hands each
// generation tile's points to emit instead of retaining them — constant
// memory for consumers that reduce tiles on the fly. The emitted coordinate
// slices are reused between calls; copy what you keep. Concatenating the
// emissions in call order reproduces DeploySoA exactly. Returns the total
// point count.
func DeployStream(box Rect, lambda float64, seed Seed, genSide float64, emit func(tile Rect, xs, ys []float64)) int {
	return pointprocess.StreamPoisson(box, lambda, seed, genSide, emit)
}

// Tile geometry specifications.
type (
	// UDGSpec parameterizes the UDG-SENS tile geometry.
	UDGSpec = tiling.UDGSpec
	// NNSpec parameterizes the NN-SENS tile geometry.
	NNSpec = tiling.NNSpec
	// TileCoord identifies a tile.
	TileCoord = tiling.Coord
	// GeometryMode selects literal / repaired / relaxed regions.
	GeometryMode = tiling.GeometryMode
)

// Geometry modes (see DESIGN.md §2 for the literal-geometry caveat).
const (
	GeometryLiteral  = tiling.GeometryLiteral
	GeometryRepaired = tiling.GeometryRepaired
	GeometryRelaxed  = tiling.GeometryRelaxed
)

// DefaultUDGSpec returns the repaired feasible UDG-SENS geometry
// (a = 3/2, R0 = Re = 1/4, Xe = 1/2).
func DefaultUDGSpec() UDGSpec { return tiling.DefaultUDGSpec() }

// PaperUDGSpec returns the paper's literal §2.1 geometry (empty relay
// regions; useful only for the negative experiment).
func PaperUDGSpec() UDGSpec { return tiling.PaperUDGSpec() }

// RelaxedUDGSpec returns the operational variant with handshake-validated
// connections on the paper's original tile.
func RelaxedUDGSpec() UDGSpec { return tiling.RelaxedUDGSpec() }

// PaperNNSpec returns the paper's Theorem 2.4 parameters (k=188, a=0.893).
func PaperNNSpec() NNSpec { return tiling.PaperNNSpec() }

// Networks.
type (
	// Network is a constructed SENS subnetwork.
	Network = core.Network
	// Options tunes construction (election protocol, base graph reuse).
	Options = core.Options
	// Stats carries construction accounting.
	Stats = core.Stats
	// StretchSample is one rep-pair stretch measurement.
	StretchSample = core.StretchSample
)

// BuildUDGSens constructs UDG-SENS(2, λ) over pts. Per-tile elections and
// border-stitched relay wiring run tile-sharded across all cores once the
// deployment spans more than one shard of tiles, and the result is
// byte-identical at any GOMAXPROCS; this is also the scale-tier path for
// 10⁶-node deployments. When it builds the base graph itself it uses the
// pair-free UDGGrid enumeration.
func BuildUDGSens(pts []Point, box Rect, spec UDGSpec, opt Options) (*Network, error) {
	return core.BuildUDG(pts, box, spec, opt)
}

// BuildNNSens constructs NN-SENS(2, k) over pts.
func BuildNNSens(pts []Point, box Rect, spec NNSpec, opt Options) (*Network, error) {
	return core.BuildNN(pts, box, spec, opt)
}

// DistributedResult reports a message-passing construction run.
type DistributedResult = core.DistributedResult

// BuildUDGSensDistributed runs the Figure 7 construction as an actual
// message-passing protocol on the discrete-event simulator; the topology is
// identical to BuildUDGSens with the broadcast election protocol, and the
// message counts are measured rather than computed.
func BuildUDGSensDistributed(pts []Point, box Rect, spec UDGSpec) (*DistributedResult, error) {
	return core.BuildUDGDistributed(pts, box, spec)
}

// BuildNNSensDistributed is the NN-SENS counterpart of
// BuildUDGSensDistributed: the §2.2 construction (including the population
// census for the k/2 cap) as measured message passing.
func BuildNNSensDistributed(pts []Point, box Rect, spec NNSpec) (*DistributedResult, error) {
	return core.BuildNNDistributed(pts, box, spec)
}

// FailureReport quantifies node-failure damage and the rebuilt network.
type FailureReport = core.FailureReport

// SimulateFailures kills each node independently with probability q,
// reports the degradation of the standing network, and rebuilds from the
// survivors with the same geometry.
func SimulateFailures(n *Network, q float64, seed Seed) (*FailureReport, error) {
	return core.SimulateFailures(n, q, rng.New(seed))
}

// DeployGradient samples an inhomogeneous Poisson deployment whose
// intensity ramps linearly from lambda0 at the left edge of box to lambda1
// at the right edge.
func DeployGradient(box Rect, lambda0, lambda1 float64, seed Seed) []Point {
	g := rng.New(seed)
	grad := pointprocess.LinearGradient(box, lambda0, lambda1)
	max := lambda0
	if lambda1 > max {
		max = lambda1
	}
	return pointprocess.Inhomogeneous(box, grad, max, g)
}

// Geometric is a geometric graph (positions + CSR adjacency).
type Geometric = rgg.Geometric

// UDG builds the unit disk graph with connection radius r by the pair-free
// bucket-grid enumeration of UDGGrid.
func UDG(pts []Point, r float64) *Geometric { return rgg.UDG(pts, r) }

// NN builds the undirected k-nearest-neighbor graph.
func NN(pts []Point, k int) *Geometric { return rgg.NN(pts, k) }

// UDGGrid is UDG under its scale-tier name: pair-free bucket-grid
// enumeration, where each unordered point pair is examined at most once,
// edges stream into pre-sized per-shard buffers, and memory stays O(n + m).
func UDGGrid(pts []Point, r float64) *Geometric { return rgg.UDGGrid(pts, r) }

// UDGGridSoA is UDGGrid over a struct-of-arrays deployment (DeploySoA); the
// slabs are interleaved once and the graph is built over the result.
func UDGGridSoA(s SoA, r float64) *Geometric { return rgg.UDGGridSoA(s, r) }

// Baseline topology-control structures (§1.2 related work).
var (
	// Gabriel returns the Gabriel graph of a UDG.
	Gabriel = topo.Gabriel
	// RelativeNeighborhood returns the RNG of a UDG.
	RelativeNeighborhood = topo.RelativeNeighborhood
	// Yao returns the Yao graph of a UDG with the given cone count.
	Yao = topo.Yao
	// EMST returns the Euclidean minimum spanning forest of a UDG.
	EMST = topo.EMST
)

// Hierarchical neighbor graphs (arXiv:0903.0742) — the competing
// bounded-degree low-stretch topology from the same research line,
// reproduced in internal/hng and compared against the SENS constructions by
// the H01–H03 scenarios (tag "topology:hng").
type (
	// HNGSpec parameterizes a hierarchical neighbor graph (promotion
	// probability, bounded-degree chaining cap).
	HNGSpec = hng.Spec
	// HNGGraph is a constructed hierarchical neighbor graph: positions, CSR
	// adjacency, per-node levels and construction stats.
	HNGGraph = hng.Graph
)

// DefaultHNGSpec returns the reference HNG parameterization (p = 1/8,
// chaining cap 6) used by the H** scenarios.
func DefaultHNGSpec() HNGSpec { return hng.DefaultSpec() }

// BuildHNG constructs the hierarchical neighbor graph over pts. The seed
// drives only the level promotion draws; construction is deterministic at
// any GOMAXPROCS. The result flows through the same measurement engine as
// every other structure (its CSR works with MeasureStretch and the power
// Measurer).
func BuildHNG(pts []Point, spec HNGSpec, seed Seed) (*HNGGraph, error) {
	return hng.Build(pts, spec, rng.New(seed))
}

// Energy and network lifetime (internal/energy): per-node batteries under a
// first-order radio model, debited by the lifetime simulation; measured by
// the Q01–Q03 scenarios (tag "energy").
type (
	// EnergyModel is the radio energy model: tx = bits·(c + d^β), rx per
	// bit, idle drain per round.
	EnergyModel = energy.Model
	// Battery is one node's energy store (charge remaining, total spent).
	Battery = energy.Battery
	// LifetimeSpec configures a lifetime simulation (model, battery
	// capacity, traffic rate, rotation).
	LifetimeSpec = energy.Spec
	// LifetimeReport is the outcome: first death, coverage lifetime,
	// delivery counts, alive/component/service curves, residual-energy
	// summary.
	LifetimeReport = energy.Report
)

// DefaultEnergyModel returns the reference radio parameterization.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// DefaultLifetimeSpec returns the reference lifetime configuration used by
// the Q** scenarios.
func DefaultLifetimeSpec() LifetimeSpec { return energy.DefaultSpec() }

// RepairPolicy selects how the lifetime simulation's routing forest reacts
// to node deaths (LifetimeSpec.Repair).
type RepairPolicy = energy.RepairPolicy

// Repair policies: full forest rebuild (the historical default) vs
// localized repair that re-attaches only orphaned subtrees (graceful
// degradation under attack, R02).
const (
	RepairRebuild = energy.RepairRebuild
	RepairLocal   = energy.RepairLocal
)

// LifetimeSinks returns the deterministic multi-gateway sink choice for a
// SENS network: up to four members, one nearest each quadrant centroid of
// the member bounding box.
func LifetimeSinks(n *Network) []int32 { return energy.QuadrantSinks(n.Pts, n.Members) }

// SimulateLifetime runs the round-based data-gathering lifetime simulation
// over the SENS network's members: every round each member reports
// spec.Rate packets on average toward its nearest sink, hops debit tx/rx
// energy, batteries that empty kill (or rotate) their node, and the report
// carries first-death time, coverage lifetime and the alive/component
// curves. Sinks are mains-powered. Deterministic in the seed at any
// GOMAXPROCS.
func SimulateLifetime(n *Network, sinks []int32, spec LifetimeSpec, seed Seed) (*LifetimeReport, error) {
	return energy.SimulateLifetime(n.Graph, n.Pts, n.Members, sinks, spec, rng.New(seed))
}

// SimulateHNGLifetime is SimulateLifetime over a hierarchical neighbor
// graph, whose every node is active (and battery-powered unless listed in
// sinks).
func SimulateHNGLifetime(h *HNGGraph, sinks []int32, spec LifetimeSpec, seed Seed) (*LifetimeReport, error) {
	return energy.SimulateLifetime(h.CSR, h.Pos, h.Vertices(), sinks, spec, rng.New(seed))
}

// Fault injection: deterministic crash/loss/attack schedules applied to
// the structures above; measured by the R01–R03 scenarios (tag
// "robustness"). Schedules are pure data — build once, reuse across runs.
type (
	// FaultSchedule is a deterministic fault plan: crash-stop events at
	// round boundaries, a baseline per-hop loss probability, and burst
	// windows of elevated loss.
	FaultSchedule = fault.Schedule
	// FaultEvent is one crash-stop failure (round, node).
	FaultEvent = fault.Event
	// LossWindow is a burst of elevated loss over a round interval.
	LossWindow = fault.Window
	// VictimSelector picks the attack victim ordering (random failure vs
	// targeted attack).
	VictimSelector = fault.Selector
)

// Victim selectors: uniform random failure, and the two classic targeted
// attacks — by descending degree and by descending betweenness centrality.
const (
	SelectRandom      = fault.SelectRandom
	SelectDegree      = fault.SelectDegree
	SelectBetweenness = fault.SelectBetweenness
)

// NetworkVictims orders the network's members as attack victims under the
// selector: a uniform shuffle for SelectRandom (driven by seed), descending
// degree / betweenness (ties by ascending id, seed unused) for the targeted
// attacks. Feed the prefix to CrashSchedule.
func NetworkVictims(n *Network, sel VictimSelector, seed Seed) []int32 {
	return fault.Victims(n.Graph, n.Members, sel, rng.New(seed))
}

// CrashSchedule turns a victim ordering into a crash schedule killing the
// first frac of the victims from round start on, perRound at a time
// (perRound ≤ 0: all at once at start). Compose loss on the result with
// WithLoss / WithBurst.
func CrashSchedule(victims []int32, frac float64, start, perRound int) *FaultSchedule {
	return fault.CrashSchedule(victims, frac, start, perRound)
}

// RouteResult reports a SENS routing attempt.
type RouteResult = routing.SensResult

// Route routes a packet between the representatives of two good tiles using
// the percolated-mesh algorithm of §4.2 (probeBudget ≤ 0 = unlimited).
func Route(n *Network, from, to TileCoord, probeBudget int) (RouteResult, error) {
	return routing.RouteOnSens(n, from, to, probeBudget)
}

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// ExperimentConfig tunes experiment runs (seed + scale).
type ExperimentConfig = experiments.Config

// RunExperiment runs the experiment with the given ID ("E01".."E18", an
// HNG scenario "H01".."H03", or an energy/lifetime scenario "Q01".."Q03");
// returns nil for unknown IDs. The run executes
// against fresh caches; to share structures across several experiments use
// NewScenarioEngine.
func RunExperiment(id string, cfg ExperimentConfig) *ExperimentTable {
	for _, s := range scenario.All() {
		if s.ID == id {
			return s.Run(scenario.NewCtx(cfg))
		}
	}
	return nil
}

// ExperimentIDs lists the available experiment IDs in order.
func ExperimentIDs() []string {
	all := scenario.All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.ID
	}
	return out
}

// Scenario registry and engine surface: every experiment is a registered
// scenario (name, tags, parameter grid, required structures) executed
// through a keyed build cache that shares deployments, base graphs, SENS
// structures, baselines and measurement weight slabs across scenarios.
type (
	// Scenario is a registered experiment with discovery metadata.
	Scenario = scenario.Scenario
	// ScenarioParam is one axis of a scenario's declarative parameter grid.
	ScenarioParam = scenario.Param
	// ScenarioEngine executes scenarios through shared caches into a sink.
	ScenarioEngine = scenario.Engine
	// ResultSink receives each finished table of an engine run, in
	// registration order, with the scenario's wall time:
	// Table(t *ExperimentTable, elapsed time.Duration) error.
	ResultSink = scenario.Sink
)

// Scenarios lists every registered scenario in registration order.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioTags lists all registered scenario tags, sorted.
func ScenarioTags() []string { return scenario.Tags() }

// MatchScenarios selects scenarios by ID, name, glob ("E0?", "ablation-*")
// or tag ("tag:power"), in registration order; a pattern that selects
// nothing is an error.
func MatchScenarios(patterns ...string) ([]Scenario, error) {
	return scenario.Match(patterns)
}

// NewScenarioEngine returns an engine with fresh shared caches writing to
// sink (which may be nil to collect tables only). Set Jobs to run several
// scenarios concurrently — emission order and bytes stay identical.
func NewScenarioEngine(sink ResultSink) *ScenarioEngine { return scenario.NewEngine(sink) }

// NewTextSink renders tables as aligned monospace text.
func NewTextSink(w io.Writer) ResultSink { return scenario.NewTextSink(w) }

// NewCSVSink writes rows as CSV records prefixed with the scenario ID.
func NewCSVSink(w io.Writer) ResultSink { return scenario.NewCSVSink(w) }

// NewJSONLSink writes one JSON event per table, row and note, then a
// "done" event with the scenario's wall time.
func NewJSONLSink(w io.Writer) ResultSink { return scenario.NewJSONLSink(w) }
