// Package sensnet is the public API of a reproduction of
//
//	Amitabha Bagchi, "Sparse power-efficient topologies for wireless ad hoc
//	sensor networks" (IPPS 2010, arXiv:0805.4060).
//
// The paper's insight is that a wireless ad hoc *sensor* network does not
// need every node connected: it needs a connected subnetwork that covers
// the sensed region. sensnet builds that subnetwork — UDG-SENS(2, λ) over a
// unit disk graph, or NN-SENS(2, k) over a k-nearest-neighbor graph — from
// a Poisson deployment, using only node positions and one-hop communication
// (leader elections inside geometric tile regions), and couples it to site
// percolation on Z² to obtain sparsity (max degree 4), constant stretch,
// exponential coverage guarantees and O(shortest-path) routing.
//
// # Quick start
//
//	seed := sensnet.Seed(1)
//	box := sensnet.Box(30, 30)
//	pts := sensnet.Deploy(box, 16, seed) // Poisson(λ=16) deployment
//	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(), sensnet.Options{})
//	if err != nil { ... }
//	fmt.Println(net) // tiles, members, degree, coverage
//
// Routing between tile representatives follows the percolated-mesh
// algorithm of Angel et al. (§4.2 of the paper):
//
//	res, err := sensnet.Route(net, fromTile, toTile, 0)
//
// The geometry caveat documented in DESIGN.md §2 applies: the paper's
// literal UDG relay regions are empty, so DefaultUDGSpec returns a repaired
// feasible parameterization; PaperUDGSpec preserves the literal geometry
// for the negative experiment.
//
// Everything underneath — geometry, Poisson processes, spatial indexes,
// graphs, site percolation, tile regions, elections, routing, baselines,
// statistics — is implemented from scratch on the Go standard library in
// the internal/ packages, and every quantitative claim of the paper has an
// experiment driver (internal/experiments, surfaced via RunExperiment and
// cmd/experiments). Hierarchical neighbor graphs (arXiv:0903.0742), the
// bounded-degree low-stretch structure from the same research line, are
// implemented in internal/hng as the competing topology (BuildHNG, the
// H01–H03 scenarios). README.md is the guided tour; DESIGN.md §1–§5 cover
// the architecture and reproduction decisions in depth.
//
// # Scenario engine
//
// The experiment layer is declarative: each experiment — the paper
// artifacts E01–E18 and the hierarchical-neighbor-graph comparisons
// H01–H03 — is a scenario registered in internal/scenario with a stable
// ID, a human-friendly name, tags, a parameter grid and the shared
// structures it needs. Scenarios are discovered and selected by ID, name, glob or tag
// (Scenarios, MatchScenarios, cmd/experiments -list / -run), and executed
// through a ScenarioEngine whose keyed build cache shares every expensive
// structure across the run: deployments, UDG/NN base graphs, SENS
// constructions, topology-control baselines and power.Measurer edge-weight
// slabs are each built at most once per (seed, parameters) — E13's two
// election protocols share one deployment, E14's seven structures share one
// deployment, base graph and weight slabs.
//
// Results flow as finished tables into pluggable sinks — aligned text
// tables (the historical format), CSV records, or JSONL events — and the
// engine emits tables in registration order even when scenarios execute
// concurrently (Engine.Jobs), so output is byte-identical at any
// concurrency level and any GOMAXPROCS for a fixed seed; a golden test
// pins every table against the pre-engine output.
//
//	sink := sensnet.NewJSONLSink(os.Stdout)
//	eng := sensnet.NewScenarioEngine(sink)
//	eng.Jobs = 4
//	scs, _ := sensnet.MatchScenarios("tag:power", "E0?")
//	eng.Run(sensnet.ExperimentConfig{Seed: 2026, Scale: 1}, scs)
//
// New workloads (churn models, QoS sweeps, alternative constructions)
// register the same way the built-in artifacts do — docs/scenarios.md is
// the authoring guide, including the cache-eligibility rules — and inherit
// caching, selection, concurrency and every output format for free.
//
// # Construction pipeline architecture
//
// The graph substrate is built for Monte-Carlo scale (hundreds of
// thousands of nodes per deployment) on three pieces:
//
//   - internal/graph: a flat edge-list Builder — packed (u, v) pairs
//     appended without dedup scans — frozen into CSR by a cache-blocked
//     sort (scatter into vertex blocks, radix-sort each block in cache,
//     blocks in parallel) with dedup at build time. Output is independent
//     of insertion order and worker count.
//   - internal/parallel: For/Collect primitives that shard index ranges at
//     a fixed granularity (never by worker count) and merge per-shard
//     buffers in shard index order, so every parallel producer is
//     deterministic: same seed ⇒ byte-identical CSR at any GOMAXPROCS.
//   - internal/spatial: two uniform grids. Grid enumerates cells for the
//     UDG builder; DynGrid answers every radius and k-nearest query, for
//     the static NN and HNG builds and the kinetic maintainers alike. Its
//     KNearestInto/Within query forms append into caller buffers and scan
//     cells in place — zero allocations per query at steady state, one
//     KNNScratch per worker shard.
//
// rgg.UDG, rgg.NN, the HNG build and the topo baselines (Gabriel, RNG,
// Yao, EMST) generate packed edges through parallel.Collect and hand the
// slab to graph.FromPacked, the one bulk CSR entry point; the SENS
// constructions, routing and the stretch samplers reuse
// BFS/Dijkstra/route scratch buffers across their loops.
//
// Stretch and power measurement (the E08/E11/E14 Monte-Carlo loops) runs
// on the batched engine in internal/power: a Measurer precomputes per-edge
// weight slabs (Euclidean length and d^β power, aligned with the CSR
// adjacency), groups sampled pairs by source vertex, and runs one buffered
// Dijkstra sweep per (source, weight, graph) — covering every target of
// that source — with sources fanned out across cores via
// parallel.ForGrain (grain 1: one heavyweight sweep per shard), each
// worker drawing its sweep scratch from a pool.
// A power.SlabCache memoizes the weight slabs per (graph, β), so measurers
// sharing a graph fill each slab once. Sampling randomness stays serial,
// so experiment tables are byte-identical at any GOMAXPROCS for a fixed
// seed.
//
// `make verify` is the tier-1 gate; `make baseline` / scripts/bench.sh
// regenerate BENCH_baseline.json, the checked-in performance trajectory,
// and `make bench-compare` diffs a fresh run against it before merging
// perf-sensitive changes.
package sensnet
