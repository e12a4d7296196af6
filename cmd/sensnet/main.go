// Command sensnet builds a SENS network over a random deployment and
// reports its structure — the quickest way to see the paper's construction
// on real numbers.
//
// Usage:
//
//	sensnet -kind udg -lambda 16 -side 30 -seed 1
//	sensnet -kind udg -mode relaxed -lambda 4 -render
//	sensnet -kind nn -k 188 -a 0.893 -tiles 5 -json
//	sensnet -kind udg -side 14 -faults crash:0.1,loss:0.05,attack:degree
//	sensnet -kind udg -side 14 -mobility model:waypoint,speed:0.05,pause:2,steps:40
//	sensnet -kind udg -scale -side 250 -lambda 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	sensnet "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/tiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams and returns the process
// exit code — the testable core of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "udg", "construction: udg | nn")
		mode    = fs.String("mode", "repaired", "UDG geometry: literal | repaired | relaxed")
		lambda  = fs.Float64("lambda", 16, "Poisson intensity (udg; nn uses λ=1)")
		side    = fs.Float64("side", 30, "deployment box side (udg)")
		k       = fs.Int("k", 188, "NN parameter k")
		a       = fs.Float64("a", 0.893, "NN tile scale a (tile side = 10a)")
		tiles   = fs.Int("tiles", 5, "NN: box side in tiles")
		seed    = fs.Uint64("seed", 1, "random seed")
		asJSON  = fs.Bool("json", false, "emit JSON summary")
		render  = fs.Bool("render", false, "render the tile map (good/bad) as ASCII")
		tilefig = fs.Bool("tilefig", false, "render the tile region layout (paper Fig. 3 / Fig. 5) and exit")
		faults  = fs.String("faults", "", "fault spec, e.g. crash:0.1,loss:0.05,attack:degree (attack: random | degree | betweenness)")
		mob     = fs.String("mobility", "", "mobility spec, e.g. model:waypoint,speed:0.05,pause:2,steps:40 (model: waypoint | direction)")
		scale   = fs.Bool("scale", false, "use the scale-tier streaming SoA deployment (udg only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sensnet: "+format+"\n", args...)
		return 1
	}

	if *tilefig {
		switch *kind {
		case "udg":
			spec, err := tiling.UDGSpecFor(*mode)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stdout, "UDG-SENS tile (%s geometry, paper Fig. 3): C=C0, r/l/t/b=relay regions\n\n", *mode)
			fmt.Fprint(stdout, tiling.RenderUDGTile(spec, 64))
		case "nn":
			spec := sensnet.NNSpec{A: *a, K: *k}
			fmt.Fprintf(stdout, "NN-SENS tile (a=%v, paper Fig. 5): C=C0, R/L/T/B=outer disks, r/l/t/b=bridges\n\n", *a)
			fmt.Fprint(stdout, tiling.RenderNNTile(spec.Compile(), 72))
		default:
			return fail("unknown -kind %q", *kind)
		}
		return 0
	}

	var (
		net *sensnet.Network
		err error
	)
	switch *kind {
	case "udg":
		spec, serr := tiling.UDGSpecFor(*mode)
		if serr != nil {
			return fail("%v", serr)
		}
		box := sensnet.Box(*side, *side)
		var pts []sensnet.Point
		if *scale {
			// Scale tier: tile-streamed SoA deployment. Its per-tile
			// substreams draw differently from Deploy, so the realization
			// differs from the default pipeline at the same seed.
			pts = sensnet.DeploySoA(box, *lambda, sensnet.Seed(*seed), scaleGenSide).Points(nil)
		} else {
			pts = sensnet.Deploy(box, *lambda, sensnet.Seed(*seed))
		}
		net, err = sensnet.BuildUDGSens(pts, box, spec, sensnet.Options{})
	case "nn":
		if *scale {
			return fail("-scale supports -kind udg only")
		}
		spec := sensnet.NNSpec{A: *a, K: *k}
		boxSide := float64(*tiles) * spec.TileSide()
		box := sensnet.Box(boxSide, boxSide)
		pts := sensnet.Deploy(box, 1, sensnet.Seed(*seed))
		net, err = sensnet.BuildNNSens(pts, box, spec, sensnet.Options{})
	default:
		return fail("unknown -kind %q", *kind)
	}
	if err != nil {
		return fail("build: %v", err)
	}

	var fsum *faultSummary
	if *faults != "" {
		fsum, err = applyFaults(net, *faults, *seed)
		if err != nil {
			return fail("%v", err)
		}
	}

	var msum *mobilitySummary
	if *mob != "" {
		msum, err = applyMobility(net, *mob, *seed)
		if err != nil {
			return fail("%v", err)
		}
	}

	if *asJSON {
		if err := emitJSON(stdout, net, fsum, msum); err != nil {
			return fail("encode: %v", err)
		}
	} else {
		emitText(stdout, net, fsum, msum)
	}
	if *render {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, renderTiles(net))
	}
	return 0
}

// faultSummary is the robustness block emitted when -faults is given: the
// parsed spec applied to the freshly built network.
type faultSummary struct {
	Attack        string  `json:"attack"`
	CrashFraction float64 `json:"crashFraction"`
	Crashed       int     `json:"crashed"`
	SurvivingLCC  float64 `json:"survivingLCC"`
	LossRate      float64 `json:"lossRate"`
}

// parseFaults parses "crash:FRAC,loss:P,attack:SEL" (any subset, any
// order; attack defaults to random).
func parseFaults(spec string) (crash, loss float64, sel sensnet.VictimSelector, err error) {
	sel = sensnet.SelectRandom
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return 0, 0, sel, fmt.Errorf("bad -faults entry %q (want key:value)", part)
		}
		switch key {
		case "crash":
			var e error
			if crash, e = strconv.ParseFloat(val, 64); e != nil || !(crash >= 0 && crash <= 1) {
				return 0, 0, sel, fmt.Errorf("bad -faults crash fraction %q (want 0..1)", val)
			}
		case "loss":
			var e error
			if loss, e = strconv.ParseFloat(val, 64); e != nil || !(loss >= 0 && loss < 1) {
				return 0, 0, sel, fmt.Errorf("bad -faults loss rate %q (want 0 ≤ p < 1)", val)
			}
		case "attack":
			switch val {
			case "random":
				sel = sensnet.SelectRandom
			case "degree":
				sel = sensnet.SelectDegree
			case "betweenness":
				sel = sensnet.SelectBetweenness
			default:
				return 0, 0, sel, fmt.Errorf("unknown -faults attack %q (want random | degree | betweenness)", val)
			}
		default:
			return 0, 0, sel, fmt.Errorf("unknown -faults key %q (want crash | loss | attack)", key)
		}
	}
	return crash, loss, sel, nil
}

// applyFaults builds the deterministic fault schedule the spec describes,
// applies the crash prefix to the network's member set, and summarizes
// what an attacked run would start from.
func applyFaults(net *sensnet.Network, spec string, seed uint64) (*faultSummary, error) {
	crash, loss, sel, err := parseFaults(spec)
	if err != nil {
		return nil, err
	}
	victims := sensnet.NetworkVictims(net, sel, sensnet.Seed(seed))
	sched := sensnet.CrashSchedule(victims, crash, 1, 0)
	if loss > 0 {
		sched = sched.WithLoss(loss)
	}
	alive := sched.AliveSet(int(net.Graph.N), 1)
	lcc := graph.LargestComponentWhere(net.Graph, net.Members,
		func(u int32) bool { return alive[u] })
	return &faultSummary{
		Attack:        sel.String(),
		CrashFraction: crash,
		Crashed:       len(sched.Crashes),
		SurvivingLCC:  float64(lcc) / float64(len(net.Members)),
		LossRate:      sched.LossAt(1),
	}, nil
}

// mobilitySummary is the motion block emitted when -mobility is given: a
// sampled trajectory replayed through the incremental maintainer, with the
// repair work it cost and the equivalence gate's verdict.
type mobilitySummary struct {
	Model             string  `json:"model"`
	Speed             float64 `json:"speed"`
	Pause             int     `json:"pause"`
	Steps             int     `json:"steps"`
	Moves             int     `json:"moves"`
	TileReelections   int     `json:"tileReelections"`
	EdgeChanges       int     `json:"edgeChanges"`
	GoodFractionStart float64 `json:"goodFractionStart"`
	GoodFractionEnd   float64 `json:"goodFractionEnd"`
	MatchesRebuild    bool    `json:"matchesRebuild"`
}

// parseMobility parses "model:M,speed:S,pause:P,steps:N" (any subset, any
// order) over the package defaults and validates the result.
func parseMobility(spec string) (mobility.Spec, error) {
	ms := mobility.DefaultSpec()
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return ms, fmt.Errorf("bad -mobility entry %q (want key:value)", part)
		}
		switch key {
		case "model":
			m, err := mobility.ParseModel(val)
			if err != nil {
				return ms, fmt.Errorf("bad -mobility model: %v", err)
			}
			ms.Model = m
		case "speed":
			var err error
			if ms.Speed, err = strconv.ParseFloat(val, 64); err != nil {
				return ms, fmt.Errorf("bad -mobility speed %q", val)
			}
		case "pause":
			var err error
			if ms.Pause, err = strconv.Atoi(val); err != nil {
				return ms, fmt.Errorf("bad -mobility pause %q", val)
			}
		case "steps":
			var err error
			if ms.Steps, err = strconv.Atoi(val); err != nil {
				return ms, fmt.Errorf("bad -mobility steps %q", val)
			}
		default:
			return ms, fmt.Errorf("unknown -mobility key %q (want model | speed | pause | steps)", key)
		}
	}
	if err := ms.Validate(); err != nil {
		return ms, fmt.Errorf("-mobility: %v", err)
	}
	return ms, nil
}

// mobilityStream is the substream the CLI's trajectory is sampled from —
// disjoint from the deployment draw on the same seed.
const mobilityStream = 9

// scaleGenSide is the generation-tile side the -scale deployment uses: a
// few hundred points per tile at the default λ=16 — fine enough to spread
// across cores, coarse enough that the per-tile substream setup is noise.
const scaleGenSide = 4.0

// applyMobility samples a trajectory for the deployment and replays it
// through the kinetic maintainer, then cross-checks the maintained
// structure against a from-scratch build at the final positions (the
// equivalence gate). Only UDG-SENS networks support incremental
// maintenance, so -kind nn combined with -mobility fails.
func applyMobility(net *sensnet.Network, spec string, seed uint64) (*mobilitySummary, error) {
	ms, err := parseMobility(spec)
	if err != nil {
		return nil, err
	}
	k, err := core.NewKinetic(net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("-mobility: %v", err)
	}
	traj := mobility.Sample(net.Pts, net.Box, ms, sensnet.Seed(seed), mobilityStream)
	for _, step := range traj.Steps {
		for _, mv := range step {
			k.Move(mv.Node, mv.To)
		}
	}
	stats := k.Stats()
	matches := false
	if ref, err := core.BuildUDG(k.Positions(), net.Box, *net.UDGSpec,
		core.Options{SkipBase: true}); err == nil {
		matches = graph.Equal(k.Materialize(), ref.Graph)
	}
	tiles := float64(net.Stats.Tiles)
	return &mobilitySummary{
		Model:             ms.Model.String(),
		Speed:             ms.Speed,
		Pause:             ms.Pause,
		Steps:             ms.Steps,
		Moves:             traj.TotalMoves(),
		TileReelections:   stats.TileRecomputes,
		EdgeChanges:       stats.EdgeChanges,
		GoodFractionStart: net.GoodFraction(),
		GoodFractionEnd:   float64(k.GoodTiles()) / tiles,
		MatchesRebuild:    matches,
	}, nil
}

type summary struct {
	Kind             string  `json:"kind"`
	Points           int     `json:"points"`
	Tiles            int     `json:"tiles"`
	GoodTiles        int     `json:"goodTiles"`
	GoodFraction     float64 `json:"goodFraction"`
	Members          int     `json:"members"`
	ActiveFraction   float64 `json:"activeFraction"`
	Edges            int     `json:"edges"`
	MaxDegree        int     `json:"maxDegree"`
	ElectionMessages int     `json:"electionMessages"`
	ElectionRounds   int     `json:"electionRounds"`
	HandshakeFails   int     `json:"handshakeFailures"`
	DegreeHistogram  []int   `json:"degreeHistogram"`

	Faults   *faultSummary    `json:"faults,omitempty"`
	Mobility *mobilitySummary `json:"mobility,omitempty"`
}

func summarize(net *sensnet.Network) summary {
	return summary{
		Kind:             net.Kind.String(),
		Points:           len(net.Pts),
		Tiles:            net.Stats.Tiles,
		GoodTiles:        net.Stats.GoodTiles,
		GoodFraction:     net.GoodFraction(),
		Members:          len(net.Members),
		ActiveFraction:   net.ActiveFraction(),
		Edges:            net.Stats.SubgraphEdges,
		MaxDegree:        net.MaxDegree(),
		ElectionMessages: net.Stats.ElectionMessages,
		ElectionRounds:   net.Stats.ElectionRounds,
		HandshakeFails:   net.Stats.HandshakeFailures,
		DegreeHistogram:  net.DegreeHistogram(),
	}
}

func emitJSON(w io.Writer, net *sensnet.Network, fsum *faultSummary, msum *mobilitySummary) error {
	s := summarize(net)
	s.Faults = fsum
	s.Mobility = msum
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func emitText(w io.Writer, net *sensnet.Network, fsum *faultSummary, msum *mobilitySummary) {
	s := summarize(net)
	fmt.Fprintf(w, "%s\n", net)
	fmt.Fprintf(w, "  deployment:        %d points\n", s.Points)
	fmt.Fprintf(w, "  tiles:             %d (%d good, %.1f%%)\n", s.Tiles, s.GoodTiles, 100*s.GoodFraction)
	fmt.Fprintf(w, "  network members:   %d (%.1f%% of deployment)\n", s.Members, 100*s.ActiveFraction)
	fmt.Fprintf(w, "  edges:             %d\n", s.Edges)
	fmt.Fprintf(w, "  max degree:        %d (P1 bound: 4)\n", s.MaxDegree)
	fmt.Fprintf(w, "  degree histogram:  %v\n", s.DegreeHistogram)
	fmt.Fprintf(w, "  election cost:     %d messages, %d rounds (P4)\n", s.ElectionMessages, s.ElectionRounds)
	if s.HandshakeFails > 0 {
		fmt.Fprintf(w, "  handshake fails:   %d (relaxed mode)\n", s.HandshakeFails)
	}
	if fsum != nil {
		fmt.Fprintf(w, "fault injection:\n")
		fmt.Fprintf(w, "  attack:            %s (crash fraction %.2f)\n", fsum.Attack, fsum.CrashFraction)
		fmt.Fprintf(w, "  crashed:           %d of %d members\n", fsum.Crashed, s.Members)
		fmt.Fprintf(w, "  surviving LCC:     %.1f%% of members\n", 100*fsum.SurvivingLCC)
		fmt.Fprintf(w, "  per-hop loss:      %.2f\n", fsum.LossRate)
	}
	if msum != nil {
		match := "yes"
		if !msum.MatchesRebuild {
			match = "NO"
		}
		fmt.Fprintf(w, "mobility:\n")
		fmt.Fprintf(w, "  model:             %s (speed %g/step, pause %d, %d steps)\n",
			msum.Model, msum.Speed, msum.Pause, msum.Steps)
		fmt.Fprintf(w, "  moves applied:     %d\n", msum.Moves)
		fmt.Fprintf(w, "  tile re-elections: %d (full rebuild re-elects %d per step)\n",
			msum.TileReelections, net.Stats.Tiles)
		fmt.Fprintf(w, "  edge changes:      %d\n", msum.EdgeChanges)
		fmt.Fprintf(w, "  good tiles:        %.1f%% -> %.1f%%\n",
			100*msum.GoodFractionStart, 100*msum.GoodFractionEnd)
		fmt.Fprintf(w, "  matches rebuild:   %s\n", match)
	}
}

// renderTiles draws the mapped tile window: '#' good tile, '.' bad tile —
// the percolation configuration of the paper's Figure 2.
func renderTiles(net *sensnet.Network) string {
	if net.Lat == nil {
		return "(no mapped tiles)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tile map (%dx%d, '#'=good/open, '.'=bad/closed):\n", net.Lat.W, net.Lat.H)
	for y := net.Lat.H - 1; y >= 0; y-- {
		for x := 0; x < net.Lat.W; x++ {
			if net.Lat.IsOpen(x, y) {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
