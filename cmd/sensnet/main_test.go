package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// runCLI executes run with captured output.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestUDGTextSummary(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "udg", "-side", "14", "-lambda", "16", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"UDG-SENS", "deployment:", "network members:",
		"max degree:", "P1 bound: 4", "election cost:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text summary missing %q:\n%s", want, out)
		}
	}
}

func TestNNTextSummary(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "nn", "-tiles", "3", "-seed", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "NN-SENS") || !strings.Contains(out, "tiles:") {
		t.Errorf("NN summary wrong:\n%s", out)
	}
}

// TestJSONShape pins the -json output: valid JSON with the documented
// fields and consistent values.
func TestJSONShape(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "udg", "-side", "14", "-json", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var s summary
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if s.Kind != "UDG-SENS" || s.Points == 0 || s.Tiles == 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.GoodTiles > s.Tiles || s.Members > s.Points {
		t.Errorf("inconsistent counts: %+v", s)
	}
	if s.MaxDegree > 4 {
		t.Errorf("max degree %d violates P1", s.MaxDegree)
	}
	// The histogram is indexed by degree and must cover MaxDegree.
	if len(s.DegreeHistogram) < s.MaxDegree+1 {
		t.Errorf("degree histogram %v shorter than max degree %d",
			s.DegreeHistogram, s.MaxDegree)
	}
	// Field names are part of the CLI contract.
	for _, field := range []string{`"kind"`, `"points"`, `"goodFraction"`,
		`"activeFraction"`, `"electionMessages"`, `"degreeHistogram"`} {
		if !strings.Contains(out, field) {
			t.Errorf("JSON missing field %s:\n%s", field, out)
		}
	}
}

func TestRenderTileMap(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "udg", "-side", "14", "-render", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "tile map") || !strings.ContainsAny(out, "#.") {
		t.Errorf("render output wrong:\n%s", out)
	}
}

func TestTilefigBothKinds(t *testing.T) {
	for _, kind := range []string{"udg", "nn"} {
		out, _, code := runCLI(t, "-tilefig", "-kind", kind)
		if code != 0 {
			t.Fatalf("%s: exit %d", kind, code)
		}
		if !strings.Contains(out, "tile") || !strings.Contains(out, "C") {
			t.Errorf("%s tilefig output wrong:\n%s", kind, out)
		}
	}
}

func TestLiteralModeStillBuilds(t *testing.T) {
	// The literal geometry has empty relay regions (the documented negative
	// result) but the build itself must succeed.
	out, _, code := runCLI(t, "-kind", "udg", "-mode", "literal", "-side", "12", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// TestFaultsFlag pins the -faults robustness block: a valid spec reports
// the crashed count and surviving giant component, a targeted attack
// shreds the LCC harder than the crash fraction alone, and the block
// rides the JSON summary too.
func TestFaultsFlag(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "udg", "-side", "14", "-seed", "3",
		"-faults", "crash:0.1,loss:0.05,attack:degree")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"fault injection:", "attack:", "degree",
		"crashed:", "surviving LCC:", "per-hop loss:"} {
		if !strings.Contains(out, want) {
			t.Errorf("fault block missing %q:\n%s", want, out)
		}
	}

	jout, _, code := runCLI(t, "-kind", "udg", "-side", "14", "-seed", "3", "-json",
		"-faults", "crash:0.2,attack:random")
	if code != 0 {
		t.Fatalf("json exit %d", code)
	}
	var s summary
	if err := json.Unmarshal([]byte(jout), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jout)
	}
	if s.Faults == nil {
		t.Fatalf("JSON summary missing faults block:\n%s", jout)
	}
	if s.Faults.Attack != "random" || s.Faults.Crashed == 0 ||
		s.Faults.SurvivingLCC <= 0 || s.Faults.SurvivingLCC > 1 {
		t.Errorf("faults block = %+v", s.Faults)
	}
	// Without -faults the block stays out of the JSON contract.
	jout, _, _ = runCLI(t, "-kind", "udg", "-side", "14", "-seed", "3", "-json")
	if strings.Contains(jout, `"faults"`) {
		t.Errorf("faults block present without -faults:\n%s", jout)
	}
}

// TestFaultsFlagErrors: malformed specs exit 1 with a diagnostic.
func TestFaultsFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-faults", "crash:2"},
		{"-faults", "loss:1.5"},
		{"-faults", "attack:psychic"},
		{"-faults", "banana:0.5"},
		{"-faults", "crash=0.5"},
		{"-faults", "crash:0.1x"},
		{"-faults", "crash:NaN"},
		{"-faults", "loss:0.05%"},
	}
	for _, extra := range cases {
		args := append([]string{"-kind", "udg", "-side", "12", "-seed", "3"}, extra...)
		_, errOut, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", extra, code)
		}
		if !strings.Contains(errOut, "-faults") {
			t.Errorf("%v: stderr %q lacks a -faults diagnostic", extra, errOut)
		}
	}
}

// TestMobilityFlag pins the -mobility motion block: a valid spec replays a
// trajectory through the kinetic maintainer, reports the repair work, and
// the maintained structure matches a from-scratch rebuild at the final
// positions. The block rides the JSON summary too.
func TestMobilityFlag(t *testing.T) {
	out, _, code := runCLI(t, "-kind", "udg", "-side", "12", "-seed", "3",
		"-mobility", "model:direction,speed:0.1,pause:1,steps:5")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"mobility:", "direction", "moves applied:",
		"tile re-elections:", "edge changes:", "good tiles:", "matches rebuild:   yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("mobility block missing %q:\n%s", want, out)
		}
	}

	jout, _, code := runCLI(t, "-kind", "udg", "-side", "12", "-seed", "3", "-json",
		"-mobility", "speed:0.2,steps:4")
	if code != 0 {
		t.Fatalf("json exit %d", code)
	}
	var s summary
	if err := json.Unmarshal([]byte(jout), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jout)
	}
	if s.Mobility == nil {
		t.Fatalf("JSON summary missing mobility block:\n%s", jout)
	}
	if s.Mobility.Model != "waypoint" || s.Mobility.Moves == 0 ||
		s.Mobility.TileReelections == 0 || !s.Mobility.MatchesRebuild {
		t.Errorf("mobility block = %+v", s.Mobility)
	}
	// Without -mobility the block stays out of the JSON contract.
	jout, _, _ = runCLI(t, "-kind", "udg", "-side", "12", "-seed", "3", "-json")
	if strings.Contains(jout, `"mobility"`) {
		t.Errorf("mobility block present without -mobility:\n%s", jout)
	}
}

// TestMobilityFlagErrors: malformed specs — and the unsupported NN kind —
// exit 1 with a -mobility diagnostic.
func TestMobilityFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-kind", "udg", "-side", "12", "-mobility", "model:teleport"},
		{"-kind", "udg", "-side", "12", "-mobility", "speed:-1"},
		{"-kind", "udg", "-side", "12", "-mobility", "speed:fast"},
		{"-kind", "udg", "-side", "12", "-mobility", "steps:-3"},
		{"-kind", "udg", "-side", "12", "-mobility", "speed:0.3m"},
		{"-kind", "udg", "-side", "12", "-mobility", "pause:2s"},
		{"-kind", "udg", "-side", "12", "-mobility", "steps:40abc"},
		{"-kind", "udg", "-side", "12", "-mobility", "warp:9"},
		{"-kind", "udg", "-side", "12", "-mobility", "model=waypoint"},
		{"-kind", "nn", "-tiles", "3", "-mobility", "model:waypoint,steps:2"},
	}
	for _, args := range cases {
		args = append(args, "-seed", "3")
		_, errOut, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(errOut, "-mobility") {
			t.Errorf("%v: stderr %q lacks a -mobility diagnostic", args, errOut)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	cases := [][]string{
		{"-kind", "marble"},
		{"-kind", "udg", "-mode", "cubist"},
		{"-tilefig", "-kind", "marble"},
	}
	for _, args := range cases {
		_, errOut, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(errOut, "unknown") {
			t.Errorf("%v: stderr %q", args, errOut)
		}
	}
	if _, _, code := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag should exit 2")
	}
}

// TestScaleFlag50k smokes the scale-tier pipeline end to end: a ~50k-point
// streamed deployment, the pair-free grid UDG base and the tile-sharded
// build, through the ordinary summary path.
func TestScaleFlag50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-point scale smoke skipped in -short")
	}
	out, _, code := runCLI(t, "-kind", "udg", "-scale", "-side", "56", "-lambda", "16", "-seed", "5", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var s summary
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if s.Points < 45000 {
		t.Errorf("points = %d, want ~50k", s.Points)
	}
	if s.Members == 0 || s.GoodTiles == 0 {
		t.Errorf("scale build produced empty network: %+v", s)
	}
	if s.MaxDegree > 4 {
		t.Errorf("max degree %d violates P1", s.MaxDegree)
	}
}

func TestScaleFlagRejectsNN(t *testing.T) {
	_, errOut, code := runCLI(t, "-kind", "nn", "-scale")
	if code == 0 || !strings.Contains(errOut, "-scale") {
		t.Fatalf("expected -scale/nn rejection, got exit %d, stderr %q", code, errOut)
	}
}
