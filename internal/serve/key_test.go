package serve

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/hng"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// cached reports whether the scenario cache holds key, without building.
func cached(t *testing.T, c *scenario.Cache, key string) bool {
	t.Helper()
	before := c.Stats().Misses
	scenario.Get(c, key, func() any { return nil })
	return c.Stats().Misses == before
}

// TestBuildSpecKeyIsEngineKey pins snapshot identity to the scenario
// engine's cache keys: for serial and streamed deployments, the key a
// normalized BuildSpec reports is exactly the key scenario.Ctx files the
// same structure under.
func TestBuildSpecKeyIsEngineKey(t *testing.T) {
	for _, sp := range []BuildSpec{
		{Kind: "udg", Seed: 5, Stream: 9, Side: 10, Lambda: 8},
		{Kind: "udg", Seed: 5, Stream: 9, Side: 10, Lambda: 8, GenSide: 4},
		{Kind: "hng", Seed: 3, Stream: 2, Side: 8},
		{Kind: "hng", Seed: 3, Stream: 2, Side: 8, GenSide: 2},
	} {
		if err := sp.normalize(); err != nil {
			t.Fatal(err)
		}
		ctx := scenario.NewCtx(scenario.Config{Seed: rng.Seed(sp.Seed)})
		box := geom.Box(sp.Side, sp.Side)
		dep := ctx.Deploy(sp.Stream, box, sp.Lambda)
		if sp.GenSide > 0 {
			dep = ctx.DeploySoA(sp.Stream, box, sp.Lambda, sp.GenSide)
		}
		if sp.Kind == "udg" {
			spec, _ := udgSpecFor(sp.Mode)
			if _, err := ctx.UDGNet(dep, spec, scenario.NetOptions{}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := ctx.HNG(dep, hng.Spec{P: sp.P, MaxChildren: sp.MaxChildren}, sp.Stream+1); err != nil {
			t.Fatal(err)
		}
		if !cached(t, ctx.Cache, sp.Key()) {
			t.Errorf("%+v: snapshot key %q is not the engine's key", sp, sp.Key())
		}
	}
}

// TestSnapshotIDPinned pins one snapshot ID literal, so a change to any key
// shape — and with it every daemon snapshot identity — fails loudly.
func TestSnapshotIDPinned(t *testing.T) {
	sp := BuildSpec{Kind: "udg", Seed: 1}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotID(sp.Key()), "459d85b2dea97987"; got != want {
		t.Fatalf("snapshot id of %q = %s, want %s", sp.Key(), got, want)
	}
}
