package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/serve"
)

// runCLI executes run with captured output.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestCheckPreload is the success-path smoke test: -check builds the
// preload snapshot, prints its summary and exits 0 without serving.
func TestCheckPreload(t *testing.T) {
	out, _, code := runCLI(t, "-check", "-preload", "kind:udg,side:8,lambda:8,seed:1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var info serve.SnapshotInfo
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatalf("-check output is not a snapshot summary: %v\n%s", err, out)
	}
	if info.Kind != "udg-sens" || info.Points == 0 || info.ID == "" || !info.HasBase {
		t.Fatalf("unexpected preload summary: %+v", info)
	}
}

// TestCheckPreloadHNG covers the HNG preload path with a base graph.
func TestCheckPreloadHNG(t *testing.T) {
	out, _, code := runCLI(t, "-check", "-preload", "kind:hng,side:6,lambda:6,seed:2,baseradius:1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var info serve.SnapshotInfo
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.Kind != "hng" || !info.HasBase {
		t.Fatalf("unexpected HNG summary: %+v", info)
	}
}

func TestUsageError(t *testing.T) {
	_, stderr, code := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2 on flag parse error", code)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag") {
		t.Fatalf("no usage output on stderr:\n%s", stderr)
	}
}

func TestCheckWithoutPreload(t *testing.T) {
	_, stderr, code := runCLI(t, "-check")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "-preload") {
		t.Fatalf("error does not mention the missing -preload:\n%s", stderr)
	}
}

func TestBadPreloadSpecs(t *testing.T) {
	cases := []struct{ name, spec, wantErr string }{
		{"missing colon", "kind=udg", "want key:value"},
		{"unknown key", "kind:udg,widgets:3", "unknown -preload key"},
		{"bad value", "kind:udg,side:wide", "bad -preload value"},
		{"bad kind", "kind:mesh", "unknown kind"},
		{"NaN side", "kind:udg,side:NaN", "side must be finite"},
		{"oversized", "kind:udg,side:1e4", "exceeds"},
		{"trailing seed", "kind:udg,seed:12abc", "bad -preload value"},
		{"trailing side", "kind:udg,side:25x", "bad -preload value"},
		{"fractional slabcap", "kind:udg,slabcap:3.5", "bad -preload value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, "-check", "-preload", tc.spec)
			if code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
		})
	}
}

// TestParsePreloadRoundTrip pins that every documented key lands in the
// right BuildSpec field.
func TestParsePreloadRoundTrip(t *testing.T) {
	sp, err := parsePreload("kind:hng,seed:7,stream:2,side:12.5,lambda:4,mode:relaxed,p:0.25,maxchildren:4,baseradius:1.5,slabcap:3")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := serve.BuildSpec{
		Kind: "hng", Seed: 7, Stream: 2, Side: 12.5, Lambda: 4,
		Mode: "relaxed", P: 0.25, MaxChildren: 4, BaseRadius: 1.5, SlabCap: 3,
	}
	if sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
}

// TestHTTPServerTimeouts pins the server's connection timeouts: header,
// request and idle bounds are set, and the write timeout stays unset
// because snapshot builds run on the request goroutine.
func TestHTTPServerTimeouts(t *testing.T) {
	h := serve.New(serve.Config{})
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server not wired to addr/handler: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts = header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout < readHeaderTimeout || idleTimeout <= 0 {
		t.Errorf("timeouts must be positive, header ≤ read: header %v, read %v, idle %v", readHeaderTimeout, readTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset", srv.WriteTimeout)
	}
}
