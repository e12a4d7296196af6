package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/power"
	"repro/internal/serve/loadgen"
)

// TestE2EDaemonFlow is the acceptance e2e: start the daemon in-process,
// load a 10k-point UDG-SENS snapshot over HTTP, drive 1k mixed
// route/stretch queries through the load generator, and verify every
// response body is byte-identical to the answer computed directly by the
// power measurement engine for the same pairs — at GOMAXPROCS 1 and 8.
// Run under -race (make test-race / make e2e) this also covers the
// concurrent serving path.
func TestE2EDaemonFlow(t *testing.T) {
	queries := 1000
	if testing.Short() {
		// The full stream takes minutes under -race on a 1-CPU box; short
		// mode keeps the same snapshot and mix at a quarter of the volume.
		queries = 250
	}
	const beta = 3.0

	s := New(Config{Workers: 8})

	// Load the snapshot through the HTTP surface, exactly as a client
	// would. side 25 × λ16 ⇒ E[points] = 10000.
	rec := doReq(t, s, http.MethodPost, "/snapshots", `{"kind":"udg","seed":42,"side":25,"lambda":16}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("snapshot build: status %d body %s", rec.Code, rec.Body.String())
	}
	var built SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &built); err != nil {
		t.Fatalf("decode build response: %v", err)
	}
	info := built.Snapshot
	if info.Points < 9000 || info.Points > 11000 {
		t.Fatalf("deployment size %d not ≈10k", info.Points)
	}
	snap, release, ok := s.Store().Acquire(info.ID)
	if !ok {
		t.Fatal("built snapshot not acquirable")
	}
	defer release()

	// The deterministic query stream: 1k queries, 2 pairs each, every 5th
	// a stretch query at β=3.
	stream := loadgen.Generate(snap.Members, loadgen.Spec{
		Seed:            42,
		Queries:         queries,
		PairsPerQuery:   2,
		StretchFraction: 0.2,
		Beta:            beta,
	})

	// Independently computed expected bodies: the same pairs through
	// power.MeasurePairs (no daemon, no slab cache) encoded
	// with the daemon's wire conversion.
	expected := expectedBodies(t, snap, info.ID, stream, beta)

	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			res := loadgen.Run(s, stream, 8)
			if res.Failed != 0 {
				t.Fatalf("%d/%d queries failed", res.Failed, res.Queries)
			}
			for i, r := range res.Responses {
				if !bytes.Equal(r.Body, expected[i]) {
					t.Fatalf("query %d body diverged from the direct measurement:\n got %s\nwant %s",
						i, r.Body, expected[i])
				}
			}
			if res.QPS <= 0 || res.P99 < res.P50 {
				t.Fatalf("implausible load report: %+v", res)
			}
		})
	}

	// Every route and stretch query is one measurement, counted once.
	rec = doReq(t, s, http.MethodGet, "/metrics", "")
	var ms MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if want := int64(2 * len(stream)); ms.Batcher.Queries != want || ms.Batcher.Flushes != want {
		t.Fatalf("/metrics counted %+v, want %d queries and flushes", ms.Batcher, want)
	}
}

// expectedBodies computes, for every generated query, the exact response
// body the daemon must produce — via the measurement engine directly.
func expectedBodies(t *testing.T, snap *Snapshot, id string, stream []loadgen.Query, beta float64) [][]byte {
	t.Helper()
	// One measurer per (path, β) family with its own slab cache — the same
	// engine the daemon measures with, but bypassing the daemon and the
	// snapshot's cache entirely. Weight slabs are identical
	// either way (pure function of graph × β), so sharing a measurer across
	// queries changes nothing but the test's runtime.
	slabs := power.NewSlabCache()
	measurers := map[string]*power.Measurer{}
	measurerFor := func(path string, b float64) *power.Measurer {
		k := fmt.Sprintf("%s|%v", path, b)
		if m, ok := measurers[k]; ok {
			return m
		}
		base := snap.Base
		if path == "/query/route" {
			base = nil
		}
		m := power.NewMeasurerCached(snap.Graph, base, snap.Pts, power.BatchSpec{Beta: b, Hops: true}, slabs)
		measurers[k] = m
		return m
	}
	out := make([][]byte, len(stream))
	for i, q := range stream {
		var req QueryRequest
		if err := json.Unmarshal(q.Body, &req); err != nil {
			t.Fatalf("loadgen body %d does not decode as a daemon query: %v", i, err)
		}
		samples := measurerFor(q.Path, req.Beta).Pairs(pairsOf(req.Pairs))
		var body []byte
		switch q.Path {
		case "/query/route":
			resp := RouteResponse{Snapshot: id, Beta: req.Beta, Results: make([]RouteResult, len(samples))}
			for j, smp := range samples {
				resp.Results[j] = routeResult(smp)
			}
			body = mustMarshal(t, resp)
		case "/query/stretch":
			resp := StretchResponse{Snapshot: id, Beta: req.Beta, Results: make([]StretchResult, len(samples))}
			for j, smp := range samples {
				resp.Results[j] = stretchResult(smp)
			}
			body = mustMarshal(t, resp)
		default:
			t.Fatalf("unexpected loadgen path %q", q.Path)
		}
		out[i] = body
	}
	return out
}

// mustMarshal encodes v exactly as writeJSON does (marshal + newline).
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal expected body: %v", err)
	}
	return append(b, '\n')
}
