package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve/loadgen"
)

// benchServer builds a daemon with the small benchmark snapshot loaded
// and returns it plus the snapshot's members.
func benchServer(b *testing.B, cfg Config) (*Server, []int32) {
	b.Helper()
	s := New(cfg)
	snap, err := Build(BuildSpec{Kind: "udg", Seed: 1, Side: 8, Lambda: 8})
	if err != nil {
		b.Fatalf("build snapshot: %v", err)
	}
	live, _ := s.Store().Add(snap, true, false)
	return s, live.Members
}

// BenchmarkServeRoute is the per-query hot path: one route query per
// iteration through the full HTTP stack, so allocs/op is the per-query
// allocation bill the ALLOC-REGRESSION gate pins.
func BenchmarkServeRoute(b *testing.B) {
	s, _ := benchServer(b, Config{})
	body := []byte(`{"beta":3,"pairs":[{"u":0,"v":1},{"u":2,"v":3}]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query/route", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServeStretchGateways is the stretch hot path the daemon's
// traffic takes: one stretch query per iteration from the snapshot's
// gateways through the full HTTP stack. Base distances
// come from the gateway rows (filled before the timer starts), so the
// per-query cost is the sparse subgraph sweeps plus HTTP and encoding.
func BenchmarkServeStretchGateways(b *testing.B) {
	s, members := benchServer(b, Config{})
	gw := s.Store().Current().gatewaySet()
	bodies := make([][]byte, 16)
	for i := range bodies {
		u := gw[i%len(gw)]
		v1, v2 := members[(i*131+7)%len(members)], members[(i*71+29)%len(members)]
		bodies[i] = fmt.Appendf(nil, `{"beta":3,"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`, u, v1, u, v2)
	}
	query := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/query/stretch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, body := range bodies {
		query(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(bodies[i%len(bodies)])
	}
}

// BenchmarkServeLoadgen drives the deterministic load generator against
// the daemon and reports the serving throughput and latency quantiles —
// the qps/p50/p99 rows of the benchmark trajectory.
func BenchmarkServeLoadgen(b *testing.B) {
	s, members := benchServer(b, Config{Workers: 8})
	stream := loadgen.Generate(members, loadgen.Spec{
		Seed: 7, Queries: 200, PairsPerQuery: 2, StretchFraction: 0.2, Beta: 3,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var qps, p50, p99 float64
	for i := 0; i < b.N; i++ {
		res := loadgen.Run(s, stream, 4)
		if res.Failed != 0 {
			b.Fatalf("%d queries failed", res.Failed)
		}
		qps += res.QPS
		p50 += float64(res.P50.Microseconds())
		p99 += float64(res.P99.Microseconds())
	}
	n := float64(b.N)
	b.ReportMetric(qps/n, "qps")
	b.ReportMetric(p50/n, "p50-us")
	b.ReportMetric(p99/n, "p99-us")
}

// BenchmarkSnapshotBuild is the snapshot construction cost the POST
// /snapshots path pays (cache misses only).
func BenchmarkSnapshotBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(BuildSpec{Kind: "udg", Seed: uint64(i + 1), Side: 8, Lambda: 8}); err != nil {
			b.Fatalf("build: %v", err)
		}
	}
}
