package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// concurrentQueryBody asks for two pairs of members and one from the
// snapshot's first gateway, so every pair is reachable and stretch rows
// read a gateway row too.
func concurrentQueryBody(s *Server, beta float64) string {
	snap := s.Store().Current()
	m, gw := snap.Members, snap.gatewaySet()
	return fmt.Sprintf(`{"beta":%v,"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		beta, m[0], m[len(m)/2], m[1], m[len(m)/3], gw[0], m[len(m)-1])
}

// loneQuery returns the body one query returns on a fresh daemon.
func loneQuery(t *testing.T, path string, beta float64) (body string, want []byte) {
	t.Helper()
	ref := New(Config{})
	loadSmall(t, ref)
	body = concurrentQueryBody(ref, beta)
	rec := doReq(t, ref, http.MethodPost, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("lone query: status %d body %s", rec.Code, rec.Body.String())
	}
	return body, rec.Body.Bytes()
}

// runConcurrent issues one query per body concurrently against s and
// returns the response bodies in the same order.
func runConcurrent(t *testing.T, s *Server, path string, bodies []string) [][]byte {
	t.Helper()
	got := make([][]byte, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doReq(t, s, http.MethodPost, path, body)
			if rec.Code != http.StatusOK {
				t.Errorf("query %d: status %d body %s", i, rec.Code, rec.Body.String())
				return
			}
			got[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	return got
}

// queryCounters reads the route/stretch counters that /metrics serves
// under "batcher".
func queryCounters(t *testing.T, s *Server) BatcherStats {
	t.Helper()
	rec := doReq(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return ms.Batcher
}

// TestBatcherDeterminism: n concurrent identical route or stretch queries
// each return the body a lone query returns on a fresh daemon, at
// GOMAXPROCS 1 and 8, and the /metrics "batcher" counters record n
// measurements of one query each. Every sample is a pure function of
// (snapshot, β, pair), so neither concurrency nor the shared slab cache
// and gateway rows may change a byte.
func TestBatcherDeterminism(t *testing.T) {
	const n = 16
	cases := []struct {
		query string
		beta  float64
	}{
		{"route", 0},
		{"route", 2.5},
		{"route", 3.5},
		{"stretch", 0},
		{"stretch", 2.5},
		{"stretch", 3.5},
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s_beta=%v", tc.query, tc.beta), func(t *testing.T) {
					path := "/query/" + tc.query
					body, want := loneQuery(t, path, tc.beta)

					s := New(Config{Workers: n})
					loadSmall(t, s)
					bodies := make([]string, n)
					for i := range bodies {
						bodies[i] = body
					}
					for i, b := range runConcurrent(t, s, path, bodies) {
						if !bytes.Equal(b, want) {
							t.Fatalf("query %d body diverged from the lone query:\n got %s\nwant %s", i, b, want)
						}
					}
					if st := queryCounters(t, s); st.Queries != n || st.Flushes != n || st.MultiQueryFlushes != 0 {
						t.Fatalf("query counters %+v, want %d queries in %d single-query measurements", st, n, n)
					}
				})
			}
		})
	}
}

// TestBatcherGroupsByBeta: route queries at β 2.5 and 3.5 run
// concurrently on one snapshot, so its slab cache serves both weights at
// once; each still returns the lone-query body for its own β, and every
// query is its own measurement.
func TestBatcherGroupsByBeta(t *testing.T) {
	const perBeta = 8
	betas := []float64{2.5, 3.5}
	var bodies []string
	var wants [][]byte
	for _, beta := range betas {
		body, want := loneQuery(t, "/query/route", beta)
		for i := 0; i < perBeta; i++ {
			bodies = append(bodies, body)
			wants = append(wants, want)
		}
	}

	s := New(Config{Workers: len(bodies)})
	loadSmall(t, s)
	for i, b := range runConcurrent(t, s, "/query/route", bodies) {
		if !bytes.Equal(b, wants[i]) {
			t.Fatalf("query %d (β %v) body diverged from the lone query:\n got %s\nwant %s",
				i, betas[i/perBeta], b, wants[i])
		}
	}
	if st := queryCounters(t, s); st.Queries != int64(len(bodies)) || st.Flushes != st.Queries || st.MultiQueryFlushes != 0 {
		t.Fatalf("query counters %+v, want %d single-query measurements", st, len(bodies))
	}
}
