package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/energy"
)

// doReq drives one request through the server and returns the recorder.
func doReq(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// decodeErr asserts the pinned error body shape and returns it.
func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body is not the pinned shape: %v (body %q)", err, rec.Body.String())
	}
	if eb.Status != rec.Code {
		t.Fatalf("error body status %d != HTTP status %d", eb.Status, rec.Code)
	}
	if eb.Error == "" {
		t.Fatalf("error body has empty message: %q", rec.Body.String())
	}
	return eb
}

// smallSpec is a fast-to-build UDG snapshot spec shared by handler tests.
const smallSpec = `{"kind":"udg","seed":1,"side":8,"lambda":8}`

// loadSmall builds and activates the small snapshot, returning its id.
func loadSmall(t *testing.T, s *Server) string {
	t.Helper()
	rec := doReq(t, s, http.MethodPost, "/snapshots", smallSpec)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("snapshot build: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode snapshot response: %v", err)
	}
	return resp.Snapshot.ID
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	rec := doReq(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || h.Snapshots != 0 || h.Current != "" {
		t.Fatalf("unexpected healthz: %+v", h)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	s := New(Config{})
	id := loadSmall(t, s)

	// Re-POST of the same spec is idempotent: 200, created=false, same id.
	rec := doReq(t, s, http.MethodPost, "/snapshots", smallSpec)
	if rec.Code != http.StatusOK {
		t.Fatalf("idempotent re-POST: status %d", rec.Code)
	}
	var resp SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Created || resp.Snapshot.ID != id {
		t.Fatalf("re-POST not idempotent: %+v", resp)
	}

	// List shows it as current.
	rec = doReq(t, s, http.MethodGet, "/snapshots", "")
	var list SnapshotListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if list.Count != 1 || list.Current != id || !list.Snapshots[0].Current {
		t.Fatalf("unexpected list: %+v", list)
	}

	// Direct GET by id.
	rec = doReq(t, s, http.MethodGet, "/snapshots/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get by id: status %d", rec.Code)
	}
	var info SnapshotInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if info.ID != id || info.Points == 0 || info.Edges == 0 || !info.HasBase {
		t.Fatalf("unexpected info: %+v", info)
	}

	// Delete retires it; a later GET is 404.
	rec = doReq(t, s, http.MethodDelete, "/snapshots/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d body %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, s, http.MethodGet, "/snapshots/"+id, "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", rec.Code)
	}
	decodeErr(t, rec)
}

func TestSnapshotStagedBuild(t *testing.T) {
	s := New(Config{})
	// activate:false stages the snapshot without making it current.
	rec := doReq(t, s, http.MethodPost, "/snapshots",
		`{"kind":"udg","seed":1,"side":8,"lambda":8,"activate":false}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("staged build: status %d body %s", rec.Code, rec.Body.String())
	}
	if cur := s.Store().Current(); cur != nil {
		t.Fatalf("staged build became current: %v", cur.Info.ID)
	}
	// A current-snapshot query has nothing to answer with.
	rec = doReq(t, s, http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1}]}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("query with no current snapshot: status %d", rec.Code)
	}
	decodeErr(t, rec)
}

func TestErrorPaths(t *testing.T) {
	s := New(Config{})
	id := loadSmall(t, s)

	type errCase struct {
		name, method, path, body string
		status                   int
		wantErr                  string // substring of the pinned error message
	}
	run := func(srv *Server, cases []errCase) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				rec := doReq(t, srv, tc.method, tc.path, tc.body)
				if rec.Code != tc.status {
					t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body.String())
				}
				eb := decodeErr(t, rec)
				if !strings.Contains(eb.Error, tc.wantErr) {
					t.Fatalf("error %q does not mention %q", eb.Error, tc.wantErr)
				}
			})
		}
	}
	tooManyPairs := `{"pairs":[` + strings.Repeat(`{"u":0,"v":1},`, MaxPairsPerRequest) + `{"u":0,"v":1}]}`
	run(s, []errCase{
		{"unknown snapshot get", http.MethodGet, "/snapshots/deadbeef", "", http.StatusNotFound, `unknown snapshot "deadbeef"`},
		{"unknown snapshot delete", http.MethodDelete, "/snapshots/deadbeef", "", http.StatusNotFound, `unknown snapshot "deadbeef"`},
		{"unknown snapshot query", http.MethodPost, "/query/route", `{"snapshot":"deadbeef","pairs":[{"u":0,"v":1}]}`, http.StatusNotFound, `unknown snapshot "deadbeef"`},
		{"malformed JSON", http.MethodPost, "/query/route", `{"pairs":[`, http.StatusBadRequest, "invalid JSON body"},
		{"unknown field", http.MethodPost, "/query/route", `{"pares":[{"u":0,"v":1}]}`, http.StatusBadRequest, "invalid JSON body"},
		{"trailing garbage", http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1}]}{"x":1}`, http.StatusBadRequest, "invalid JSON body"},
		{"empty pairs", http.MethodPost, "/query/route", `{"pairs":[]}`, http.StatusBadRequest, "at least one pair"},
		{"pair out of range", http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1000000}]}`, http.StatusBadRequest, "out of vertex range"},
		{"negative pair", http.MethodPost, "/query/route", `{"pairs":[{"u":-1,"v":0}]}`, http.StatusBadRequest, "out of vertex range"},
		{"pairs above cap", http.MethodPost, "/query/route", tooManyPairs, http.StatusBadRequest, "4097 pairs exceed the per-request cap 4096"},
		{"beta below range", http.MethodPost, "/query/route", `{"beta":1.5,"pairs":[{"u":0,"v":1}]}`, http.StatusBadRequest, "out of range"},
		{"beta above range", http.MethodPost, "/query/stretch", `{"beta":9,"pairs":[{"u":0,"v":1}]}`, http.StatusBadRequest, "out of range"},
		{"bad build kind", http.MethodPost, "/snapshots", `{"kind":"mesh"}`, http.StatusBadRequest, "unknown kind"},
		{"bad build mode", http.MethodPost, "/snapshots", `{"kind":"udg","mode":"wild"}`, http.StatusBadRequest, "unknown mode"},
		{"bad build JSON", http.MethodPost, "/snapshots", `kind=udg`, http.StatusBadRequest, "invalid JSON body"},
		{"negative slab cap", http.MethodPost, "/snapshots", `{"kind":"udg","slabCap":-1}`, http.StatusBadRequest, "slabCap must be >= 0"},
		{"build side overflow", http.MethodPost, "/snapshots", `{"kind":"udg","side":1e200}`, http.StatusRequestEntityTooLarge, "points (λ·side²) exceeds 2e+06"},
		{"build lambda overflow", http.MethodPost, "/snapshots", `{"kind":"udg","lambda":1e300}`, http.StatusRequestEntityTooLarge, "points (λ·side²) exceeds 2e+06"},
		{"build side 1e4", http.MethodPost, "/snapshots", `{"kind":"udg","side":1e4}`, http.StatusRequestEntityTooLarge, "expected 1.6e+09 points"},
		{"build genSide tile overflow", http.MethodPost, "/snapshots", `{"kind":"udg","genSide":1e-300}`, http.StatusRequestEntityTooLarge, "generation tiles"},
		{"build dense udg edges", http.MethodPost, "/snapshots", `{"kind":"udg","side":40,"lambda":1000}`, http.StatusRequestEntityTooLarge, "base edges exceeds 5e+07"},
		{"build hng base edges", http.MethodPost, "/snapshots", `{"kind":"hng","side":100,"baseRadius":50}`, http.StatusRequestEntityTooLarge, "base edges exceeds 5e+07"},
		{"lifetime rounds cap", http.MethodPost, "/query/lifetime", `{"rounds":5000}`, http.StatusBadRequest, "out of range"},
		{"lifetime negative rate", http.MethodPost, "/query/lifetime", `{"rate":-1}`, http.StatusBadRequest, "rate must be positive"},
		{"lifetime rate above max", http.MethodPost, "/query/lifetime", `{"rate":1e9}`, http.StatusBadRequest, "at most 16"},
		{"lifetime rate past int64", http.MethodPost, "/query/lifetime", `{"rate":1e19}`, http.StatusBadRequest, "at most 16"},
		{"lifetime unknown snapshot", http.MethodPost, "/query/lifetime", `{"snapshot":"deadbeef"}`, http.StatusNotFound, `unknown snapshot "deadbeef"`},
		{"coverage unknown snapshot", http.MethodPost, "/query/coverage", `{"snapshot":"deadbeef"}`, http.StatusNotFound, `unknown snapshot "deadbeef"`},
	})
	// With no snapshot loaded, every query endpoint names the missing
	// current snapshot.
	const noCurrent = "no current snapshot (POST /snapshots first)"
	run(New(Config{}), []errCase{
		{"route no current snapshot", http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1}]}`, http.StatusNotFound, noCurrent},
		{"stretch no current snapshot", http.MethodPost, "/query/stretch", `{"pairs":[{"u":0,"v":1}]}`, http.StatusNotFound, noCurrent},
		{"coverage no current snapshot", http.MethodPost, "/query/coverage", `{}`, http.StatusNotFound, noCurrent},
		{"lifetime no current snapshot", http.MethodPost, "/query/lifetime", `{}`, http.StatusNotFound, noCurrent},
	})
	_ = id
}

// TestMalformedJSONPinnedBody pins the exact 400 body bytes for an empty
// pair list — the wire contract the issue requires.
func TestMalformedJSONPinnedBody(t *testing.T) {
	s := New(Config{})
	loadSmall(t, s)
	rec := doReq(t, s, http.MethodPost, "/query/route", `{"pairs":[]}`)
	want := `{"error":"query needs at least one pair","status":400}` + "\n"
	if rec.Body.String() != want {
		t.Fatalf("pinned 400 body changed:\n got %q\nwant %q", rec.Body.String(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content type %q", ct)
	}
}

// TestPoolSaturation429 pre-occupies the single worker slot and verifies
// the shed response: 429, Retry-After, pinned body shape, counted in
// /metrics.
func TestPoolSaturation429(t *testing.T) {
	s := New(Config{Workers: 1})
	loadSmall(t, s)
	if !s.Pool().TryAcquire() {
		t.Fatal("could not occupy the pool")
	}
	defer s.Pool().Release()

	rec := doReq(t, s, http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	decodeErr(t, rec)
	if got := s.Pool().Rejected(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
}

func TestRouteQuery(t *testing.T) {
	s := New(Config{})
	id := loadSmall(t, s)
	rec := doReq(t, s, http.MethodPost, "/query/route", `{"beta":3,"pairs":[{"u":0,"v":0},{"u":0,"v":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("route: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp RouteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode route: %v", err)
	}
	if resp.Snapshot != id || resp.Beta != 3 || len(resp.Results) != 2 {
		t.Fatalf("unexpected route response: %+v", resp)
	}
	self := resp.Results[0]
	if !self.Reachable || self.Len != 0 || self.Hops != 0 || self.U != 0 || self.V != 0 {
		t.Fatalf("self pair should be trivially reachable: %+v", self)
	}
}

func TestStretchQuery(t *testing.T) {
	s := New(Config{})
	loadSmall(t, s)
	rec := doReq(t, s, http.MethodPost, "/query/stretch", `{"beta":3,"pairs":[{"u":0,"v":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stretch: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp StretchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode stretch: %v", err)
	}
	r := resp.Results[0]
	if r.Reachable {
		// A reachable pair must satisfy the stretch invariants.
		if r.Len < r.BaseLen || r.DistStretch < 1 || r.BaseLen < r.Euclid-1e-9 {
			t.Fatalf("stretch invariants violated: %+v", r)
		}
	}
}

// TestStretchWithoutBase verifies the 400 on a snapshot with no base
// graph (HNG built without baseRadius).
func TestStretchWithoutBase(t *testing.T) {
	s := New(Config{})
	rec := doReq(t, s, http.MethodPost, "/snapshots", `{"kind":"hng","seed":2,"side":6,"lambda":6}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("hng build: status %d body %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, s, http.MethodPost, "/query/stretch", `{"beta":3,"pairs":[{"u":0,"v":1}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stretch without base: status %d, want 400", rec.Code)
	}
	eb := decodeErr(t, rec)
	if !strings.Contains(eb.Error, "no base graph") {
		t.Fatalf("error %q does not mention the missing base", eb.Error)
	}
}

func TestCoverageQuery(t *testing.T) {
	s := New(Config{})
	loadSmall(t, s)
	rec := doReq(t, s, http.MethodPost, "/query/coverage", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("coverage: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp CoverageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode coverage: %v", err)
	}
	if resp.Snapshot.Points == 0 || len(resp.DegreeHistogram) == 0 {
		t.Fatalf("empty coverage: %+v", resp)
	}
	total := 0
	for _, c := range resp.DegreeHistogram {
		total += c
	}
	if total != resp.Snapshot.Points {
		t.Fatalf("degree histogram sums to %d, want %d points", total, resp.Snapshot.Points)
	}
}

// TestLifetimeQueryDeterministic verifies the lifetime endpoint answers
// and that the same (snapshot, seed) yields byte-identical summaries.
func TestLifetimeQueryDeterministic(t *testing.T) {
	s := New(Config{})
	loadSmall(t, s)
	body := `{"seed":7,"rounds":64}`
	rec1 := doReq(t, s, http.MethodPost, "/query/lifetime", body)
	if rec1.Code != http.StatusOK {
		t.Fatalf("lifetime: status %d body %s", rec1.Code, rec1.Body.String())
	}
	rec2 := doReq(t, s, http.MethodPost, "/query/lifetime", body)
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatalf("lifetime not deterministic:\n%s\n%s", rec1.Body.String(), rec2.Body.String())
	}
	var resp LifetimeResponse
	if err := json.Unmarshal(rec1.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode lifetime: %v", err)
	}
	if resp.Rounds <= 0 || resp.DeliveryRatio < 0 || resp.DeliveryRatio > 1 {
		t.Fatalf("implausible lifetime summary: %+v", resp)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	loadSmall(t, s)
	doReq(t, s, http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1}]}`)
	rec := doReq(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if ms.SnapshotCount != 1 {
		t.Fatalf("snapshot count %d, want 1", ms.SnapshotCount)
	}
	if ms.Endpoints["route"].Count != 1 {
		t.Fatalf("route histogram count %d, want 1", ms.Endpoints["route"].Count)
	}
	if ms.Endpoints["route"].P50Us == 0 || ms.Endpoints["route"].P99Us < ms.Endpoints["route"].P50Us {
		t.Fatalf("implausible latency quantiles: %+v", ms.Endpoints["route"])
	}
	if want := (BatcherStats{Flushes: 1, Queries: 1, Pairs: 1, MaxOccupancy: 1, QueriesPerFlush: 1}); ms.Batcher != want {
		t.Fatalf("query counters %+v, want %+v", ms.Batcher, want)
	}
	if ms.SlabMisses == 0 {
		t.Fatalf("slab cache never missed: %+v", ms)
	}
}

// TestGatewayRowsMetrics: stretch queries from the snapshot's gateways fill
// at most one distance and one power row per gateway, later queries hit
// those rows, and /metrics reports both per snapshot. Route queries fill no
// rows, and the lifetime query simulates the same gateway set.
func TestGatewayRowsMetrics(t *testing.T) {
	s := New(Config{})
	id := loadSmall(t, s)
	snap, release, _ := s.Store().Acquire(id)
	defer release()
	doReq(t, s, http.MethodPost, "/query/route", `{"beta":2,"pairs":[{"u":0,"v":1}]}`)
	if st := snap.SlabStats(); st.RowFills != 0 || st.RowHits != 0 {
		t.Fatalf("route query touched gateway rows: %+v", st)
	}
	gw := snap.gatewaySet()
	if !slices.Equal(gw, energy.QuadrantSinks(snap.Pts, snap.Members)) {
		t.Fatalf("snapshot gateways %v differ from QuadrantSinks", gw)
	}
	metrics := func() SnapshotCacheStats {
		t.Helper()
		var ms MetricsSnapshot
		if err := json.Unmarshal(doReq(t, s, http.MethodGet, "/metrics", "").Body.Bytes(), &ms); err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		if len(ms.Caches) != 1 || ms.Caches[0].ID != id {
			t.Fatalf("metrics list caches %+v, want one for %s", ms.Caches, id)
		}
		return ms.Caches[0]
	}
	const queries = 12
	var hits []int64
	for q := 0; q < queries; q++ {
		u := gw[q%len(gw)]
		v := snap.Members[(q*37+11)%len(snap.Members)]
		body := fmt.Sprintf(`{"beta":2,"pairs":[{"u":%d,"v":%d}]}`, u, v)
		if rec := doReq(t, s, http.MethodPost, "/query/stretch", body); rec.Code != http.StatusOK {
			t.Fatalf("stretch: status %d body %s", rec.Code, rec.Body.String())
		}
		hits = append(hits, metrics().RowHits)
	}
	st := metrics()
	if st.RowFills == 0 || st.RowFills > int64(2*len(gw)) {
		t.Fatalf("%d row fills after %d gateway queries, want 1..%d", st.RowFills, queries, 2*len(gw))
	}
	if st.RowFills+st.RowHits != 2*queries {
		t.Errorf("row fills %d + hits %d, want one per (query, weight) = %d", st.RowFills, st.RowHits, 2*queries)
	}
	if hits[len(hits)-1] <= hits[len(gw)-1] {
		t.Errorf("row hits did not grow after every gateway was seen: %v", hits)
	}
}
