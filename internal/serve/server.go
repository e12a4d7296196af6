package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/rng"
)

// Config tunes the daemon.
type Config struct {
	// Workers bounds the concurrently computing queries (default 8); the
	// pool full answer is 429 + Retry-After.
	Workers int
}

// MaxPairsPerRequest caps the pair list of a single query body; a longer
// one is answered 400.
const MaxPairsPerRequest = 4096

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 8
	}
	return c
}

// Server is the topology-as-a-service daemon: snapshot store, bounded
// worker pool and metrics behind an http.Handler.
//
// Endpoints:
//
//	GET    /healthz              liveness + snapshot count
//	GET    /metrics              latency histograms, query counters, pool
//	GET    /snapshots            list snapshots
//	POST   /snapshots            build + (optionally) activate a snapshot
//	GET    /snapshots/{id}       one snapshot's info
//	DELETE /snapshots/{id}       retire a snapshot
//	POST   /query/route          shortest-path queries over a pair list
//	POST   /query/stretch        stretch queries against the base
//	POST   /query/coverage       structure summary of a snapshot
//	POST   /query/lifetime       deterministic lifetime simulation summary
type Server struct {
	cfg     Config
	store   *Store
	pool    *Pool
	metrics *Metrics
	buildMu sync.Mutex // serializes snapshot builds (memory bound)
	mux     *http.ServeMux
}

// New constructs a daemon with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(),
		pool:    NewPool(cfg.Workers),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /snapshots", s.handleSnapshotList)
	s.mux.HandleFunc("POST /snapshots", s.timed(&s.metrics.Snapshots, s.handleSnapshotBuild))
	s.mux.HandleFunc("GET /snapshots/{id}", s.handleSnapshotGet)
	s.mux.HandleFunc("DELETE /snapshots/{id}", s.handleSnapshotDelete)
	s.mux.HandleFunc("POST /query/route", s.timed(&s.metrics.Route, s.pooled(s.handleRoute)))
	s.mux.HandleFunc("POST /query/stretch", s.timed(&s.metrics.Stretch, s.pooled(s.handleStretch)))
	s.mux.HandleFunc("POST /query/coverage", s.timed(&s.metrics.Coverage, s.pooled(s.handleCoverage)))
	s.mux.HandleFunc("POST /query/lifetime", s.timed(&s.metrics.Lifetime, s.pooled(s.handleLifetime)))
	return s
}

// Store exposes the snapshot store (tests and the CLI preload path).
func (s *Server) Store() *Store { return s.store }

// Pool exposes the worker pool.
func (s *Server) Pool() *Pool { return s.pool }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// timed wraps a handler with latency observation into h.
func (s *Server) timed(h *Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		h.Observe(time.Since(start))
	}
}

// pooled wraps a query handler with worker-pool admission: a saturated
// pool sheds the request with 429 and a Retry-After hint.
func (s *Server) pooled(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.pool.TryAcquire() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "worker pool saturated (%d in flight)", s.pool.Cap())
			return
		}
		defer s.pool.Release()
		fn(w, r)
	}
}

// errorBody is the pinned error shape: every non-2xx response decodes to
// exactly {"error": "...", "status": N}.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError emits the pinned JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Status: status})
}

// writeJSON marshals v deterministically (struct field order; maps sorted
// by encoding/json) and writes it with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode failure","status":500}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// decodeJSON strictly decodes the request body into v; unknown fields and
// trailing garbage are errors so malformed queries fail loudly at the
// edge.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "invalid JSON body: trailing data")
		return false
	}
	return true
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" whenever the daemon answers.
	Status string `json:"status"`
	// Snapshots counts live snapshots; Current names the active one ("" if
	// none).
	Snapshots int    `json:"snapshots"`
	Current   string `json:"current"`
	// UptimeMs is the time since daemon start.
	UptimeMs int64 `json:"uptimeMs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:    "ok",
		Snapshots: s.store.Len(),
		UptimeMs:  time.Since(s.metrics.start).Milliseconds(),
	}
	if cur := s.store.Current(); cur != nil {
		resp.Current = cur.Info.ID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.pool, s.store))
}

// SnapshotRequest is the body of POST /snapshots: a BuildSpec plus
// rollover directives.
type SnapshotRequest struct {
	BuildSpec
	// Activate makes the snapshot current (default true — omit for a
	// staged build that queries must name explicitly).
	Activate *bool `json:"activate"`
	// Replace additionally retires the previously current snapshot in the
	// same atomic table swap — the rollover protocol. Ignored unless the
	// snapshot activates.
	Replace bool `json:"replace"`
}

// SnapshotResponse is the body of POST /snapshots.
type SnapshotResponse struct {
	// Created is false when the content-shaped key matched a live snapshot
	// and the build was skipped (idempotent POST).
	Created bool `json:"created"`
	// Snapshot describes the (possibly pre-existing) snapshot.
	Snapshot SnapshotInfo `json:"snapshot"`
}

func (s *Server) handleSnapshotBuild(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sp := req.BuildSpec
	if err := sp.normalize(); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "invalid snapshot spec: %v", err)
		return
	}
	activate := req.Activate == nil || *req.Activate

	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	id := snapshotID(sp.Key())
	var snap *Snapshot
	if existing, release, ok := s.store.Acquire(id); ok {
		release()
		snap = existing
	} else {
		built, err := Build(sp)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "snapshot build failed: %v", err)
			return
		}
		snap = built
	}
	live, added := s.store.Add(snap, activate, req.Replace)
	status := http.StatusOK
	if added {
		status = http.StatusCreated
	}
	info := live.Info
	info.Current = s.store.Current() == live
	writeJSON(w, status, SnapshotResponse{Created: added, Snapshot: info})
}

// SnapshotListResponse is the body of GET /snapshots.
type SnapshotListResponse struct {
	// Count is the number of live snapshots; Current the active id ("" if
	// none); Snapshots the infos in sorted-id order.
	Count     int            `json:"count"`
	Current   string         `json:"current"`
	Snapshots []SnapshotInfo `json:"snapshots"`
}

func (s *Server) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	cur := s.store.Current()
	resp := SnapshotListResponse{Snapshots: []SnapshotInfo{}}
	if cur != nil {
		resp.Current = cur.Info.ID
	}
	for _, snap := range s.store.List() {
		info := snap.Info
		info.Current = snap == cur
		resp.Snapshots = append(resp.Snapshots, info)
	}
	resp.Count = len(resp.Snapshots)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	snap, release, ok := s.acquire(w, r.PathValue("id"))
	if !ok {
		return
	}
	defer release()
	info := snap.Info
	info.Current = s.store.Current() == snap
	writeJSON(w, http.StatusOK, info)
}

// SnapshotDeleteResponse is the body of DELETE /snapshots/{id}.
type SnapshotDeleteResponse struct {
	// Retired echoes the retired snapshot id.
	Retired string `json:"retired"`
}

func (s *Server) handleSnapshotDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.store.Remove(id); !ok {
		writeError(w, http.StatusNotFound, "unknown snapshot %q", id)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotDeleteResponse{Retired: id})
}

// PairSpec is one (source, target) vertex pair of a query body.
type PairSpec struct {
	// U and V index the snapshot's deployment points.
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// QueryRequest is the shared body of POST /query/route and /query/stretch.
type QueryRequest struct {
	// Snapshot selects the snapshot by id; empty means the current one.
	Snapshot string `json:"snapshot"`
	// Beta is the path-loss exponent for the power fields: 0 (distance
	// only) or a value in [power.MinBeta, power.MaxBeta].
	Beta float64 `json:"beta"`
	// Pairs are the measurement requests, answered in order.
	Pairs []PairSpec `json:"pairs"`
}

// acquire resolves id ("" = current) against the store and pins the
// snapshot, or answers 404 naming what is missing. On success the caller
// owns the release func.
func (s *Server) acquire(w http.ResponseWriter, id string) (snap *Snapshot, release func(), ok bool) {
	snap, release, ok = s.store.Acquire(id)
	if !ok {
		if id == "" {
			writeError(w, http.StatusNotFound, "no current snapshot (POST /snapshots first)")
		} else {
			writeError(w, http.StatusNotFound, "unknown snapshot %q", id)
		}
	}
	return snap, release, ok
}

// resolveQuery decodes, validates and resolves the common query preamble.
// On success the caller owns the release func.
func (s *Server) resolveQuery(w http.ResponseWriter, r *http.Request) (req QueryRequest, snap *Snapshot, release func(), ok bool) {
	if !decodeJSON(w, r, &req) {
		return req, nil, nil, false
	}
	if req.Beta != 0 && (req.Beta < power.MinBeta || req.Beta > power.MaxBeta) {
		writeError(w, http.StatusBadRequest, "beta %v out of range (0 or [%g, %g])", req.Beta, power.MinBeta, power.MaxBeta)
		return req, nil, nil, false
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "query needs at least one pair")
		return req, nil, nil, false
	}
	if len(req.Pairs) > MaxPairsPerRequest {
		writeError(w, http.StatusBadRequest, "%d pairs exceed the per-request cap %d", len(req.Pairs), MaxPairsPerRequest)
		return req, nil, nil, false
	}
	snap, release, ok = s.acquire(w, req.Snapshot)
	if !ok {
		return req, nil, nil, false
	}
	n := int32(snap.Graph.N)
	for _, p := range req.Pairs {
		if p.U < 0 || p.V < 0 || p.U >= n || p.V >= n {
			release()
			writeError(w, http.StatusBadRequest, "pair (%d, %d) out of vertex range [0, %d)", p.U, p.V, n)
			return req, nil, nil, false
		}
	}
	return req, snap, release, true
}

// pairsOf converts the wire pairs to the measurement engine's form.
func pairsOf(ps []PairSpec) []power.Pair {
	out := make([]power.Pair, len(ps))
	for i, p := range ps {
		out[i] = power.Pair{U: p.U, V: p.V}
	}
	return out
}

// RouteResult is one pair's answer in a route response. Unreachable pairs
// report Reachable false with zeroed costs and Hops −1 (JSON cannot carry
// +Inf).
type RouteResult struct {
	// U and V echo the queried pair.
	U int32 `json:"u"`
	V int32 `json:"v"`
	// Reachable reports whether V is reachable from U in the snapshot's
	// serving graph.
	Reachable bool `json:"reachable"`
	// Euclid is the straight-line distance; Len the shortest-path length.
	Euclid float64 `json:"euclid"`
	Len    float64 `json:"len"`
	// Power is the minimum path power at the request β (0 when β was 0).
	Power float64 `json:"power"`
	// Hops is the BFS hop count (−1 when unreachable).
	Hops int `json:"hops"`
}

// RouteResponse is the body of POST /query/route.
type RouteResponse struct {
	// Snapshot is the id of the snapshot that answered; Beta echoes the
	// request.
	Snapshot string  `json:"snapshot"`
	Beta     float64 `json:"beta"`
	// Results answer the pairs in request order.
	Results []RouteResult `json:"results"`
}

// routeResult converts one measurement sample to the wire form.
func routeResult(s power.StretchSample) RouteResult {
	r := RouteResult{U: s.U, V: s.V, Euclid: s.Euclid, Hops: s.Hops}
	if math.IsInf(s.SubLen, 1) {
		r.Hops = -1
		return r
	}
	r.Reachable = true
	r.Len = s.SubLen
	if !math.IsInf(s.PowerSub, 1) {
		r.Power = s.PowerSub
	}
	return r
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	req, snap, release, ok := s.resolveQuery(w, r)
	if !ok {
		return
	}
	defer release()
	s.metrics.countQuery(len(req.Pairs))
	samples := snap.measurer(req.Beta, false).Pairs(pairsOf(req.Pairs))
	resp := RouteResponse{Snapshot: snap.Info.ID, Beta: req.Beta, Results: make([]RouteResult, len(samples))}
	for i, smp := range samples {
		resp.Results[i] = routeResult(smp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// StretchResult extends RouteResult with the base-graph comparison.
// Reachable is true only when the pair connects in BOTH graphs; otherwise
// every ratio is zeroed.
type StretchResult struct {
	RouteResult
	// BaseLen and BasePower are the base graph's optima.
	BaseLen   float64 `json:"baseLen"`
	BasePower float64 `json:"basePower"`
	// DistStretch is Len/BaseLen, PowerStretch Power/BasePower (β > 0),
	// EuclidStretch Len/Euclid — the paper's P2 δ.
	DistStretch   float64 `json:"distStretch"`
	PowerStretch  float64 `json:"powerStretch"`
	EuclidStretch float64 `json:"euclidStretch"`
}

// StretchResponse is the body of POST /query/stretch.
type StretchResponse struct {
	// Snapshot and Beta echo the resolution; Results answer in order.
	Snapshot string          `json:"snapshot"`
	Beta     float64         `json:"beta"`
	Results  []StretchResult `json:"results"`
}

// stretchResult converts one sample to the wire form.
func stretchResult(s power.StretchSample) StretchResult {
	r := StretchResult{RouteResult: routeResult(s)}
	if math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1) {
		r.Reachable = false
		r.Len, r.Power = 0, 0
		return r
	}
	r.BaseLen = s.BaseLen
	if !math.IsInf(s.PowerBase, 1) {
		r.BasePower = s.PowerBase
	}
	if !math.IsInf(s.DistStretch, 1) {
		r.DistStretch = s.DistStretch
	}
	if !math.IsInf(s.PowerStretch, 1) {
		r.PowerStretch = s.PowerStretch
	}
	r.EuclidStretch = s.EuclidStretch()
	return r
}

func (s *Server) handleStretch(w http.ResponseWriter, r *http.Request) {
	req, snap, release, ok := s.resolveQuery(w, r)
	if !ok {
		return
	}
	defer release()
	if snap.Base == nil {
		writeError(w, http.StatusBadRequest, "snapshot %s has no base graph (build with baseRadius or kind udg)", snap.Info.ID)
		return
	}
	s.metrics.countQuery(len(req.Pairs))
	samples := snap.measurer(req.Beta, true).Pairs(pairsOf(req.Pairs))
	resp := StretchResponse{Snapshot: snap.Info.ID, Beta: req.Beta, Results: make([]StretchResult, len(samples))}
	for i, smp := range samples {
		resp.Results[i] = stretchResult(smp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// CoverageRequest is the body of POST /query/coverage.
type CoverageRequest struct {
	// Snapshot selects the snapshot by id; empty means the current one.
	Snapshot string `json:"snapshot"`
}

// CoverageResponse is the body of POST /query/coverage: the snapshot's
// structural summary.
type CoverageResponse struct {
	// Snapshot describes the structure (coverage is precomputed at build).
	Snapshot SnapshotInfo `json:"snapshot"`
	// DegreeHistogram is counts[d] = deployment points with degree d in
	// the serving graph, members or not, so it sums to Snapshot.Points.
	DegreeHistogram []int `json:"degreeHistogram"`
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req CoverageRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	snap, release, ok := s.acquire(w, req.Snapshot)
	if !ok {
		return
	}
	defer release()
	info := snap.Info
	info.Current = s.store.Current() == snap
	writeJSON(w, http.StatusOK, CoverageResponse{Snapshot: info, DegreeHistogram: snap.Graph.DegreeHistogram()})
}

// lifetimeStream is the RNG substream lifetime queries draw traffic from —
// disjoint from every build substream at the same seed.
const lifetimeStream = 7001

// LifetimeRequest is the body of POST /query/lifetime: a deterministic
// lifetime simulation over the snapshot's members.
type LifetimeRequest struct {
	// Snapshot selects the snapshot by id; empty means the current one.
	Snapshot string `json:"snapshot"`
	// Seed drives the traffic randomness; the same (snapshot, seed,
	// rounds, rate) always returns the same summary.
	Seed uint64 `json:"seed"`
	// Rounds caps the simulation (default 512, max 4096); Rate is the
	// per-source report rate (default 0.5, max MaxLifetimeRate).
	Rounds int     `json:"rounds"`
	Rate   float64 `json:"rate"`
}

// MaxLifetimeRate is the largest report rate a lifetime query accepts, in
// reports per source per round. The simulator does each report's work in
// turn, so the rate bounds a query's cost per round; the scenario suite
// sweeps rates up to 2.
const MaxLifetimeRate = 16.0

// LifetimeResponse is the body of POST /query/lifetime.
type LifetimeResponse struct {
	// Snapshot is the answering snapshot id; Seed echoes the request.
	Snapshot string `json:"snapshot"`
	Seed     uint64 `json:"seed"`
	// Rounds is the number of simulated rounds; FirstDeath the round of
	// the first role death (−1 if none); CoverageLifetime the rounds above
	// the coverage target.
	Rounds           int `json:"rounds"`
	FirstDeath       int `json:"firstDeath"`
	CoverageLifetime int `json:"coverageLifetime"`
	// DeliveryRatio, AliveAtEnd and ResidualJain summarize delivery and
	// energy evenness (see energy.Report).
	DeliveryRatio float64 `json:"deliveryRatio"`
	AliveAtEnd    float64 `json:"aliveAtEnd"`
	ResidualJain  float64 `json:"residualJain"`
}

func (s *Server) handleLifetime(w http.ResponseWriter, r *http.Request) {
	var req LifetimeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Rounds < 0 || req.Rounds > 4096 {
		writeError(w, http.StatusBadRequest, "rounds %d out of range [0, 4096]", req.Rounds)
		return
	}
	if req.Rounds == 0 {
		req.Rounds = 512
	}
	if req.Rate == 0 {
		req.Rate = 0.5
	}
	if req.Rate < 0 || req.Rate > MaxLifetimeRate {
		writeError(w, http.StatusBadRequest, "rate must be positive and at most %g (got %v)", MaxLifetimeRate, req.Rate)
		return
	}
	snap, release, ok := s.acquire(w, req.Snapshot)
	if !ok {
		return
	}
	defer release()
	if len(snap.Members) == 0 {
		writeError(w, http.StatusBadRequest, "snapshot %s has no members to simulate", snap.Info.ID)
		return
	}
	spec := energy.DefaultSpec()
	spec.MaxRounds = req.Rounds
	spec.Rate = req.Rate
	rep, err := energy.SimulateLifetime(snap.Graph, snap.Pts, snap.Members, snap.gatewaySet(),
		spec, rng.Sub(rng.Seed(req.Seed), lifetimeStream))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "lifetime simulation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, LifetimeResponse{
		Snapshot:         snap.Info.ID,
		Seed:             req.Seed,
		Rounds:           rep.Rounds,
		FirstDeath:       rep.FirstDeath,
		CoverageLifetime: rep.CoverageLifetime,
		DeliveryRatio:    rep.DeliveryRatio(),
		AliveAtEnd:       rep.AliveAtEnd(),
		ResidualJain:     rep.ResidualJain,
	})
}
