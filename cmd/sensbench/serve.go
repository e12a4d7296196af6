package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serveLoad is the traffic of one serve workload: an open loop of queries
// stepped up a rate ladder until a step breaks the SLO.
type serveLoad struct {
	path    string
	ladder  []float64     // offered rates in queries per second, ascending
	ref     int           // the reference step: longer, and the source of the latency metrics
	slo     time.Duration // p99 limit of a passing step
	tail    float64       // quantile reported as tail_ms
	stretch bool          // stretch queries from the quadrant gateways; route queries otherwise
}

// routeLoad queries shortest routes between uniform member pairs: the
// serving layer (decode, batch wait, encode, HTTP) dominates, since sweeps
// over the sparse SENS graph are small.
var routeLoad = serveLoad{
	path:   "/query/route",
	ladder: []float64{160, 200, 250, 320, 400, 500, 640},
	ref:    1,
	slo:    20 * time.Millisecond,
	tail:   0.99,
}

// stretchLoad queries stretch from the four gateway nodes: base-graph
// Dijkstra sweeps dominate, and the shared sources are what batching
// exploits.
var stretchLoad = serveLoad{
	path:    "/query/stretch",
	ladder:  []float64{5, 10, 15, 22, 33, 50},
	ref:     1,
	slo:     100 * time.Millisecond,
	tail:    0.9,
	stretch: true,
}

const (
	serveSide     = 25.0 // snapshot box side at -size 1: ~10⁴ points
	serveLambda   = 16.0
	serveBeta     = 3.0
	servePairs    = 4 // pairs per query
	serveRollover = time.Second
	serveDigestN  = 100 // leading reference-step queries whose answers feed the digest
	serveAchieved = 0.95
)

// reqResult is one request of the open loop; times are in ms from the
// request's due time.
type reqResult struct {
	lat, lag float64
	sent     time.Duration // since the step started
	traced   bool
	status   int
	body     []byte
	err      error
}

func runServe(b *bench, load serveLoad) error {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(context.Background()) // its only error is the context's, which never ends
		<-served
	}()
	url := "http://" + ln.Addr().String()
	tp := &http.Transport{MaxConnsPerHost: b.conns, MaxIdleConnsPerHost: b.conns}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: time.Minute}

	spec := func(k uint64) serve.BuildSpec {
		return serve.BuildSpec{Kind: "udg", Seed: uint64(rng.Derive(rng.Seed(b.seed), k)), Side: serveSide * b.size, Lambda: serveLambda}
	}

	// Set-up: staged builds that do not become current, so the rollover
	// writer never retires them. Every query names the first one.
	var buildMs []float64
	var snapID string
	if err := b.setup(func(k int) error {
		info, err := postSnapshot(client, url, spec(uint64(k)), false)
		if err != nil {
			return err
		}
		buildMs = append(buildMs, info.BuildMillis)
		if k == 0 {
			snapID = info.ID
		}
		return nil
	}); err != nil {
		return err
	}

	// The benchmark's own copy of the snapshot: pair candidates and the
	// direct answers the responses are checked against.
	snap, err := serve.Build(spec(0))
	if err != nil {
		return err
	}
	if snap.Info.ID != snapID || len(snap.Members) < 2 {
		return fmt.Errorf("direct snapshot %s with %d members, server built %s", snap.Info.ID, len(snap.Members), snapID)
	}
	fmt.Fprintf(b.dig, "%s %d %d\n", snap.Info.ID, snap.Info.Members, snap.Info.Edges)
	sinks := energy.QuadrantSinks(snap.Pts, snap.Members)
	queries := func(step, n int) ([][]byte, [][]power.Pair) {
		r := rng.Sub(rng.Seed(b.seed), uint64(1000+step))
		bodies := make([][]byte, n)
		pairs := make([][]power.Pair, n)
		for i := range bodies {
			q := serve.QueryRequest{Snapshot: snapID, Beta: serveBeta, Pairs: make([]serve.PairSpec, servePairs)}
			pairs[i] = make([]power.Pair, servePairs)
			for j := range q.Pairs {
				var u int32
				if load.stretch {
					u = sinks[r.IntN(len(sinks))]
				} else {
					u = snap.Members[r.IntN(len(snap.Members))]
				}
				v := snap.Members[r.IntN(len(snap.Members))]
				q.Pairs[j] = serve.PairSpec{U: u, V: v}
				pairs[i][j] = power.Pair{U: u, V: v}
			}
			bodies[i], _ = json.Marshal(q) // plain structs always encode
		}
		return bodies, pairs
	}

	// The rollover writer replaces the current snapshot once a second. It
	// shares the load generator's connections, so the load never holds
	// more than b.conns.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rollMs, rollBuildMs []float64
	var rollErrs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(serveRollover)
		defer tick.Stop()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			id := b.tr.begin("http.rollover", -1, -int64(k)-1)
			t0 := time.Now()
			info, err := postSnapshot(client, url, spec(1000+k), true)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			b.tr.end(id)
			if err != nil {
				rollErrs = append(rollErrs, err)
				continue
			}
			rollMs = append(rollMs, ms)
			rollBuildMs = append(rollBuildMs, info.BuildMillis)
		}
	}()

	var ot opTimes
	var refOut []reqResult
	var refPairs [][]power.Pair
	var reqs int64
	maxQPS := 0.0
	for i, rate := range load.ladder {
		dur := b.seconds / 2 / time.Duration(len(load.ladder)-1)
		if i == load.ref {
			dur = b.seconds / 2
		}
		n := max(1, int(math.Round(rate*dur.Seconds())))
		bodies, pairs := queries(i, n)
		if b.tr != nil && i == load.ref {
			ot.allocs.start()
		}
		outs, achieved := b.openLoop(client, url+load.path, bodies, rate, reqs)
		if b.tr != nil && i == load.ref {
			ot.allocs.stop(n)
		}
		reqs += int64(n)
		b.attempted += n
		var lat []float64
		failed := 0
		for k, o := range outs {
			lat = append(lat, o.lat)
			if o.err != nil || o.status != http.StatusOK {
				failed++
				b.fail("%v qps request %d: status %d, %v: %s", rate, k, o.status, o.err, o.body)
			}
		}
		pass := failed == 0 && quantile(lat, 0.99) <= float64(load.slo.Microseconds())/1e3 && achieved >= serveAchieved*rate
		if pass {
			maxQPS = rate
		}
		if i == load.ref {
			refOut, refPairs = outs, pairs
		}
		if !pass && i >= load.ref {
			break
		}
	}
	close(stop)
	wg.Wait()
	b.attempted += len(rollMs) + len(rollErrs)
	for _, err := range rollErrs {
		b.fail("rollover: %v", err)
	}

	var lag []float64
	for _, o := range refOut {
		var tr *tracer
		if o.traced {
			tr = b.tr
		}
		ot.add(tr, o.lat)
		lag = append(lag, o.lag)
	}
	ot.report(b, load.tail)

	var ms serve.MetricsSnapshot
	if err := getJSON(client, url+"/metrics", &ms); err != nil {
		return err
	}
	checkResponses(b, load, snap, refOut, refPairs)
	_, digestPairs := queries(load.ref, serveDigestN)
	fmt.Fprintf(b.dig, "%+v\n", direct(load, snap, slices.Concat(digestPairs...)))

	if b.tr != nil {
		b.metrics["serve.build_ms"] = median(append(buildMs, rollBuildMs...))
		if len(rollMs) > 0 {
			b.metrics["serve.rollover_ms"] = median(rollMs)
		}
		for _, ep := range []string{"route", "stretch", "snapshots"} {
			b.metrics["serve."+ep+"_p50_us"] = float64(ms.Endpoints[ep].P50Us)
			b.metrics["serve."+ep+"_p99_us"] = float64(ms.Endpoints[ep].P99Us)
		}
		b.metrics["serve.batch.flushes"] = float64(ms.Batcher.Flushes)
		b.metrics["serve.batch.queries_per_flush"] = ms.Batcher.QueriesPerFlush
		b.metrics["serve.batch.multi_flushes"] = float64(ms.Batcher.MultiQueryFlushes)
		b.metrics["serve.pool.shed"] = float64(ms.Pool.Rejected)
		b.metrics["power.slab_hits"] = float64(ms.SlabHits)
		b.metrics["power.slab_misses"] = float64(ms.SlabMisses)
		b.metrics["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
		b.metrics["loadgen.max_qps"] = maxQPS
		measureProbes(b, load, snap, refPairs)
	}
	// The responses are dead here: the heap holds the server's snapshots
	// and the benchmark's copy of the queried one.
	b.setHeap()
	runtime.KeepAlive(srv)
	runtime.KeepAlive(snap)
	return nil
}

// openLoop sends bodies[i] due at i/rate seconds after the start over at
// most b.conns connections, each request timed from its due time: a
// request that waits for a free connection counts that wait. It returns
// the results and the achieved send rate.
func (b *bench) openLoop(client *http.Client, url string, bodies [][]byte, rate float64, req0 int64) ([]reqResult, float64) {
	outs := make([]reqResult, len(bodies))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				tr := b.traced(int(req0) + i)
				id := tr.begin("http.request", -1, req0+int64(i))
				sent := time.Now()
				status, body, err := post(client, url, bodies[i])
				done := time.Now()
				tr.end(id)
				outs[i] = reqResult{
					lat: float64(done.Sub(due).Nanoseconds()) / 1e6, lag: float64(sent.Sub(due).Nanoseconds()) / 1e6,
					sent: sent.Sub(start), traced: tr != nil, status: status, body: body, err: err,
				}
			}
		}()
	}
	wg.Wait()
	var last time.Duration
	for _, o := range outs {
		last = max(last, o.sent)
	}
	return outs, float64(len(bodies)) / (last + interval).Seconds()
}

// checkResponses decodes every successful reference-step response and
// compares it field for field with the direct answer to its pairs.
func checkResponses(b *bench, load serveLoad, snap *serve.Snapshot, outs []reqResult, pairs [][]power.Pair) {
	want := direct(load, snap, slices.Concat(pairs...))
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			continue // counted as failed when sent
		}
		var resp struct {
			Snapshot string
			Beta     float64
			Results  json.RawMessage
		}
		err := json.Unmarshal(o.body, &resp)
		var got []any
		if err == nil && load.stretch {
			var rs []serve.StretchResult
			err = json.Unmarshal(resp.Results, &rs)
			for _, r := range rs {
				got = append(got, r)
			}
		} else if err == nil {
			var rs []serve.RouteResult
			err = json.Unmarshal(resp.Results, &rs)
			for _, r := range rs {
				got = append(got, r)
			}
		}
		b.check(err == nil && resp.Snapshot == snap.Info.ID && resp.Beta == serveBeta &&
			slices.Equal(got, want[i*servePairs:(i+1)*servePairs]),
			"reference response %d differs from the direct answer: %s", i, o.body)
	}
}

// direct answers the pairs with a power.Measurer over the snapshot,
// converted to the wire form the API documents: unreachable pairs carry
// zeroed costs and hops −1.
func direct(load serveLoad, snap *serve.Snapshot, pairs []power.Pair) []any {
	base := snap.Base
	if !load.stretch {
		base = nil
	}
	samples := power.NewMeasurer(snap.Graph, base, snap.Pts, power.BatchSpec{Beta: serveBeta, Hops: true}).Pairs(pairs)
	out := make([]any, len(samples))
	for i, s := range samples {
		if load.stretch {
			out[i] = wireStretch(s)
		} else {
			out[i] = wireRoute(s)
		}
	}
	return out
}

func wireRoute(s power.StretchSample) serve.RouteResult {
	r := serve.RouteResult{U: s.U, V: s.V, Euclid: s.Euclid, Hops: s.Hops}
	if math.IsInf(s.SubLen, 1) {
		r.Hops = -1
		return r
	}
	r.Reachable, r.Len = true, s.SubLen
	if !math.IsInf(s.PowerSub, 1) {
		r.Power = s.PowerSub
	}
	return r
}

func wireStretch(s power.StretchSample) serve.StretchResult {
	r := serve.StretchResult{RouteResult: wireRoute(s)}
	if math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1) {
		r.Reachable, r.Len, r.Power = false, 0, 0
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

// measureProbes times the measurement layer alone on the reference step's
// pair sets: a warm measurer per query, as the batcher builds one per
// flush, and cold measurers that fill their weight slabs.
func measureProbes(b *bench, load serveLoad, snap *serve.Snapshot, pairs [][]power.Pair) {
	base := snap.Base
	if !load.stretch {
		base = nil
	}
	spec := power.BatchSpec{Beta: serveBeta, Hops: true}
	for i := 0; i < setupRuns; i++ {
		id := b.tr.begin("power.NewMeasurer", -1, int64(i))
		power.NewMeasurer(snap.Graph, base, snap.Pts, spec)
		b.tr.end(id)
	}
	slabs := power.NewSlabCache()
	power.NewMeasurerCached(snap.Graph, base, snap.Pts, spec, slabs)
	for i, ps := range pairs {
		id := b.tr.begin("power.Measurer.Pairs", -1, int64(i))
		power.NewMeasurerCached(snap.Graph, base, snap.Pts, spec, slabs).Pairs(ps)
		b.tr.end(id)
	}
	b.metrics["power.slab_fill_ms"] = median(b.tr.durations("power.NewMeasurer"))
	b.metrics["power.pairs_us"] = median(b.tr.durations("power.Measurer.Pairs")) * 1e3
}

// postSnapshot builds a snapshot through POST /snapshots. A current
// snapshot replaces the previous current one; a staged one stays beside
// it.
func postSnapshot(client *http.Client, url string, sp serve.BuildSpec, current bool) (serve.SnapshotInfo, error) {
	body, err := json.Marshal(serve.SnapshotRequest{BuildSpec: sp, Activate: &current, Replace: current})
	if err != nil {
		return serve.SnapshotInfo{}, err
	}
	status, data, err := post(client, url+"/snapshots", body)
	if err != nil {
		return serve.SnapshotInfo{}, err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return serve.SnapshotInfo{}, fmt.Errorf("POST /snapshots: status %d: %s", status, data)
	}
	var resp serve.SnapshotResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return serve.SnapshotInfo{}, fmt.Errorf("POST /snapshots: %w", err)
	}
	return resp.Snapshot, nil
}

// post sends one JSON body and returns the status and the response body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON decodes the body of GET url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New("GET " + url + ": " + resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
