package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memprof"
)

// TestSnapshotRolloverRace is the rollover-race satellite: query traffic
// hammers the current snapshot while the writer swaps it via POST
// /snapshots with replace:true. Run under -race this proves the atomic
// table rollover publishes no torn state; the assertions prove every
// response came from exactly one coherent snapshot.
func TestSnapshotRolloverRace(t *testing.T) {
	s := New(Config{Workers: 8})

	// Two alternating snapshot generations (distinct seeds → distinct ids).
	specA := `{"kind":"udg","seed":10,"side":8,"lambda":8,"replace":true}`
	specB := `{"kind":"udg","seed":11,"side":8,"lambda":8,"replace":true}`
	idA := loadSpec(t, s, specA)
	snapA, relA, ok := s.Store().Acquire(idA)
	if !ok {
		t.Fatal("snapshot A not acquirable after build")
	}
	relA()
	idB := loadSpec(t, s, specB)
	snapB, relB, ok := s.Store().Acquire(idB)
	if !ok {
		t.Fatal("snapshot B not acquirable after build")
	}
	relB()
	valid := map[string]bool{idA: true, idB: true}

	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := doReq(t, s, http.MethodPost, "/query/route", `{"pairs":[{"u":0,"v":1},{"u":2,"v":3}]}`)
				switch rec.Code {
				case http.StatusOK:
					var resp RouteResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("torn response body: %v (%s)", err, rec.Body.String())
						return
					}
					if !valid[resp.Snapshot] {
						t.Errorf("response from unknown snapshot %q", resp.Snapshot)
						return
					}
					if len(resp.Results) != 2 {
						t.Errorf("torn result set: %d results", len(resp.Results))
						return
					}
				case http.StatusTooManyRequests, http.StatusNotFound:
					// Load shedding and the instant between swaps are fine.
				default:
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Writer: alternate the two generations with replace rollovers. The
	// builds are cache hits after the first round (idempotent POST), so
	// this loop stresses the swap path, not the builder.
	for i := 0; i < 40; i++ {
		spec := specA
		if i%2 == 0 {
			spec = specB
		}
		rec := doReq(t, s, http.MethodPost, "/snapshots", spec)
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Fatalf("rollover %d: status %d body %s", i, rec.Code, rec.Body.String())
		}
	}
	stop.Store(true)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries completed during the rollover storm")
	}
	// Exactly one generation survives; the other is retired and — with all
	// query goroutines joined — fully drained.
	if n := s.Store().Len(); n != 1 {
		t.Fatalf("%d live snapshots after rollovers, want 1", n)
	}
	cur := s.Store().Current()
	if cur == nil {
		t.Fatal("no current snapshot after rollovers")
	}
	retiredSnap := snapA
	if cur == snapA {
		retiredSnap = snapB
	}
	if !retiredSnap.Retired() {
		t.Fatal("replaced snapshot not marked retired")
	}
	if !retiredSnap.Drained() {
		t.Fatal("replaced snapshot still holds references after all queries finished")
	}
	if cur.Retired() {
		t.Fatal("current snapshot is marked retired")
	}
}

// loadSpec POSTs a snapshot spec and returns the resulting id.
func loadSpec(t *testing.T, s *Server, spec string) string {
	t.Helper()
	rec := doReq(t, s, http.MethodPost, "/snapshots", spec)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("snapshot build: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode snapshot response: %v", err)
	}
	return resp.Snapshot.ID
}

// TestRolloverReleasesMemory is the drain-release satellite: after K
// replace rollovers only the final generation may stay live, so the heap
// growth across the rollovers must stay well under K snapshot footprints.
func TestRolloverReleasesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory accounting is noisy in -short aggregate runs")
	}
	s := New(Config{})

	// Earlier queries in this process leave sweep scratch in sync.Pools,
	// which survive one GC in the victim cache and drop at the next. This
	// GC plus ReadHeap's own empties them, so the pools' release does not
	// land inside the first delta and cancel the snapshot's footprint.
	runtime.GC()

	// First generation, measured: one snapshot's live footprint.
	before := memprof.ReadHeap()
	loadSpec(t, s, `{"kind":"udg","seed":20,"side":16,"lambda":16,"replace":true}`)
	afterFirst := memprof.ReadHeap()
	one := memprof.Delta(before, afterFirst).LiveBytes
	if one <= 0 {
		t.Skipf("snapshot footprint unmeasurable (delta %d)", one)
	}

	// Five more generations, each replacing its predecessor. Touch each
	// with a query so slabs populate (they must be released too).
	const rollovers = 5
	for i := 0; i < rollovers; i++ {
		loadSpec(t, s, fmt.Sprintf(`{"kind":"udg","seed":%d,"side":16,"lambda":16,"replace":true}`, 21+i))
		if rec := doReq(t, s, http.MethodPost, "/query/route", `{"beta":3,"pairs":[{"u":0,"v":1}]}`); rec.Code != http.StatusOK {
			t.Fatalf("rollover %d query: status %d", i, rec.Code)
		}
	}
	runtime.GC()
	afterAll := memprof.ReadHeap()
	growth := memprof.Delta(afterFirst, afterAll).LiveBytes

	// If drained snapshots leaked, growth would be ≈ rollovers × one. The
	// bound allows the final generation plus generous allocator noise.
	limit := 2*one + 1<<20
	if growth > limit {
		t.Fatalf("live heap grew %d bytes across %d rollovers (one snapshot ≈ %d, limit %d) — drained snapshots not released",
			growth, rollovers, one, limit)
	}
}
