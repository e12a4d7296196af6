package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, shardSize, shardSize + 1, 3*shardSize + 17} {
		hits := make([]int32, n)
		ForGrain(n, DefaultGrain, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
	ForGrain(0, DefaultGrain, func(i int) { t.Error("fn called for n=0") })
}

func TestForShardPartition(t *testing.T) {
	n := 2*shardSize + 100
	covered := make([]int32, n)
	ForShard(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad shard [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestCollectOrderIsDeterministic(t *testing.T) {
	n := 5*shardSize + 333
	run := func() []int {
		return Collect(n, func(lo, hi int, out []int) []int {
			for i := lo; i < hi; i++ {
				out = append(out, i*i)
			}
			return out
		})
	}
	want := run()
	if len(want) != n {
		t.Fatalf("Collect returned %d items, want %d", len(want), n)
	}
	// Result must equal the serial order regardless of worker count.
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	for i := range want {
		if want[i] != i*i || serial[i] != i*i {
			t.Fatalf("item %d: parallel %d serial %d want %d", i, want[i], serial[i], i*i)
		}
	}
}

func TestCollectEmptyAndSmall(t *testing.T) {
	if got := Collect(0, func(lo, hi int, out []byte) []byte { return append(out, 1) }); got != nil {
		t.Errorf("Collect(0) = %v", got)
	}
	got := Collect(3, func(lo, hi int, out []int) []int {
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	})
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Collect(3) = %v", got)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d", w)
	}
	if w := Workers(1 << 30); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(big) = %d want GOMAXPROCS", w)
	}
}

func TestGrainVariantsCoverAndSpread(t *testing.T) {
	// ForGrain(grain 1) covers every index exactly once, like the default grain.
	for _, n := range []int{0, 1, 3, 100, shardSize + 5} {
		hits := make([]int32, n)
		ForGrain(n, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
	// CollectGrain keeps the deterministic shard-order merge at any grain.
	for _, grain := range []int{1, 7, shardSize} {
		got := CollectGrain(100, grain, func(lo, hi int, out []int) []int {
			for i := lo; i < hi; i++ {
				out = append(out, i*i)
			}
			return out
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("grain=%d: item %d = %d", grain, i, v)
			}
		}
	}
	// The point of grain 1: a small coarse loop runs concurrently instead of
	// serializing under the 1024-item default shard.
	if runtime.GOMAXPROCS(0) > 1 {
		var cur, peak atomic.Int32
		ForGrain(64, 1, func(i int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
		if peak.Load() < 2 {
			t.Errorf("ForGrain(64, 1) peak concurrency %d at GOMAXPROCS %d", peak.Load(), runtime.GOMAXPROCS(0))
		}
	}
}

// TestForScratchPerWorker checks that ForScratch covers every index exactly
// once and makes at most one scratch per worker — and exactly one, on the
// calling goroutine, when everything fits in one shard.
func TestForScratchPerWorker(t *testing.T) {
	for _, tc := range []struct{ n, grain, procs int }{{0, 4, 2}, {5, 8, 4}, {100, 1, 1}, {100, 3, 4}, {1000, 7, 8}} {
		prev := runtime.GOMAXPROCS(tc.procs)
		hits := make([]int32, tc.n)
		var made atomic.Int32
		ForScratch(tc.n, tc.grain, func() *int { made.Add(1); return new(int) }, func(s *int, lo, hi int) {
			*s += hi - lo // scratch is never shared between goroutines
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		runtime.GOMAXPROCS(prev)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%+v: index %d hit %d times", tc, i, h)
			}
		}
		shards := (tc.n + tc.grain - 1) / tc.grain
		if m := int(made.Load()); m > min(tc.procs, shards) || (shards == 1 && m != 1) {
			t.Errorf("%+v: %d scratch values for %d shards", tc, m, shards)
		}
	}
}
