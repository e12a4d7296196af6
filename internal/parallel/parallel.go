// Package parallel provides the shared data-parallel primitives used by the
// graph-construction pipeline and the experiment drivers: work-stealing
// ForGrain/ForShard loops and a sharded Collect that gathers per-shard results into one
// slice with a deterministic merge order.
//
// Determinism contract: Collect splits [0, n) into fixed-size shards whose
// boundaries depend only on n — never on GOMAXPROCS or scheduling — and
// concatenates the per-shard buffers in shard order. A caller whose shard
// function is a pure function of its index range therefore gets a
// bit-identical result slice at any worker count, which is what lets the
// parallel graph builders promise "same seed ⇒ identical CSR".
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// shardSize is the default number of indices per Collect/ForShard shard. Fixed
// (rather than derived from the worker count) so shard boundaries are a
// pure function of n; large enough to amortize per-shard scratch
// allocations and scheduling overhead over ~10³ items. Loops whose
// per-item work dwarfs that overhead — an experiment row, a full Dijkstra
// sweep — would serialize whenever n ≤ shardSize, so the *Grain variants
// let those callers choose a finer, still-pure-function-of-n granularity.
const shardSize = 1024

// DefaultGrain is the shard size ForShard/Collect use when no explicit grain is
// given — exported so capacity-hinting callers (CollectCap) can size their
// per-shard buffers for the default sharding.
const DefaultGrain = shardSize

// Workers returns the number of workers ForShard and Collect will use for n
// items at the default grain: min(GOMAXPROCS, number of shards).
func Workers(n int) int {
	shards := (n + shardSize - 1) / shardSize
	w := runtime.GOMAXPROCS(0)
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForGrain runs fn(i) for every i in [0, n) across all cores, in shards of
// grain indices, and waits for completion. Iterations must be independent;
// fn is called from multiple goroutines, and scheduling is dynamic
// (shard-grained work stealing), so fn must not rely on any particular
// assignment of indices to goroutines. Coarse-grained callers whose
// per-item cost dwarfs scheduling overhead (experiment rows, shortest-path
// sweeps) pass a small grain — typically 1 — so up to n items run
// concurrently even when n is far below the default shard size. Boundaries
// stay a pure function of (n, grain), preserving the determinism contract.
func ForGrain(n, grain int, fn func(i int)) {
	forShardGrain(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForShard runs fn(lo, hi) over a fixed-size sharding of [0, n) across all
// cores and waits. It is the loop-blocked form of ForGrain: callers that need
// worker-local scratch allocate it once per shard instead of once per index.
func ForShard(n int, fn func(lo, hi int)) {
	forShardGrain(n, shardSize, fn)
}

func forShardGrain(n, sz int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if sz < 1 {
		sz = 1
	}
	shards := (n + sz - 1) / sz
	workers := runtime.GOMAXPROCS(0)
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s*sz, min((s+1)*sz, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(s*sz, min((s+1)*sz, n))
			}
		}()
	}
	wg.Wait()
}

// ForScratch runs fn(s, lo, hi) over a sharding of [0, n) into grain-sized
// shards across all cores and waits. Each worker calls newScratch once, at
// its first shard, and hands that value to every shard it runs: scratch is
// per worker, never per shard. Shard boundaries depend only on (n, grain);
// a caller whose output is independent of which worker ran a shard gets the
// same result at any GOMAXPROCS. One shard, or one core, runs on the
// calling goroutine.
func ForScratch[S any](n, grain int, newScratch func() S, fn func(s S, lo, hi int)) {
	if n <= 0 {
		return
	}
	sz := max(grain, 1)
	shards := (n + sz - 1) / sz
	workers := min(runtime.GOMAXPROCS(0), shards)
	if workers <= 1 {
		s := newScratch()
		for i := 0; i < shards; i++ {
			fn(s, i*sz, min((i+1)*sz, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			for started := false; ; started = true {
				i := int(next.Add(1)) - 1
				if i >= shards {
					return
				}
				if !started {
					s = newScratch()
				}
				fn(s, i*sz, min((i+1)*sz, n))
			}
		}()
	}
	wg.Wait()
}

// Collect runs fn over a fixed-size sharding of [0, n) across all cores and
// returns the per-shard outputs concatenated in shard order. fn receives its
// index range [lo, hi) and a buffer to append to (nil on entry) and returns
// the extended buffer; it must not retain the buffer after returning.
//
// If fn's output for a shard depends only on the shard's index range, the
// returned slice is identical regardless of GOMAXPROCS.
func Collect[T any](n int, fn func(lo, hi int, out []T) []T) []T {
	return CollectGrain(n, shardSize, fn)
}

// CollectGrain is Collect with an explicit shard size (see ForGrain):
// coarse-grained producers pass a small grain so their items spread across
// cores even for small n, at the cost of per-shard scratch amortization.
func CollectGrain[T any](n, grain int, fn func(lo, hi int, out []T) []T) []T {
	return CollectCap(n, grain, 0, fn)
}

// CollectCap is CollectGrain with a per-shard output capacity hint: fn
// receives an empty buffer of the given capacity instead of nil, so
// producers whose output size is predictable (e.g. a fixed-radius graph
// builder that knows the expected degree) avoid the append-growth
// reallocation ladder on every shard. A hint of 0 is identical to
// CollectGrain. The capacity hint has no effect on the merged result, so
// the determinism contract is unchanged.
func CollectCap[T any](n, grain, capacity int, fn func(lo, hi int, out []T) []T) []T {
	if n <= 0 {
		return nil
	}
	sz := grain
	if sz < 1 {
		sz = 1
	}
	buf := func() []T {
		if capacity <= 0 {
			return nil
		}
		return make([]T, 0, capacity)
	}
	shards := (n + sz - 1) / sz
	if shards == 1 {
		return fn(0, n, buf())
	}
	bufs := make([][]T, shards)
	forShardGrain(n, sz, func(lo, hi int) {
		bufs[lo/sz] = fn(lo, hi, buf())
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]T, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
