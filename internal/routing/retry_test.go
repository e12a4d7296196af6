package routing

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/rng"
)

// openLattice returns a fully open w×h lattice.
func openLattice(w, h int) *lattice.Lattice {
	l := lattice.New(w, h)
	for i := range l.Open {
		l.Open[i] = true
	}
	return l
}

// TestLossZeroBitIdentical pins the compatibility guarantee: with Loss == 0
// the retry machinery is inert — no RNG is consulted (Rng stays nil), every
// hop is one attempt, and the result matches the historical router field
// for field.
func TestLossZeroBitIdentical(t *testing.T) {
	g := rng.New(11)
	l := lattice.Sample(30, 30, 0.7, g)
	giant := l.LargestCluster()
	if len(giant) < 20 {
		t.Skip("subcritical realization")
	}
	a, b := giant[0], giant[len(giant)-1]
	ax, ay := l.XY(a)
	bx, by := l.XY(b)
	base := RouteXYWith(l, ax, ay, bx, by, Options{})
	withRetry := RouteXYWith(l, ax, ay, bx, by, Options{
		Retry: Retry{Attempts: 5, Backoff: 1, AltPath: true}, // policy set, loss zero
	})
	if base.Delivered != withRetry.Delivered || base.Hops != withRetry.Hops ||
		base.Probes != withRetry.Probes {
		t.Fatalf("loss-free routing diverged: %+v vs %+v", base, withRetry)
	}
	if withRetry.Attempts != withRetry.Hops || withRetry.Lost != 0 || withRetry.Backoff != 0 {
		t.Fatalf("loss-free retry accounting: %+v", withRetry)
	}
}

// TestLossOneFailsFast: a certainly-dead link must fail after a single
// attempt even under an unbounded retry policy.
func TestLossOneFailsFast(t *testing.T) {
	l := openLattice(5, 1)
	res := RouteXYWith(l, 0, 0, 4, 0, Options{
		Loss: 1, Rng: rng.Sub(1, 0),
		Retry: Retry{Attempts: -1, Backoff: 1},
	})
	if res.Delivered {
		t.Fatal("delivered across a loss-1 channel")
	}
	if res.Attempts != 1 || res.Lost != 1 {
		t.Fatalf("attempts=%d lost=%d, want 1/1 (fail fast)", res.Attempts, res.Lost)
	}
}

// TestRetryOffLossyLinkDrops: with the zero retry policy a single lost
// transmission kills the delivery — the baseline R03 contrasts against.
func TestRetryOffLossyLinkDrops(t *testing.T) {
	l := openLattice(10, 1)
	delivered := 0
	trials := 200
	for i := 0; i < trials; i++ {
		res := RouteXYWith(l, 0, 0, 9, 0, Options{Loss: 0.3, Rng: rng.Sub(7, uint64(i))})
		if res.Delivered {
			delivered++
		}
	}
	// Per-hop success 0.7 over 9 hops ≈ 4% — retries off must lose most.
	if delivered > trials/2 {
		t.Fatalf("retry-off delivered %d/%d on a 30%% lossy path", delivered, trials)
	}
}

// TestCappedRetryRestoresDelivery: the same lossy path with a capped
// jittered backoff policy recovers nearly all deliveries, and the recovery
// is paid for — every delivered packet made exactly Hops + Lost attempts,
// the transmission count R03's energy column prices.
func TestCappedRetryRestoresDelivery(t *testing.T) {
	l := openLattice(10, 1)
	delivered, attempts, hops := 0, 0, 0
	trials := 200
	for i := 0; i < trials; i++ {
		res := RouteXYWith(l, 0, 0, 9, 0, Options{
			Loss: 0.3, Rng: rng.Sub(7, uint64(i)),
			Retry: Retry{Attempts: 6, Backoff: 1, MaxBackoff: 8, Jitter: 0.5},
		})
		if res.Delivered && res.Attempts != res.Hops+res.Lost {
			t.Fatalf("substream %d: Attempts = %d, want Hops + Lost = %d + %d",
				i, res.Attempts, res.Hops, res.Lost)
		}
		if res.Delivered {
			delivered++
		}
		attempts += res.Attempts
		hops += res.Hops
	}
	if delivered < trials*9/10 {
		t.Fatalf("capped retry delivered only %d/%d", delivered, trials)
	}
	if attempts <= hops {
		t.Fatalf("attempts %d ≤ hops %d under 30%% loss: retransmissions missing", attempts, hops)
	}
}

// TestBackoffAccumulatesCappedJittered checks the wait arithmetic: attempt
// i waits base·2^(i−1), capped at MaxBackoff, jitter only shrinks waits.
func TestBackoffAccumulatesCappedJittered(t *testing.T) {
	l := openLattice(2, 1)
	// Force several losses then a success by scanning substreams for a run
	// with retransmissions.
	for i := 0; i < 50; i++ {
		res := RouteXYWith(l, 0, 0, 1, 0, Options{
			Loss: 0.6, Rng: rng.Sub(13, uint64(i)),
			Retry: Retry{Attempts: 10, Backoff: 2, MaxBackoff: 5},
		})
		if res.Lost == 0 {
			continue
		}
		// Without jitter the waits are exactly min(2·2^(k−1), 5).
		want := 0.0
		for k := 1; k <= res.Lost; k++ {
			w := 2.0 * float64(int(1)<<uint(k-1))
			if w > 5 {
				w = 5
			}
			want += w
		}
		if res.Backoff != want {
			t.Fatalf("substream %d: backoff %v after %d losses, want %v", i, res.Backoff, res.Lost, want)
		}
		// Jittered variant never waits longer.
		j := RouteXYWith(l, 0, 0, 1, 0, Options{
			Loss: 0.6, Rng: rng.Sub(13, uint64(i)),
			Retry: Retry{Attempts: 10, Backoff: 2, MaxBackoff: 5, Jitter: 0.5},
		})
		if j.Lost == res.Lost && j.Backoff > res.Backoff {
			t.Fatalf("jitter grew backoff: %v > %v", j.Backoff, res.Backoff)
		}
		return
	}
	t.Skip("no substream produced retransmissions")
}

// TestAltPathRoutesAroundExhaustedLink: on a 2-D lattice with alternate
// paths, AltPath turns terminal per-link failures into detours instead of
// undelivered packets.
func TestAltPathRoutesAroundExhaustedLink(t *testing.T) {
	l := openLattice(8, 8) // fully open: plenty of detours
	noAlt, alt := 0, 0
	trials := 150
	for i := 0; i < trials; i++ {
		r1 := RouteXYWith(l, 0, 0, 7, 7, Options{
			Loss: 0.45, Rng: rng.Sub(21, uint64(i)),
			Retry: Retry{Attempts: 2, Backoff: 1},
		})
		if r1.Delivered {
			noAlt++
		}
		r2 := RouteXYWith(l, 0, 0, 7, 7, Options{
			Loss: 0.45, Rng: rng.Sub(21, uint64(i)),
			Retry: Retry{Attempts: 2, Backoff: 1, AltPath: true},
		})
		if r2.Delivered {
			alt++
		}
	}
	if alt <= noAlt {
		t.Fatalf("alternate-path fallback did not improve delivery: %d vs %d over %d trials",
			alt, noAlt, trials)
	}
}

// TestRetryDeterministicPerSubstream: identical options and substream give
// identical results — the property that lets R03 pin golden tables.
func TestRetryDeterministicPerSubstream(t *testing.T) {
	g := rng.New(31)
	l := lattice.Sample(25, 25, 0.75, g)
	opt := func(i uint64) Options {
		return Options{
			Loss: 0.2, Rng: rng.Sub(31, i),
			Retry: Retry{Attempts: 4, Backoff: 1, MaxBackoff: 8, Jitter: 0.5, AltPath: true},
		}
	}
	for i := uint64(0); i < 20; i++ {
		a := RouteXYWith(l, 1, 1, 20, 20, opt(i))
		b := RouteXYWith(l, 1, 1, 20, 20, opt(i))
		if a.Delivered != b.Delivered || a.Attempts != b.Attempts ||
			a.Hops != b.Hops || a.Backoff != b.Backoff {
			t.Fatalf("substream %d: %+v vs %+v", i, a, b)
		}
	}
}
