// Package routing implements the paper's §4.2 routing layer: the Angel–
// Benjamini–Ofek–Wieder algorithm for the giant component of a percolated
// mesh (Figure 9), and the adapter that runs it over a SENS network by
// mapping tiles to lattice sites through φ and expanding each lattice hop
// into the rep–relay–…–rep subpath (Figure 8).
//
// The algorithm follows the canonical x–y path (fix the x coordinate first,
// then y). When the next site is closed it launches a distributed BFS
// through the open cluster to find the nearest open site lying further
// along the x–y path, ships the packet along the BFS tree, and resumes.
// Angel et al. prove the expected number of probes is O(shortest path);
// experiment E12 reproduces that linear relationship.
package routing

import (
	"math/rand/v2"

	"repro/internal/lattice"
)

// Result reports one routing attempt on the lattice.
type Result struct {
	// Delivered is true when the packet reached the target site.
	Delivered bool
	// Hops is the number of lattice edges the packet traversed.
	Hops int
	// Probes counts site queries: each isOpen check on a prospective next
	// site and each site explored by recovery BFS rounds.
	Probes int
	// Attempts counts transmissions, including retransmissions; with no
	// link loss every hop is exactly one attempt, so Attempts == Hops.
	Attempts int
	// Lost counts failed transmission attempts (Attempts − Hops on a
	// delivered packet).
	Lost int
	// Backoff is the total simulated time spent waiting between
	// retransmissions under the retry policy.
	Backoff float64
	// Trajectory is the sequence of open sites visited by the packet,
	// starting at the source (inclusive).
	Trajectory []int32
}

// Retry is the retransmission policy applied per hop when link loss is
// enabled (Options.Loss > 0).
type Retry struct {
	// Attempts caps transmissions per hop: 0 or 1 means a single attempt
	// (retries off), n > 1 allows n transmissions, negative means unbounded.
	// A link with Loss ≥ 1 always fails after one attempt regardless — an
	// unbounded policy must not spin on a certainly-dead link.
	Attempts int
	// Backoff is the base wait after the first failed attempt; attempt i
	// waits Backoff·2^(i−1) (capped jittered exponential backoff).
	Backoff float64
	// MaxBackoff caps each individual wait (0 means uncapped).
	MaxBackoff float64
	// Jitter in [0, 1] randomly shaves each wait: wait ×= 1 − Jitter·U.
	Jitter float64
	// AltPath, when true, routes around a link whose attempts are exhausted:
	// the recovery BFS runs with the bad next site excluded. When false the
	// packet is simply undelivered — the retry-off baseline R03 measures.
	AltPath bool
}

// Options tunes RouteXYWith.
type Options struct {
	// ProbeBudget caps the number of probes (≤ 0 means unlimited); routing
	// fails once exhausted.
	ProbeBudget int
	// Memoize lets nodes cache probe answers: re-probing a site already
	// probed earlier in the same routing attempt is free and does not count
	// in Result.Probes. This models relays
	// remembering "is the tile over there good" answers — an ablation of
	// the stateless Angel et al. algorithm whose savings E12 quantifies.
	Memoize bool
	// Loss is the per-transmission link-loss probability. Zero keeps the
	// historical deterministic behavior bit-identical: no RNG is consulted
	// and every hop succeeds on its first attempt.
	Loss float64
	// Rng draws loss outcomes and backoff jitter; required when Loss > 0.
	Rng *rand.Rand
	// Retry is the per-hop retransmission policy; the zero value means a
	// single attempt per hop with no fallback.
	Retry Retry
}

// RouteXY routes a packet from (sx, sy) to (tx, ty) on the percolated
// lattice l with the stateless algorithm. Both endpoints must be open;
// routing fails (Delivered false) when the endpoints are in different open
// clusters or when probeBudget (≤ 0 means unlimited) is exhausted.
func RouteXY(l *lattice.Lattice, sx, sy, tx, ty int, probeBudget int) Result {
	return RouteXYWith(l, sx, sy, tx, ty, Options{ProbeBudget: probeBudget})
}

// RouteXYWith is RouteXY with explicit options.
func RouteXYWith(l *lattice.Lattice, sx, sy, tx, ty int, opt Options) Result {
	return RouteXYInto(l, sx, sy, tx, ty, opt, nil)
}

// Scratch holds the reusable buffers of RouteXYInto: the recovery-BFS
// visited/parent arrays and the probe-memo table, all round-stamped so reuse
// needs no clearing. One scratch per goroutine; Monte-Carlo loops that route
// many packets over same-sized lattices allocate nothing per route beyond
// the returned trajectory.
type Scratch struct {
	visited  []int32 // recovery-BFS stamp per site
	parent   []int32
	probedAt []int32 // attempt stamp per site (memoization)
	queue    []int32
	rev      []int32
	round    int32 // recovery-BFS stamp, monotonic across calls
	attempt  int32 // per-call stamp for probedAt
}

// resize readies the scratch for an n-site lattice, preserving stamps when
// the size is unchanged and guarding the stamp counters against wraparound.
func (sc *Scratch) resize(n int) {
	if len(sc.visited) != n || sc.round > 1<<30 || sc.attempt > 1<<30 {
		sc.visited = make([]int32, n)
		sc.parent = make([]int32, n)
		sc.probedAt = make([]int32, n)
		sc.round, sc.attempt = 0, 0
	}
}

// RouteXYInto is RouteXYWith with caller-owned scratch buffers (nil falls
// back to allocating fresh ones).
func RouteXYInto(l *lattice.Lattice, sx, sy, tx, ty int, opt Options, sc *Scratch) Result {
	res := Result{}
	if !l.IsOpen(sx, sy) || !l.IsOpen(tx, ty) {
		return res
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.resize(l.W * l.H)
	sc.attempt++
	cx, cy := sx, sy
	res.Trajectory = append(res.Trajectory, l.Idx(cx, cy))
	visited, parent := sc.visited, sc.parent
	probe := func(site int32) {
		if opt.Memoize {
			if sc.probedAt[site] == sc.attempt {
				return
			}
			sc.probedAt[site] = sc.attempt
		}
		res.Probes++
	}
	// transmit attempts the hop to site `to` under the loss model and retry
	// policy. Every attempt counts in Attempts (retries cost a
	// transmission); a successful attempt advances the trajectory. Returns
	// false when the policy's attempts are exhausted (or immediately on a
	// Loss ≥ 1 link, which an unbounded policy must not spin on). With
	// Loss == 0 this is the historical single-attempt hop and consults no
	// RNG.
	transmit := func(to int32) bool {
		for attempt := 1; ; attempt++ {
			res.Attempts++
			if opt.Loss <= 0 || opt.Rng.Float64() >= opt.Loss {
				res.Hops++
				res.Trajectory = append(res.Trajectory, to)
				return true
			}
			res.Lost++
			if opt.Loss >= 1 {
				return false
			}
			maxAttempts := opt.Retry.Attempts
			if maxAttempts == 0 {
				maxAttempts = 1
			}
			if maxAttempts > 0 && attempt >= maxAttempts {
				return false
			}
			shift := attempt - 1
			if shift > 30 {
				shift = 30
			}
			wait := opt.Retry.Backoff * float64(int64(1)<<uint(shift))
			if opt.Retry.MaxBackoff > 0 && wait > opt.Retry.MaxBackoff {
				wait = opt.Retry.MaxBackoff
			}
			if opt.Retry.Jitter > 0 {
				wait *= 1 - opt.Retry.Jitter*opt.Rng.Float64()
			}
			res.Backoff += wait
		}
	}

	budgetLeft := func() bool {
		return opt.ProbeBudget <= 0 || res.Probes < opt.ProbeBudget
	}

	for cx != tx || cy != ty {
		if !budgetLeft() {
			return res
		}
		nx, ny := computeNext(cx, cy, tx, ty)
		probe(l.Idx(nx, ny)) // isOpen(next)
		avoid := int32(-1)
		if l.IsOpen(nx, ny) {
			next := l.Idx(nx, ny)
			if transmit(next) {
				cx, cy = nx, ny
				continue
			}
			// Link exhausted its attempts. Without alternate-path fallback the
			// packet is undelivered; with it, the recovery BFS below routes
			// around the suspect site.
			if !opt.Retry.AltPath {
				return res
			}
			avoid = next
		}
		// Recovery: distributed BFS from curr through the open cluster for
		// an open site strictly further along the x–y path.
		sc.round++
		round := sc.round
		src := l.Idx(cx, cy)
		visited[src] = round
		parent[src] = -1
		queue := append(sc.queue[:0], src)
		found := int32(-1)
		for head := 0; head < len(queue) && found < 0; head++ {
			i := queue[head]
			x, y := l.XY(i)
			for d := 0; d < 4; d++ {
				nx, ny := x+dx4[d], y+dy4[d]
				if nx < 0 || nx >= l.W || ny < 0 || ny >= l.H {
					continue
				}
				ni := l.Idx(nx, ny)
				if visited[ni] == round {
					continue
				}
				visited[ni] = round
				if ni == avoid {
					// The site behind the exhausted link is treated as suspect
					// for this recovery round: not probed, not entered.
					continue
				}
				probe(ni) // probing this site costs a message
				if !budgetLeft() {
					sc.queue = queue
					return res
				}
				if !l.IsOpen(nx, ny) {
					continue
				}
				parent[ni] = i
				if ni != src && onXYPathBeyond(cx, cy, tx, ty, nx, ny) {
					found = ni
					break
				}
				queue = append(queue, ni)
			}
		}
		sc.queue = queue
		if found < 0 {
			// Open cluster exhausted: target unreachable.
			return res
		}
		// Ship the packet along the BFS tree path curr → found. A terminal
		// transmit failure mid-ship strands the packet at prev: with AltPath
		// the outer loop re-plans from there, otherwise it is undelivered.
		rev := sc.rev[:0]
		for i := found; i != src; i = parent[i] {
			rev = append(rev, i)
		}
		sc.rev = rev
		prev := src
		shipped := true
		for j := len(rev) - 1; j >= 0; j-- {
			if !transmit(rev[j]) {
				if !opt.Retry.AltPath {
					return res
				}
				shipped = false
				break
			}
			prev = rev[j]
		}
		if shipped {
			cx, cy = l.XY(found)
		} else {
			cx, cy = l.XY(prev)
		}
	}
	res.Delivered = true
	return res
}

var dx4 = [4]int{1, -1, 0, 0}
var dy4 = [4]int{0, 0, 1, -1}

// computeNext returns the next site along the canonical x–y path from
// (cx, cy) to (tx, ty): fix x first, then y.
func computeNext(cx, cy, tx, ty int) (int, int) {
	if cx < tx {
		return cx + 1, cy
	}
	if cx > tx {
		return cx - 1, cy
	}
	if cy < ty {
		return cx, cy + 1
	}
	return cx, cy - 1
}

// onXYPathBeyond reports whether site (x, y) lies on the x–y path from
// (cx, cy) to (tx, ty) strictly beyond (cx, cy). The path is the horizontal
// segment (cx..tx, cy) followed by the vertical segment (tx, cy..ty).
func onXYPathBeyond(cx, cy, tx, ty, x, y int) bool {
	if x == cx && y == cy {
		return false
	}
	// Horizontal leg.
	if y == cy && between(cx, tx, x) {
		return true
	}
	// Vertical leg.
	if x == tx && between(cy, ty, y) {
		return true
	}
	return false
}

// between reports a ≤ v ≤ b or b ≤ v ≤ a.
func between(a, b, v int) bool {
	if a <= b {
		return v >= a && v <= b
	}
	return v >= b && v <= a
}
