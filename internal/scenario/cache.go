package scenario

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hng"
	"repro/internal/mobility"
	"repro/internal/pointprocess"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/tiling"
)

// Cache memoizes the expensive shared structures of a suite run —
// deployments, base graphs, SENS networks, topology-control baselines —
// under string keys that are pure functions of (seed, parameters). Each key
// is built at most once per cache lifetime, even under concurrent lookups
// (per-entry once); everything else is a hit. A full-suite Engine run
// therefore rebuilds each shared structure at most once, which the
// cache-hit counter test pins.
//
// Correctness rule for cacheable builds: the build must consume its RNG
// substream exclusively (nothing else reads that stream afterwards), so
// that serving a later lookup from the cache is indistinguishable from
// rebuilding. The Ctx helpers all follow this rule; drivers whose substream
// continues past the build (E17's failure sampling reuses the deployment
// stream) must build directly.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int64
	misses  int64
}

type cacheEntry struct {
	once sync.Once
	val  any
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits    int64 // lookups served from an existing entry
	Misses  int64 // lookups that created the entry (== builds)
	Entries int   // distinct keys
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Get returns the value for key, building it (at most once across all
// callers) on the first lookup. The build runs outside the cache lock, so
// builds of distinct keys proceed in parallel; concurrent lookups of the
// same key block on the entry's once instead of duplicating work. The key
// must be a pure function of everything the build depends on.
func Get[T any](c *Cache, key string, build func() T) T {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val.(T)
}

// Deployment is a cached point deployment together with the cache key that
// identifies it, so derived structures (base graphs, networks) can extend
// the key instead of hashing the points.
type Deployment struct {
	Key string
	Box geom.Rect
	Pts []geom.Point
}

// netResult pairs a built network with its construction error so failed
// builds are memoized too (rebuilding would fail identically).
type netResult struct {
	net *core.Network
	err error
}

// NetOptions is the cache-keyable subset of core.Options: the semantic
// knobs of a SENS build. When SkipBase is false the cached base graph of
// the deployment (UDG at spec.Radius / NN at spec.K) is supplied to the
// construction, so networks and baseline measurements share one base.
type NetOptions struct {
	Election election.Algorithm
	SkipBase bool
}

// The key functions below are the one definition of each cache-key shape;
// serve.BuildSpec.Key composes the same functions, so a daemon snapshot's
// identity is the engine's key for the same structure.

// PoissonKey is the cache key of Ctx.Deploy's deployment.
func PoissonKey(seed rng.Seed, stream uint64, box geom.Rect, lambda float64) string {
	return fmt.Sprintf("poisson|s=%d|st=%d|box=%v|l=%v", seed, stream, box, lambda)
}

// PoissonSoAKey is the cache key of Ctx.DeploySoA's streamed deployment.
func PoissonSoAKey(seed rng.Seed, stream uint64, box geom.Rect, lambda, genSide float64) string {
	return fmt.Sprintf("poissonsoa|s=%d|st=%d|box=%v|l=%v|g=%v", seed, stream, box, lambda, genSide)
}

// UDGNetKey is the cache key of Ctx.UDGNet's network over the deployment
// with key depKey.
func UDGNetKey(depKey string, spec tiling.UDGSpec, opt NetOptions) string {
	return fmt.Sprintf("udgsens|%s|spec=%+v|opt=%+v", depKey, spec, opt)
}

// HNGKey is the cache key of Ctx.HNG's graph over the deployment with key
// depKey.
func HNGKey(depKey string, spec hng.Spec, stream uint64) string {
	return fmt.Sprintf("hng|%s|spec=%+v|st=%d", depKey, spec, stream)
}

// Deploy returns the Poisson(λ) deployment for substream stream of the
// seed, building it on first use. The substream is consumed entirely by the
// deployment (see the Cache correctness rule).
func (c *Ctx) Deploy(stream uint64, box geom.Rect, lambda float64) Deployment {
	key := PoissonKey(c.Cfg.Seed, stream, box, lambda)
	pts := Get(c.Cache, key, func() []geom.Point {
		return pointprocess.Poisson(box, lambda, rng.Sub(c.Cfg.Seed, stream))
	})
	return Deployment{Key: key, Box: box, Pts: pts}
}

// DeploySoA returns the streamed (tile-generated) Poisson deployment for
// substream stream: pointprocess.PoissonSoA draws each generation tile of
// side genSide from its own derived substream, so the result is
// cache-eligible (every tile substream is consumed entirely; see
// docs/scenarios.md §3). genSide is part of the identity — it changes the
// tile boundaries and therefore which substream each point is drawn from —
// so it joins the cache key: two genSide values at equal (seed, stream,
// box, λ) are distinct deployments and must miss each other in the cache.
// The SoA seed is Derive(seed, stream), not the raw seed, so tile
// substreams cannot collide with scenario stream numbers.
func (c *Ctx) DeploySoA(stream uint64, box geom.Rect, lambda, genSide float64) Deployment {
	key := PoissonSoAKey(c.Cfg.Seed, stream, box, lambda, genSide)
	pts := Get(c.Cache, key, func() []geom.Point {
		return pointprocess.PoissonSoA(box, lambda, rng.Derive(c.Cfg.Seed, stream), genSide).Points(nil)
	})
	return Deployment{Key: key, Box: box, Pts: pts}
}

// DeployGradient returns the inhomogeneous deployment whose intensity ramps
// linearly from lambda0 to lambda1 across box (E18's model), cached like
// Deploy.
func (c *Ctx) DeployGradient(stream uint64, box geom.Rect, lambda0, lambda1 float64) Deployment {
	key := fmt.Sprintf("gradient|s=%d|st=%d|box=%v|l0=%v|l1=%v",
		c.Cfg.Seed, stream, box, lambda0, lambda1)
	pts := Get(c.Cache, key, func() []geom.Point {
		grad := pointprocess.LinearGradient(box, lambda0, lambda1)
		return pointprocess.Inhomogeneous(box, grad, max(lambda0, lambda1), rng.Sub(c.Cfg.Seed, stream))
	})
	return Deployment{Key: key, Box: box, Pts: pts}
}

// UDG returns the cached unit-disk base graph of radius r over the
// deployment.
func (c *Ctx) UDG(dep Deployment, r float64) *rgg.Geometric {
	return Get(c.Cache, fmt.Sprintf("udg|%s|r=%v", dep.Key, r), func() *rgg.Geometric {
		return rgg.UDG(dep.Pts, r)
	})
}

// NN returns the cached k-nearest-neighbor base graph over the deployment.
func (c *Ctx) NN(dep Deployment, k int) *rgg.Geometric {
	return Get(c.Cache, fmt.Sprintf("nn|%s|k=%d", dep.Key, k), func() *rgg.Geometric {
		return rgg.NN(dep.Pts, k)
	})
}

// Baseline returns a cached topology-control structure derived from a
// cached base graph. name identifies the construction ("gabriel", "rng",
// "yao6", "emst", "knn6"); baseKey must identify every input of build (use
// the Deployment/UDG/NN key schemes), making baseKey+name a sound cache
// key.
func (c *Ctx) Baseline(name, baseKey string, build func() *rgg.Geometric) *rgg.Geometric {
	return Get(c.Cache, fmt.Sprintf("topo|%s|%s", baseKey, name), build)
}

// UDGNet returns the cached UDG-SENS network over the deployment. Unless
// opt.SkipBase, the cached UDG base at spec.Radius is shared with the
// construction (identical to letting core.BuildUDG build it: same points,
// same radius).
func (c *Ctx) UDGNet(dep Deployment, spec tiling.UDGSpec, opt NetOptions) (*core.Network, error) {
	key := UDGNetKey(dep.Key, spec, opt)
	r := Get(c.Cache, key, func() netResult {
		co := core.Options{Election: opt.Election, SkipBase: opt.SkipBase}
		if !opt.SkipBase {
			co.Base = c.UDG(dep, spec.Radius)
		}
		n, err := core.BuildUDG(dep.Pts, dep.Box, spec, co)
		return netResult{n, err}
	})
	return r.net, r.err
}

// hngResult pairs a built HNG with its construction error so failed builds
// (invalid specs) are memoized like netResult.
type hngResult struct {
	g   *hng.Graph
	err error
}

// HNG returns the cached hierarchical neighbor graph over the deployment,
// built from substream stream of the seed. The substream drives only the
// level promotion draws and is consumed entirely by the build (hng.Build's
// contract), so HNG builds satisfy the Cache correctness rule; scenarios
// sweeping a spec parameter must give each spec its own stream.
func (c *Ctx) HNG(dep Deployment, spec hng.Spec, stream uint64) (*hng.Graph, error) {
	key := HNGKey(dep.Key, spec, stream)
	r := Get(c.Cache, key, func() hngResult {
		g, err := hng.Build(dep.Pts, spec, rng.Sub(c.Cfg.Seed, stream))
		return hngResult{g, err}
	})
	return r.g, r.err
}

// EnergyInstance is a prepared network-lifetime workload: the structure's
// graph and positions, the participating nodes, the deterministic sink
// choice and the per-role spare pool — everything energy.SimulateLifetime
// needs except the (per-scenario, substream-fresh) traffic randomness.
type EnergyInstance struct {
	// Graph is the simulated structure (CSR over all deployment points).
	Graph *graph.CSR
	// Pos holds the vertex positions pricing each hop.
	Pos []geom.Point
	// Nodes lists the participating vertices (members; sinks included).
	Nodes []int32
	// Sinks lists the mains-powered data collectors.
	Sinks []int32
	// Spares is the per-node standby pool for member rotation (may be nil).
	Spares []int
}

// Lifetime returns the cached lifetime instance for key, building it on
// first use. key must identify every input of build (extend the source
// structure's cache key, like Baseline does); the build must be
// deterministic — sink selection and spare allocation are geometric, so no
// RNG substream is involved and the Cache correctness rule holds trivially.
// The per-run traffic randomness stays outside the cache: scenarios draw it
// from fresh substreams per row.
func (c *Ctx) Lifetime(key string, build func() *EnergyInstance) *EnergyInstance {
	return Get(c.Cache, "lifetime|"+key, build)
}

// Faults returns the cached fault schedule for key, building it on first
// use. key must identify every input of build (extend the source
// structure's cache key and name the selector/fraction/stream). The build
// must follow the Cache correctness rule: targeted victim orderings are
// pure functions of the graph (no RNG at all), and random orderings must
// consume their substream entirely (fault.Victims' one shuffle does) —
// which is what makes schedules cache-eligible while the simulations
// applying them never are.
func (c *Ctx) Faults(key string, build func() *fault.Schedule) *fault.Schedule {
	return Get(c.Cache, "fault|"+key, build)
}

// Trajectory returns the cached mobility trajectory for the deployment
// under spec, sampled from substream stream of the seed. mobility.Sample
// draws each node's motion from a derived per-node substream and consumes
// all of them entirely, and a Trajectory is immutable pure data — so
// trajectories are cache-eligible under the Cache correctness rule exactly
// like fault schedules, while the simulations replaying them never are.
func (c *Ctx) Trajectory(dep Deployment, spec mobility.Spec, stream uint64) *mobility.Trajectory {
	key := fmt.Sprintf("traj|%s|spec=%+v|st=%d", dep.Key, spec, stream)
	return Get(c.Cache, key, func() *mobility.Trajectory {
		return mobility.Sample(dep.Pts, dep.Box, spec, c.Cfg.Seed, stream)
	})
}

// NNNet returns the cached NN-SENS network over the deployment. Unless
// opt.SkipBase, the cached NN base at spec.K is shared with the
// construction.
func (c *Ctx) NNNet(dep Deployment, spec tiling.NNSpec, opt NetOptions) (*core.Network, error) {
	key := fmt.Sprintf("nnsens|%s|spec=%+v|opt=%+v", dep.Key, spec, opt)
	r := Get(c.Cache, key, func() netResult {
		co := core.Options{Election: opt.Election, SkipBase: opt.SkipBase}
		if !opt.SkipBase {
			co.Base = c.NN(dep, spec.K)
		}
		n, err := core.BuildNN(dep.Pts, dep.Box, spec, co)
		return netResult{n, err}
	})
	return r.net, r.err
}
