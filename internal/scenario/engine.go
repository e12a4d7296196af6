package scenario

import (
	"fmt"
	"time"

	"repro/internal/power"
)

// Ctx is what a scenario Run executes against: the run configuration plus
// the engine-shared caches. Drivers route every shared structure build
// through the Cache helpers (Deploy, UDG, NN, UDGNet, NNNet, Baseline) and
// pass Slabs to the power measurement engine so weight slabs are reused
// across baselines sharing a base graph.
type Ctx struct {
	Cfg   Config
	Cache *Cache
	Slabs *power.SlabCache
}

// NewCtx returns a standalone Ctx with fresh caches — the entry point for
// running a single scenario outside an Engine (tests, benchmarks, the
// library RunExperiment path).
func NewCtx(cfg Config) *Ctx {
	return &Ctx{Cfg: cfg, Cache: NewCache(), Slabs: power.NewSlabCache()}
}

// Engine executes scenarios through shared caches and hands their finished
// tables to a sink. The zero value is not usable; construct with NewEngine.
type Engine struct {
	// Cache memoizes deployments, base graphs, SENS networks and baselines
	// across every scenario this engine runs.
	Cache *Cache
	// Slabs memoizes power.Measurer edge-weight slabs per (graph, β).
	Slabs *power.SlabCache
	// Sink receives each finished table; nil collects tables only.
	Sink Sink
	// Jobs bounds how many scenarios execute concurrently (≤ 1 = serial).
	// Scenario-internal parallelism (internal/parallel) is unaffected.
	Jobs int
}

// NewEngine returns an engine with fresh caches writing to sink (which may
// be nil).
func NewEngine(sink Sink) *Engine {
	return &Engine{Cache: NewCache(), Slabs: power.NewSlabCache(), Sink: sink, Jobs: 1}
}

// Run executes the scenarios and returns their tables in input order.
// Scenarios run concurrently up to e.Jobs, but tables are emitted to the
// sink strictly in input order, each as soon as it and all its predecessors
// have finished — so sink output is byte-identical at any Jobs value and
// consumers see results stream in while later scenarios still compute.
func (e *Engine) Run(cfg Config, scs []Scenario) ([]*Table, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	tables := make([]*Table, len(scs))
	elapsed := make([]time.Duration, len(scs))

	jobs := e.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(scs) {
		jobs = len(scs)
	}

	run := func(i int) {
		//sensvet:allow detclock — per-scenario wall time reaches the sink only as Table's elapsed argument, never a result table
		start := time.Now()
		ctx := &Ctx{Cfg: cfg, Cache: e.Cache, Slabs: e.Slabs}
		tables[i] = scs[i].Run(ctx)
		//sensvet:allow detclock — same out-of-band timing; elapsed never reaches table bytes
		elapsed[i] = time.Since(start)
	}

	if jobs == 1 {
		// Serial: run and emit interleaved, so each table streams out before
		// the next scenario starts.
		for i := range scs {
			run(i)
			if err := e.emit(scs[i], tables[i], elapsed[i]); err != nil {
				return tables, err
			}
		}
		return tables, nil
	}

	// Concurrent: a bounded worker pool computes; the main goroutine emits
	// in input order as results complete.
	done := make([]chan struct{}, len(scs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	for i := range scs {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			run(i)
			close(done[i])
		}(i)
	}
	var emitErr error
	for i := range scs {
		<-done[i]
		if emitErr == nil {
			emitErr = e.emit(scs[i], tables[i], elapsed[i])
		}
	}
	return tables, emitErr
}

// emit hands one finished table and its wall time to the sink, if any.
func (e *Engine) emit(sc Scenario, t *Table, d time.Duration) error {
	if t == nil {
		return fmt.Errorf("scenario: %s returned a nil table", sc.ID)
	}
	if e.Sink == nil {
		return nil
	}
	return e.Sink.Table(t, d)
}
