// Package sched provides persistent worker pools behind every parallel
// entry point of the library. The paper's run-time stage assumes
// dispatch is near-free; spawning goroutines per call is not, so a fixed
// set of workers is started once per Pool and parallel calls are split
// into super-batch-sized chunks that idle workers pull off a shared
// index — dynamic self-scheduling, so a slow worker never strands work
// the way a static split does.
//
// All state lives in Pool instances — the package has no globals. Each
// engine owns one Pool (via core.Runtime): a sharded EngineSet therefore
// gets strictly isolated worker fleets, and SetMaxWorkers lets the set
// place shards NUMA-style by capping each shard's fleet at its core
// budget instead of letting every shard claim the whole machine.
//
// A pool tracks GOMAXPROCS: every parallel call re-reads it and, when
// it changed (cgroup resize, runtime.GOMAXPROCS call), grows the pool
// with fresh workers or retires the surplus — the pool never stays
// permanently mis-sized for the machine it is running on.
//
// The workers convention, shared by every public WithWorkers option:
// workers <= 0 means "auto", i.e. one worker per GOMAXPROCS; workers == 1
// runs inline on the caller with zero goroutine traffic.
package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Pool is one persistent worker pool. The zero value is ready to use;
// all methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	jobs     chan func()
	poolSize atomic.Int64 // current (intended) worker count; 0 before first use
	maxSize  atomic.Int64 // SetMaxWorkers cap; 0 = uncapped (GOMAXPROCS)

	parallelCalls atomic.Uint64
	inlineCalls   atomic.Uint64
	chunksRun     atomic.Uint64
	poolShares    atomic.Uint64
	overflowRuns  atomic.Uint64
	poolResizes   atomic.Uint64
}

// NewPool returns an empty, independent worker pool. Workers are started
// lazily by the first parallel Run.
func NewPool() *Pool { return &Pool{} }

// SetMaxWorkers caps the pool's worker fleet at n (n <= 0 removes the
// cap). The cap bounds both the persistent fleet size and the effective
// worker count of each Run — an EngineSet uses it to give every shard a
// cores-per-shard budget instead of GOMAXPROCS. Takes effect on the next
// parallel call.
func (p *Pool) SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	p.maxSize.Store(int64(n))
}

// MaxWorkers returns the SetMaxWorkers cap (0 = uncapped).
func (p *Pool) MaxWorkers() int { return int(p.maxSize.Load()) }

// target returns the intended fleet size: GOMAXPROCS clamped by the cap.
func (p *Pool) target() int {
	t := runtime.GOMAXPROCS(0)
	if max := int(p.maxSize.Load()); max > 0 && max < t {
		t = max
	}
	return t
}

// Stats is a snapshot of one pool's lifetime counters.
type Stats struct {
	// Workers is the persistent pool size (0 until the first parallel
	// call). It follows GOMAXPROCS (clamped by SetMaxWorkers): the pool
	// re-reads it on every parallel call and resizes when it changed, so
	// a long-lived process whose CPU allotment shrinks or grows is
	// re-sized at its next parallel call rather than pinned to the
	// first-seen value.
	Workers       int
	MaxWorkers    int    // SetMaxWorkers cap (0 = uncapped)
	Resizes       uint64 // pool resizes after a GOMAXPROCS/cap change
	ParallelCalls uint64 // Run invocations that fanned out to the pool
	InlineCalls   uint64 // Run invocations executed entirely on the caller
	Chunks        uint64 // work chunks executed across all parallel calls
	PoolShares    uint64 // worker shares executed by pool goroutines
	OverflowRuns  uint64 // shares run on overflow goroutines (pool saturated)
}

// Add accumulates another pool's counters into s — the cross-shard
// aggregate view of an EngineSet. Workers sum (they are distinct
// fleets); MaxWorkers keeps the first non-zero cap seen.
func (s *Stats) Add(o Stats) {
	s.Workers += o.Workers
	if s.MaxWorkers == 0 {
		s.MaxWorkers = o.MaxWorkers
	}
	s.Resizes += o.Resizes
	s.ParallelCalls += o.ParallelCalls
	s.InlineCalls += o.InlineCalls
	s.Chunks += o.Chunks
	s.PoolShares += o.PoolShares
	s.OverflowRuns += o.OverflowRuns
}

// Snapshot returns the pool's current counters.
func (p *Pool) Snapshot() Stats {
	return Stats{
		Workers:       int(p.poolSize.Load()),
		MaxWorkers:    int(p.maxSize.Load()),
		Resizes:       p.poolResizes.Load(),
		ParallelCalls: p.parallelCalls.Load(),
		InlineCalls:   p.inlineCalls.Load(),
		Chunks:        p.chunksRun.Load(),
		PoolShares:    p.poolShares.Load(),
		OverflowRuns:  p.overflowRuns.Load(),
	}
}

// worker drains the shared queue; a nil job is a retire token consumed by
// exactly one worker when the pool shrinks.
func worker(jobs chan func()) {
	for f := range jobs {
		if f == nil {
			return
		}
		f()
	}
}

// ensurePool sizes the pool to the current target and returns the job
// queue. The fast path — size already matches — is one atomic load.
func (p *Pool) ensurePool() chan func() {
	target := p.target()
	if int(p.poolSize.Load()) == target {
		// The release store below orders the channel write before the
		// size becomes visible, so this read of jobs is safe.
		return p.jobs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := int(p.poolSize.Load())
	if cur == target {
		return p.jobs
	}
	if p.jobs == nil {
		p.jobs = make(chan func(), 4*runtime.GOMAXPROCS(0))
	}
	if cur > 0 {
		p.poolResizes.Add(1)
	}
	for ; cur < target; cur++ {
		go worker(p.jobs)
	}
	for ; cur > target; cur-- {
		p.jobs <- nil // retire one worker
	}
	p.poolSize.Store(int64(target))
	return p.jobs
}

// Resolve maps the public workers convention onto a concrete count:
// workers <= 0 means auto (GOMAXPROCS).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes fn over every index range of [0, n), split into chunks of
// `chunk` indices (<= 0 picks one proportional to n and the worker count).
// Up to `workers` participants (caller included) pull chunks dynamically;
// Run returns when all of [0, n) has been processed. fn must be safe for
// concurrent invocation on disjoint ranges.
func (p *Pool) Run(n, workers, chunk int, fn func(lo, hi int)) {
	p.RunLabeled(nil, n, workers, chunk, fn)
}

// RunLabeled is Run with an optional pprof label context: persistent pool
// workers adopt labels for the duration of their share, so CPU profiles
// attribute kernel samples to the dispatching call (op/dtype/shape).
// Overflow goroutines and the caller's own share need no handling — new
// goroutines inherit the spawner's labels, and the engine labels the
// caller before dispatch. labels == nil (the Run path) costs nothing.
func (p *Pool) RunLabeled(labels context.Context, n, workers, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if max := int(p.maxSize.Load()); max > 0 && workers > max {
		workers = max
	}
	if chunk <= 0 {
		chunk = n / (4 * workers)
		if chunk < 1 {
			chunk = 1
		}
	}
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	if workers == 1 {
		p.inlineCalls.Add(1)
		fn(0, n)
		return
	}
	queue := p.ensurePool()
	p.parallelCalls.Add(1)
	var next atomic.Int64
	body := func() {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			p.chunksRun.Add(1)
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers-1; i++ {
		wg.Add(1)
		share := func() {
			defer wg.Done()
			body()
		}
		pooled := func() { p.poolShares.Add(1); share() }
		if labels != nil {
			pooled = func() {
				p.poolShares.Add(1)
				pprof.SetGoroutineLabels(labels)
				share()
				pprof.SetGoroutineLabels(context.Background())
			}
		}
		select {
		case queue <- pooled:
		default:
			// Pool saturated (e.g. nested or highly concurrent calls):
			// fall back to a plain goroutine rather than queue behind
			// long-running shares.
			p.overflowRuns.Add(1)
			go share()
		}
	}
	// The caller is always a participant, so the call makes progress even
	// if every pool worker is busy elsewhere.
	body()
	wg.Wait()
}
