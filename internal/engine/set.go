// Sharded multi-engine scale-out: a Set owns N fully isolated engines
// and routes every call by consistent hashing on the problem identity.
//
// The paper's run-time stage — and this reproduction through PR 5 — is a
// single dispatch loop: one engine, one submission queue, one dispatcher
// goroutine. Heavy mixed traffic therefore serializes behind one drain
// loop no matter how many cores the machine has. The Set multiplies the
// dispatcher while keeping the property that makes the run-time stage
// cheap: input-aware caches (plan cache, packed-operand cache, buffer
// pools) stay hot per problem identity, because the router sends every
// occurrence of one identity to the same shard.
//
//   - Routing is identity-affine: the route key hashes the op kind, mode
//     flags, dtype and operand dimensions — the same fields the async
//     coalescer partitions on, minus scalars, worker count and operand
//     aliasing (plan geometry ignores those); a chain folds its stages'
//     keys. Jump consistent hashing maps the key onto a shard, so the
//     mapping is stable for a given shard count and minimally disturbed
//     when the count changes.
//   - Every shard is a full Engine with its own core.Runtime: plan cache,
//     pack cache, buffer pools, worker pool, obs registry and submission
//     queue are strictly per-shard. A shard's packing churn cannot evict
//     a sibling's warm buffers; each shard's worker fleet is capped at
//     its share of the machine (NumCPU/shards) so shards place
//     NUMA-style instead of all fighting for every core.
//   - Bounded work stealing keeps the shards busy under skew: an idle
//     shard's dispatcher polls sibling queues and pulls up to half of the
//     deepest one, executing the stolen requests locally. Results are
//     bit-identical wherever a request runs — every shard shares the
//     tuning, and stolen prepack lookups re-key automatically because
//     packed-image identity (operand id, generation, plan geometry) is
//     engine-independent; the thief simply builds or reuses its own
//     cache entry.
//   - Backpressure falls sideways before failing: a Submit that finds its
//     home shard's queue full retries once on the least-loaded sibling
//     and only then returns ErrQueueFull.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iatf/internal/core"
	"iatf/internal/obs"
)

// coresPerShard is the default core budget per shard: DefaultShards
// carves the machine into fleets of this size.
const coresPerShard = 2

// DefaultShards returns the default shard count of NewSet:
// min(GOMAXPROCS, NumCPU/coresPerShard), floored at 1. One dispatcher
// per ~2 cores keeps dispatchers from outnumbering the compute capacity
// behind them.
func DefaultShards() int {
	n := runtime.NumCPU() / coresPerShard
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Set is a sharded group of engines behind one dispatch surface. All
// methods are safe for concurrent use. A Set's dispatchers run for the
// life of the process (like a solo engine's); create Sets once and
// reuse them.
type Set struct {
	engines []*Engine
	routed  []atomic.Uint64 // per-shard: calls routed here (sync + async)
	started sync.Once       // all dispatchers start together on first Submit

	fallbacks       atomic.Uint64 // submissions redirected to a sibling on queue-full
	fallbackRejects atomic.Uint64 // redirects that found the sibling full too
}

// NewSet builds a set of n isolated engines sharing one tuning
// configuration (n <= 0 uses DefaultShards). Every shard's worker fleet
// is capped at its core share, max(1, NumCPU/n). Dispatchers start
// together on the set's first Submit — work stealing needs every
// sibling's drain loop alive, and deferring the start keeps
// SetQueueCapacity usable after construction.
func NewSet(tun core.Tuning, n int) *Set {
	if n <= 0 {
		n = DefaultShards()
	}
	s := &Set{
		engines: make([]*Engine, n),
		routed:  make([]atomic.Uint64, n),
	}
	budget := runtime.NumCPU() / n
	if budget < 1 {
		budget = 1
	}
	for i := range s.engines {
		e := New(tun)
		e.rt.Sched.SetMaxWorkers(budget)
		e.obs.SetShard(i)
		s.engines[i] = e
	}
	// Install the steal hooks after every shard exists (a hook scans all
	// sibling queues) but before any dispatcher can start: dispatchLoop
	// reads its steal hook once at entry. A lone shard has no sibling to
	// steal from, so it gets no hook and its dispatcher blocks on its own
	// queue like a solo engine's instead of polling.
	if n > 1 {
		for i := range s.engines {
			self := i
			s.engines[i].queue.steal = func(batch *[]*asyncReq) int {
				return s.stealInto(self, batch)
			}
		}
	}
	return s
}

// startAll brings up every shard's dispatcher. Run once, on the set's
// first Submit, so all drain loops exist before any request can sit in
// a queue waiting for a thief that was never born.
func (s *Set) startAll() {
	for _, e := range s.engines {
		e.queue.start(e)
	}
}

// Shards returns the shard count.
func (s *Set) Shards() int { return len(s.engines) }

// Shard returns shard i's engine — per-shard introspection (stats,
// metrics, traces) and explicit shard targeting. The returned engine is
// live; routing invariants are the caller's problem if it submits work
// directly.
func (s *Set) Shard(i int) *Engine { return s.engines[i] }

// mix64 folds v into the running FNV-1a style hash h.
func mix64(h, v uint64) uint64 {
	h ^= v
	return h * 0x100000001b3
}

// routeHash condenses the problem identity — op kind, mode flags, dtype,
// operand dimensions and arity — into the routing key. Scalars and the
// worker request are deliberately excluded (the coalescer separates
// them into distinct bundles, but plan and pack geometry ignore them,
// so keeping such calls on one shard preserves cache affinity).
// Allocation-free: the warm sync path routes through here.
func routeHash(op OpDesc, operands []Operand) uint64 {
	h := uint64(0xcbf29ce484222325)
	h = mix64(h, uint64(op.Kind))
	h = mix64(h, uint64(op.TransA))
	h = mix64(h, uint64(op.TransB))
	h = mix64(h, uint64(op.Side))
	h = mix64(h, uint64(op.Uplo))
	h = mix64(h, uint64(op.Diag))
	h = mix64(h, uint64(len(operands)))
	for i := range operands {
		o := &operands[i]
		if !o.valid() {
			// Malformed operands keep a zero signature; the call fails
			// validation identically on any shard.
			h = mix64(h, 0)
			continue
		}
		h = mix64(h, uint64(o.DT))
		h = mix64(h, uint64(o.rows()))
		h = mix64(h, uint64(o.cols()))
	}
	return h
}

// jumpHash is Lamping–Veach jump consistent hashing: maps key onto
// [0, n) such that changing n relocates only ~1/n of the keys.
func jumpHash(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// stagesRouteHash is the routing key of a stage list. A one-stage list
// routes exactly like its op (routeHash, which routeHashKey mirrors for
// store hydration); a chain folds every stage's identity, so it always
// lands on the shard whose caches have seen it before.
func stagesRouteHash(stages []ChainStage) uint64 {
	if len(stages) == 1 {
		return routeHash(stages[0].Op, stages[0].Ops[:min(stages[0].NOps, 3)])
	}
	h := uint64(0x9e3779b97f4a7c15)
	h = mix64(h, uint64(len(stages)))
	for i := range stages {
		st := &stages[i]
		h = mix64(h, routeHash(st.Op, st.Ops[:min(st.NOps, 3)]))
	}
	return h
}

// route picks the home shard of a problem identity.
func (s *Set) route(op OpDesc, operands []Operand) int {
	return jumpHash(routeHash(op, operands), len(s.engines))
}

// home picks the home shard of a stage list and counts the call there.
func (s *Set) home(stages []ChainStage) int {
	sh := jumpHash(stagesRouteHash(stages), len(s.engines))
	s.routed[sh].Add(1)
	return sh
}

// Run executes a stage list synchronously on its home shard. Same
// contract (and allocation budget) as Engine.Run.
func (s *Set) Run(ctx context.Context, stages []ChainStage, call Call) error {
	return s.engines[s.home(stages)].Run(ctx, stages, call)
}

// Submit enqueues a stage list on its home shard. If the home queue is
// full the request falls back to the least-loaded sibling once (losing
// cache affinity for that one call but keeping it alive) before
// surfacing ErrQueueFull.
func (s *Set) Submit(ctx context.Context, stages []ChainStage, call Call) (*Future, error) {
	s.started.Do(s.startAll)
	sh := s.home(stages)
	fut, err := s.engines[sh].Submit(ctx, stages, call)
	if err == nil || !errors.Is(err, ErrQueueFull) || len(s.engines) == 1 {
		return fut, err
	}
	alt := s.leastLoaded(sh)
	if alt == sh {
		return fut, err
	}
	s.fallbacks.Add(1)
	fut2, err2 := s.engines[alt].Submit(ctx, stages, call)
	if err2 != nil && errors.Is(err2, ErrQueueFull) {
		s.fallbackRejects.Add(1)
		return nil, err // surface the home shard's error
	}
	return fut2, err2
}

// RunFactor routes a factorization to its home shard; see
// Engine.RunFactor.
func (s *Set) RunFactor(op OpDesc, a Operand) ([]int, error) {
	sh := s.route(op, []Operand{a})
	s.routed[sh].Add(1)
	return s.engines[sh].RunFactor(op, a)
}

// RunLUPiv routes a pivoted LU to its home shard; see Engine.RunLUPiv.
func (s *Set) RunLUPiv(op OpDesc, a Operand) (*core.Pivots, []int, error) {
	sh := s.route(op, []Operand{a})
	s.routed[sh].Add(1)
	return s.engines[sh].RunLUPiv(op, a)
}

// leastLoaded returns the shard with the shallowest queue, excluding
// skip. Every depth is sampled into one snapshot before any comparison,
// so the decision is coherent: concurrent churn between samples cannot
// interleave with the argmin scan, and with at least one sibling present
// the result is never skip — a queue-full fallback must not retry the
// shard that just rejected it. The snapshot is still a heuristic (depths
// move the instant after sampling), which the fallback path tolerates by
// counting a full sibling as FallbackRejects rather than retrying again.
func (s *Set) leastLoaded(skip int) int {
	var stack [16]int
	depths := stack[:0]
	if len(s.engines) > len(stack) {
		depths = make([]int, 0, len(s.engines))
	}
	for _, e := range s.engines {
		depths = append(depths, len(e.queue.ch))
	}
	best := -1
	for i, d := range depths {
		if i == skip {
			continue
		}
		if best < 0 || d < depths[best] {
			best = i
		}
	}
	if best < 0 {
		return skip
	}
	return best
}

// stealInto is the per-shard steal hook: drain up to half of the deepest
// sibling queue into batch. Both the victim's dispatcher and the thief
// receive from the same channel, which is safe — each request is
// delivered exactly once, to whichever loop wins it. The thief's
// runBatch partitions the stolen requests into identity bundles exactly
// as the victim's would have, so coalescing survives the theft and the
// fused results stay bit-identical to an unstolen run. Allocation-free
// in steady state (the caller reuses batch across polls).
func (s *Set) stealInto(self int, batch *[]*asyncReq) int {
	victim, depth := -1, 0
	for i, e := range s.engines {
		if i == self {
			continue
		}
		// Only victimize a shard whose dispatcher is stuck executing: an
		// idle sibling's dispatcher is already blocked receiving on its
		// own queue and will drain it immediately — racing it for a
		// freshly enqueued request adds no throughput and needlessly
		// moves the work off its home caches.
		if !e.queue.busy.Load() {
			continue
		}
		if d := len(e.queue.ch); d > depth {
			victim, depth = i, d
		}
	}
	if victim < 0 {
		return 0
	}
	want := (depth + 1) / 2
	q := &s.engines[victim].queue
	n := 0
	for n < want {
		select {
		case r, ok := <-q.ch:
			if !ok {
				return n
			}
			*batch = append(*batch, r)
			n++
		default:
			return n // victim drained (or its own dispatcher won the race)
		}
	}
	return n
}

// ShardStats is one shard's view in a SetStats: the shard's full engine
// stats plus set-level routing attribution.
type ShardStats struct {
	Shard  int    `json:"shard"`
	Routed uint64 `json:"routed"` // calls whose identity routed here
	Stats
}

// SetStats is a point-in-time view of the whole set: per-shard stats
// plus the cross-shard aggregate (counters summed, shapes merged by
// identity) so dashboards don't re-aggregate label sets client-side.
type SetStats struct {
	Shards          []ShardStats `json:"shards"`
	Fallbacks       uint64       `json:"fallbacks"`        // queue-full submissions redirected to a sibling
	FallbackRejects uint64       `json:"fallback_rejects"` // redirects that failed too (ErrQueueFull surfaced)
	Aggregate       Stats        `json:"aggregate"`
}

// Stats returns the current per-shard and aggregate counters.
func (s *Set) Stats() SetStats {
	out := SetStats{
		Shards:          make([]ShardStats, len(s.engines)),
		Fallbacks:       s.fallbacks.Load(),
		FallbackRejects: s.fallbackRejects.Load(),
	}
	perShape := make([][]obs.ShapeSnapshot, len(s.engines))
	perTenant := make([][]obs.TenantSnapshot, len(s.engines))
	for i, e := range s.engines {
		st := e.Stats()
		out.Shards[i] = ShardStats{Shard: i, Routed: s.routed[i].Load(), Stats: st}
		perShape[i] = st.Shapes
		perTenant[i] = st.Tenants
		if i == 0 {
			out.Aggregate = st
		} else {
			out.Aggregate.Add(st)
		}
	}
	out.Aggregate.Shapes = obs.AggregateShapes(perShape...)
	out.Aggregate.Tenants = obs.AggregateTenants(perTenant...)
	return out
}

// QueueStats returns the cross-shard aggregate of every shard's
// submission-queue counters — the cheap admission-control view of the
// whole set (no shape series or cache snapshots; see Engine.QueueStats).
func (s *Set) QueueStats() QueueStats {
	var agg QueueStats
	for i, e := range s.engines {
		if i == 0 {
			agg = e.queue.snapshot()
			continue
		}
		st := e.queue.snapshot()
		agg.Add(st)
	}
	return agg
}

// SetEDF toggles deadline-ordered dispatch on every shard; see
// Engine.SetEDF.
func (s *Set) SetEDF(on bool) {
	for _, e := range s.engines {
		e.SetEDF(on)
	}
}

// SetBatchWindow sets every shard's max-batch-window; see
// Engine.SetBatchWindow.
func (s *Set) SetBatchWindow(d time.Duration) {
	for _, e := range s.engines {
		e.SetBatchWindow(d)
	}
}

// ResetShapeStats resets every shard's windowed observability state; see
// Engine.ResetShapeStats.
func (s *Set) ResetShapeStats() {
	for _, e := range s.engines {
		e.ResetShapeStats()
	}
}

// SetTenants installs the per-tenant SLO objectives on every shard; see
// Engine.SetTenants. Each shard keeps its own series (a request records
// wherever it executed, including stolen work); TenantStats merges them.
func (s *Set) SetTenants(cfg map[string]obs.TenantObjective) {
	for _, e := range s.engines {
		e.SetTenants(cfg)
	}
}

// TenantStats returns the cross-shard aggregate of every shard's
// per-tenant SLO series (nil when accounting is disabled).
func (s *Set) TenantStats() []obs.TenantSnapshot {
	perTenant := make([][]obs.TenantSnapshot, len(s.engines))
	any := false
	for i, e := range s.engines {
		perTenant[i] = e.TenantStats()
		if perTenant[i] != nil {
			any = true
		}
	}
	if !any {
		return nil
	}
	return obs.AggregateTenants(perTenant...)
}

// RecordTenantShed accounts one admission-control shed for a tenant on
// the tenant's name-affine shard, so repeated sheds for one tenant stay
// on one series instead of smearing across the set.
func (s *Set) RecordTenantShed(name string) {
	if len(s.engines) == 0 {
		return
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	s.engines[h%uint64(len(s.engines))].RecordTenantShed(name)
}

// SetProfileLabels toggles pprof labeling on every shard.
func (s *Set) SetProfileLabels(on bool) {
	for _, e := range s.engines {
		e.SetProfileLabels(on)
	}
}

// Obs returns shard i's observability registry (trace hooks, spans).
func (s *Set) Obs(i int) *obs.Registry { return s.engines[i].Obs() }
