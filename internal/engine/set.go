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
//   - Routing is identity-affine: a call homes on the identity of its
//     validated plan key (planKey.identity — op kind, dtype, the mode
//     flags the op reads and its dimensions; never scalars, workers,
//     the batch count or a mode field the op ignores), and a chain folds
//     its stages' identities. Jump consistent hashing maps the identity
//     onto a shard, so the mapping is stable for a given shard count and
//     minimally disturbed when the count changes.
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
	"runtime"
	"sync"
	"sync/atomic"

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
// life of the process; create Sets once and reuse them.
type Set struct {
	engines []*Engine
	routed  []atomic.Uint64 // per-shard: calls routed here (sync + async)
	started sync.Once       // all dispatchers start together on first Submit

	fallbacks       atomic.Uint64 // submissions redirected to a sibling on queue-full
	fallbackRejects atomic.Uint64 // redirects that found the sibling full too
}

// NewSet builds a set of n isolated engines sharing one tuning
// configuration and one queue policy (n <= 0 uses DefaultShards).
// Dispatchers start together on the set's first Submit — work stealing
// needs every sibling's drain loop alive.
//
// A set of one is the solo engine: its shard carries no shard label,
// no worker cap and no steal hook, calls reach it without hashing, and
// its stats and scrape are the shard's own. Only with siblings is every
// shard's worker fleet capped at its core share, max(1, NumCPU/n), its
// series labeled with its index, and its idle dispatcher polling the
// siblings' queues.
func NewSet(tun core.Tuning, n int, qc QueueConfig) *Set {
	if n <= 0 {
		n = DefaultShards()
	}
	s := &Set{
		engines: make([]*Engine, n),
		routed:  make([]atomic.Uint64, n),
	}
	for i := range s.engines {
		s.engines[i] = newEngine(tun, qc)
	}
	if n == 1 {
		return s
	}
	budget := max(1, runtime.NumCPU()/n)
	// Install the steal hooks after every shard exists (a hook scans all
	// sibling queues) but before any dispatcher can start: dispatchLoop
	// reads its steal hook once at entry.
	for i, e := range s.engines {
		e.rt.Sched.SetMaxWorkers(budget)
		e.obs.SetShard(i)
		e.queue.steal = func(batch *[]*asyncReq) int {
			return s.stealInto(i, batch)
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

// home picks a list's home shard from its record and counts the call
// there. A set of one has nothing to choose.
func (s *Set) home(id *listID) int {
	if len(s.engines) == 1 {
		return 0
	}
	sh := jumpHash(id.route(), len(s.engines))
	s.routed[sh].Add(1)
	return sh
}

// Run executes a stage list synchronously on its home shard. Same
// contract (and allocation budget) as Engine.Run.
func (s *Set) Run(ctx context.Context, stages []ChainStage, call Call) error {
	var id listID
	keyOf(&id, stages)
	return s.engines[s.home(&id)].run(ctx, stages, &id, call)
}

// Submit enqueues a stage list on its home shard. If the home queue is
// full the request falls back to the least-loaded sibling once (losing
// cache affinity for that one call but keeping it alive) before
// surfacing ErrQueueFull. Either way the call is one request with one
// span: a refusal is recorded once, on its home shard.
func (s *Set) Submit(ctx context.Context, stages []ChainStage, call Call) (*Future, error) {
	s.started.Do(s.startAll)
	var id listID
	keyOf(&id, stages)
	sh := s.home(&id)
	home := s.engines[sh]
	r, err := home.request(ctx, stages, &id, call)
	if err != nil {
		return nil, err
	}
	if home.admit(r) {
		return r.fut, nil
	}
	if alt := s.leastLoaded(sh); alt != sh {
		s.fallbacks.Add(1)
		if s.engines[alt].admit(r) {
			return r.fut, nil
		}
		s.fallbackRejects.Add(1)
	}
	return nil, home.reject(r)
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
// A set of one routes nothing, and its aggregate is its shard's stats.
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
	if len(s.engines) > 1 {
		out.Aggregate.Shapes = obs.AggregateShapes(perShape...)
		out.Aggregate.Tenants = obs.AggregateTenants(perTenant...)
	}
	return out
}

// QueueStats returns the cross-shard aggregate of every shard's
// submission-queue counters — the cheap admission-control view of the
// whole set (no shape series or cache snapshots; see Engine.QueueStats).
func (s *Set) QueueStats() QueueStats {
	agg := s.engines[0].queue.snapshot()
	for _, e := range s.engines[1:] {
		agg.Add(e.queue.snapshot())
	}
	return agg
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
	if len(s.engines) == 1 {
		return s.engines[0].TenantStats()
	}
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

// Obs returns shard i's observability registry (span sink, shapes).
func (s *Set) Obs(i int) *obs.Registry { return s.engines[i].Obs() }
