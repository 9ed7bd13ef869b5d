// Package obs is the engine's per-shape observability layer. IATF's
// premise is input-aware dispatch: every decision the run-time stage
// makes — plan reuse, packing strategy, super-batch size, worker split —
// is a function of the input descriptor, so the natural unit of
// observation is the (op, dtype, mode, shape) series, not a process-wide
// counter. A Registry keeps one rolling Series per shape: call and error
// counts, a log2 latency histogram (p50/p99 without storing samples),
// achieved GFLOPS against the plan's CMAR-predicted ceiling, plan-cache
// outcomes, and the plan's static decisions (pack-vs-nopack, groups per
// super-batch).
//
// Everything on the record path is lock-free after the first call on a
// shape: Series fields are atomics, so observation adds a few dozen
// nanoseconds and zero allocations to the warm dispatch path.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CacheOutcome classifies how a call's plan was obtained.
type CacheOutcome int

const (
	// CacheMiss: this call built the plan.
	CacheMiss CacheOutcome = iota
	// CacheHit: the plan was already cached.
	CacheHit
	// CacheShared: another in-flight call was building the same plan and
	// this call waited for it (single-flight).
	CacheShared
	// CacheHydrated: first use of a plan loaded from a store — served
	// from cache, but this call is the one that records the plan's static
	// decisions (ceiling, packing, batch size) the way a miss would.
	CacheHydrated
)

// ShapeKey identifies one observed series: the routine, element type,
// mode string (trans/side/uplo/diag, e.g. "NN" or "LNLN") and problem
// dimensions. The batch count is deliberately excluded — it is the axis
// calls vary along, not part of the shape.
type ShapeKey struct {
	Op    string `json:"op"`
	DType string `json:"dtype"`
	Mode  string `json:"mode"`
	M     int    `json:"m"`
	N     int    `json:"n"`
	K     int    `json:"k,omitempty"`
}

// histBuckets is the number of log2 latency buckets: bucket b holds
// durations in (2^(b-1), 2^b] nanoseconds, covering 1 ns to ~9 minutes.
const histBuckets = 40

// Series is the rolling per-shape state. All fields are atomic; Record
// and the Plan/SetPlan setters are safe for concurrent use.
type Series struct {
	calls  atomic.Uint64
	errors atomic.Uint64

	hits     atomic.Uint64
	misses   atomic.Uint64
	shared   atomic.Uint64
	hydrated atomic.Uint64

	ns    atomic.Uint64 // total latency, nanoseconds
	flops atomic.Uint64 // total useful flops
	hist  [histBuckets]atomic.Uint64

	bestGF  atomic.Uint64 // math.Float64bits of the best achieved GFLOPS
	ceiling atomic.Uint64 // math.Float64bits of the CMAR-predicted ceiling

	pack    atomic.Pointer[string] // pack-vs-nopack decision, e.g. "A+B"
	groups  atomic.Int64           // plan's groups per super-batch
	workers atomic.Int64           // last resolved worker count

	prepackHits   atomic.Uint64 // calls served from the packed-operand cache
	prepackBuilds atomic.Uint64 // calls that built a packed-operand image
}

// Prepack records one packed-operand cache interaction: hit means the
// call reused a cached packed image, otherwise it built (and cached) one.
func (s *Series) Prepack(hit bool) {
	if hit {
		s.prepackHits.Add(1)
	} else {
		s.prepackBuilds.Add(1)
	}
}

// Plan records the plan-cache outcome of one call.
func (s *Series) Plan(o CacheOutcome) {
	switch o {
	case CacheHit:
		s.hits.Add(1)
	case CacheShared:
		s.shared.Add(1)
	case CacheHydrated:
		s.hydrated.Add(1)
	default:
		s.misses.Add(1)
	}
}

// SetPlan stores the plan's static, input-aware decisions: the
// CMAR-predicted GFLOPS ceiling, the packing decision and the Batch
// Counter's groups-per-super-batch choice. Called when a plan is built
// (or rebuilt); last write wins.
func (s *Series) SetPlan(ceilingGFLOPS float64, pack string, groupsPerBatch int) {
	s.ceiling.Store(math.Float64bits(ceilingGFLOPS))
	s.pack.Store(&pack)
	s.groups.Store(int64(groupsPerBatch))
}

// SetWorkers records the resolved worker count of the latest call.
func (s *Series) SetWorkers(w int) { s.workers.Store(int64(w)) }

// Record observes one executed call: its wall latency, the useful
// floating-point work it performed, and whether it failed.
func (s *Series) Record(d time.Duration, flops float64, failed bool) {
	s.calls.Add(1)
	if failed {
		s.errors.Add(1)
		return
	}
	n := uint64(d.Nanoseconds())
	s.ns.Add(n)
	s.flops.Add(uint64(flops))
	b := bits.Len64(n)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.hist[b].Add(1)
	if sec := d.Seconds(); sec > 0 {
		gf := flops / sec / 1e9
		for {
			old := s.bestGF.Load()
			if gf <= math.Float64frombits(old) {
				break
			}
			if s.bestGF.CompareAndSwap(old, math.Float64bits(gf)) {
				break
			}
		}
	}
}

// quantile returns the upper bound of the histogram bucket holding the
// q-th observation (0 < q <= 1) — an approximation within 2x.
func (s *Series) quantile(q float64) time.Duration {
	var counts [histBuckets]uint64
	for i := range s.hist {
		counts[i] = s.hist[i].Load()
	}
	return histQuantile(&counts, q)
}

// histQuantile is the shared log2-bucket quantile: the upper bound of
// the bucket holding the q-th observation.
func histQuantile(counts *[histBuckets]uint64, q float64) time.Duration {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	// Ceiling, not truncation: p99 of two samples must rank the larger
	// one (rank 2), not round down to the median.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	seen := uint64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i == 0 {
				return time.Nanosecond
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(uint64(1) << (histBuckets - 1))
}

// ShapeSnapshot is a point-in-time view of one Series, JSON-exportable.
type ShapeSnapshot struct {
	ShapeKey

	// Shard is the EngineSet shard the series was recorded on
	// (-1 = not shard-attached, including the merged aggregate view).
	Shard int `json:"shard"`

	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors,omitempty"`

	PlanHits     uint64 `json:"plan_hits"`
	PlanMisses   uint64 `json:"plan_misses"`
	PlanShared   uint64 `json:"plan_shared,omitempty"`
	PlanHydrated uint64 `json:"plan_hydrated,omitempty"` // first uses of store-loaded plans

	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`

	AvgGFLOPS     float64 `json:"avg_gflops"`
	BestGFLOPS    float64 `json:"best_gflops"`
	CeilingGFLOPS float64 `json:"ceiling_gflops"`

	Pack           string `json:"pack"`
	GroupsPerBatch int    `json:"groups_per_batch"`
	Workers        int    `json:"workers"`

	PrepackHits   uint64 `json:"prepack_hits,omitempty"`
	PrepackBuilds uint64 `json:"prepack_builds,omitempty"`
}

// HitRatio returns the fraction of calls served from the plan cache
// (live hits plus first uses of store-hydrated plans).
func (s ShapeSnapshot) HitRatio() float64 {
	tot := s.PlanHits + s.PlanMisses + s.PlanShared + s.PlanHydrated
	if tot == 0 {
		return 0
	}
	return float64(s.PlanHits+s.PlanHydrated) / float64(tot)
}

func (s *Series) snapshot(key ShapeKey) ShapeSnapshot {
	snap := ShapeSnapshot{
		ShapeKey:     key,
		Calls:        s.calls.Load(),
		Errors:       s.errors.Load(),
		PlanHits:     s.hits.Load(),
		PlanMisses:   s.misses.Load(),
		PlanShared:   s.shared.Load(),
		PlanHydrated: s.hydrated.Load(),
		P50:          s.quantile(0.50),
		P99:          s.quantile(0.99),

		BestGFLOPS:     math.Float64frombits(s.bestGF.Load()),
		CeilingGFLOPS:  math.Float64frombits(s.ceiling.Load()),
		GroupsPerBatch: int(s.groups.Load()),
		Workers:        int(s.workers.Load()),
		PrepackHits:    s.prepackHits.Load(),
		PrepackBuilds:  s.prepackBuilds.Load(),
	}
	if p := s.pack.Load(); p != nil {
		snap.Pack = *p
	}
	if ns := s.ns.Load(); ns > 0 {
		snap.AvgGFLOPS = float64(s.flops.Load()) / (float64(ns) / 1e9) / 1e9
	}
	return snap
}

// Registry holds the per-shape series of one engine plus its span-sink
// and tenant-accounting configuration.
type Registry struct {
	mu sync.RWMutex
	m  map[ShapeKey]*Series

	// shard is the EngineSet shard label stamped onto snapshots
	// (-1 = not shard-attached).
	shard atomic.Int64

	spans atomic.Pointer[spanCfg]

	// tenants is the per-tenant SLO accounting table (tenant.go);
	// nil = accounting disabled.
	tenants atomic.Pointer[tenantTable]

	// now is the clock every span timestamp reads (span.go).
	now func() time.Time
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	r := &Registry{m: make(map[ShapeKey]*Series), now: time.Now}
	r.shard.Store(-1)
	return r
}

// SetShard labels the registry with its EngineSet shard index; every
// snapshot taken afterwards carries it, so cross-shard dumps stay
// attributable after merging.
func (r *Registry) SetShard(k int) { r.shard.Store(int64(k)) }

// Shard returns the registry's shard label (-1 = not shard-attached).
func (r *Registry) Shard() int { return int(r.shard.Load()) }

// Reset drops every per-shape series, so a long-running process can
// bound the registry's footprint (e.g. after exporting a final
// snapshot, or when shape churn would otherwise grow the map
// unboundedly). In-flight calls holding a *Series keep recording
// into the dropped series harmlessly; new calls start fresh.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.m = make(map[ShapeKey]*Series)
	r.mu.Unlock()
}

// Series returns the rolling series for a shape, creating it on first
// use. The lookup is a read-locked map access (no allocation) once the
// shape has been seen.
func (r *Registry) Series(key ShapeKey) *Series {
	r.mu.RLock()
	s := r.m[key]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.m[key]; s == nil {
		s = &Series{}
		r.m[key] = s
	}
	return s
}

// Snapshot returns a point-in-time view of every observed shape, ordered
// by call count descending (ties broken by key for determinism).
func (r *Registry) Snapshot() []ShapeSnapshot {
	shard := int(r.shard.Load())
	r.mu.RLock()
	out := make([]ShapeSnapshot, 0, len(r.m))
	for key, s := range r.m {
		snap := s.snapshot(key)
		snap.Shard = shard
		out = append(out, snap)
	}
	r.mu.RUnlock()
	sortSnapshots(out)
	return out
}

func sortSnapshots(out []ShapeSnapshot) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Calls != b.Calls {
			return a.Calls > b.Calls
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.DType != b.DType {
			return a.DType < b.DType
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.M != b.M {
			return a.M < b.M
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.K < b.K
	})
}

// AggregateShapes merges per-shard snapshot lists into one cross-shard
// view keyed by shape alone: counters sum, AvgGFLOPS is call-weighted,
// Best/Ceiling take the max, and the latency quantiles take the max
// across shards (conservative — per-shard histograms are not exported,
// so the merged quantile reads as "no shard was slower than this").
// The merged rows carry Shard = -1 and the plan descriptor of the
// busiest shard for each shape.
func AggregateShapes(perShard ...[]ShapeSnapshot) []ShapeSnapshot {
	type agg struct {
		snap     ShapeSnapshot
		maxCalls uint64
		flopsW   float64 // sum(AvgGFLOPS_i * calls_i)
	}
	m := make(map[ShapeKey]*agg)
	var order []ShapeKey
	for _, shard := range perShard {
		for _, s := range shard {
			a := m[s.ShapeKey]
			if a == nil {
				a = &agg{snap: s, maxCalls: s.Calls, flopsW: s.AvgGFLOPS * float64(s.Calls)}
				a.snap.Shard = -1
				m[s.ShapeKey] = a
				order = append(order, s.ShapeKey)
				continue
			}
			t := &a.snap
			t.Calls += s.Calls
			t.Errors += s.Errors
			t.PlanHits += s.PlanHits
			t.PlanMisses += s.PlanMisses
			t.PlanShared += s.PlanShared
			t.PlanHydrated += s.PlanHydrated
			t.PrepackHits += s.PrepackHits
			t.PrepackBuilds += s.PrepackBuilds
			a.flopsW += s.AvgGFLOPS * float64(s.Calls)
			if s.P50 > t.P50 {
				t.P50 = s.P50
			}
			if s.P99 > t.P99 {
				t.P99 = s.P99
			}
			if s.BestGFLOPS > t.BestGFLOPS {
				t.BestGFLOPS = s.BestGFLOPS
			}
			if s.CeilingGFLOPS > t.CeilingGFLOPS {
				t.CeilingGFLOPS = s.CeilingGFLOPS
			}
			if s.Workers > t.Workers {
				t.Workers = s.Workers
			}
			if s.Calls > a.maxCalls {
				a.maxCalls = s.Calls
				t.Pack, t.GroupsPerBatch = s.Pack, s.GroupsPerBatch
			}
		}
	}
	out := make([]ShapeSnapshot, 0, len(order))
	for _, k := range order {
		a := m[k]
		if a.snap.Calls > 0 {
			a.snap.AvgGFLOPS = a.flopsW / float64(a.snap.Calls)
		}
		out = append(out, a.snap)
	}
	sortSnapshots(out)
	return out
}
