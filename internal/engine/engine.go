// Package engine is the serving-grade execution layer between the public
// API and the run-time stage in internal/core. The paper's premise is
// that the install-time stage is paid once and the run-time stage is
// cheap per call; the engine makes the run-time stage itself near-free in
// steady state:
//
//   - a sharded, bounded plan cache keyed by the full problem descriptor
//     (op kind, dtype, dims, trans/side/uplo/diag, count bucket) memoizes
//     NewGEMMPlan/NewTRSMPlan/... so planning runs once per shape, not
//     once per call (a build takes microseconds, so concurrent cold
//     misses on one key each build, and the first insert wins);
//   - packing buffers come from size-class pools (internal/bufpool);
//   - parallel execution runs on the persistent worker pool
//     (internal/sched) instead of goroutine-per-call;
//   - one execution path: every level-3 call is a stage list, and a
//     single op is the one-stage case. Run (sync) and Submit (async) are
//     the only entries; they share one stage executor and one span
//     finisher, and Submit adds one queue. Validation errors are typed
//     (ErrShape, ErrCount, ErrDType, ErrOperand) and always name the op
//     and the offending operand;
//   - every call feeds the per-shape observability layer (internal/obs):
//     rolling latency histograms, achieved GFLOPS vs the plan's
//     CMAR-predicted ceiling and plan-cache outcomes, plus the call's
//     lifecycle span when a sink, trace id or tenant asks for one.
//
// Scalars (alpha, beta) and the exact batch count are excluded from the
// cache key — plan geometry does not depend on them — and are spliced
// into a stack copy of the cached plan at dispatch time, so calls that
// differ only in scalars or count still hit the cache.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"iatf/internal/bufpool"
	"iatf/internal/core"
	"iatf/internal/ktmpl"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/sched"
	"iatf/internal/vec"
)

// OpKind selects the routine an OpDesc describes.
type OpKind int

// The batched routines the engine dispatches, each a stage of
// Run/Submit: the level-3 ops and the in-place LU, Cholesky and pivoted
// LU (whose stage carries the pivot record it fills).
const (
	OpGEMM OpKind = iota
	OpTRSM
	OpTRMM
	OpSYRK
	OpLU
	OpCholesky
	OpLUPiv
)

// String returns the routine name.
func (k OpKind) String() string {
	switch k {
	case OpGEMM:
		return "GEMM"
	case OpTRSM:
		return "TRSM"
	case OpTRMM:
		return "TRMM"
	case OpSYRK:
		return "SYRK"
	case OpLU:
		return "LU"
	case OpCholesky:
		return "CHOL"
	case OpLUPiv:
		return "LUPIV"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// OpDesc describes one batched op: the routine, its mode flags and
// scalars, and the worker request. Dimensions are taken from the
// operands. Workers <= 0 means auto (GOMAXPROCS); Workers == 1 is
// serial. OpDesc is the whole problem identity minus the operands;
// per-call tags ride in Call.
type OpDesc struct {
	Kind           OpKind
	TransA, TransB matrix.Trans // TransB is GEMM-only; TransA doubles as SYRK's Trans
	Side           matrix.Side  // TRSM/TRMM
	Uplo           matrix.Uplo  // TRSM/TRMM/SYRK
	Diag           matrix.Diag  // TRSM/TRMM
	Alpha, Beta    complex128   // Beta is GEMM/SYRK-only
	Workers        int
}

// Call is the per-call envelope of Run and Submit: everything about a
// request that is not its problem. None of it affects plan identity,
// shard routing or results.
type Call struct {
	// Sink, when set, forces a lifecycle span for the call and receives
	// it once the call resolves — including rejection and cancellation —
	// after the engine-level sink. It must copy the span if it retains it.
	Sink obs.SpanFunc
	// Trace is the end-to-end correlation id stamped on the span.
	Trace string
	// Origin is the tenant the call runs for: stamped on the span and
	// keying per-tenant SLO accounting (which forces a span when on).
	Origin string
	// Priority is the async dispatch class: when two drained requests
	// share the earliest context deadline (or neither has one), the one
	// with the higher Priority executes first. Ignored by Run.
	Priority int
	// Chain asks for chain error reporting: every execution failure
	// arrives as a *ChainError naming its stage, whatever the stage
	// count. Without it a one-stage call reports its op's plain
	// taxonomy error.
	Chain bool
}

// result shapes an execution error for the caller (see Call.Chain).
// Multi-stage runs already attribute their failures.
func (c *Call) result(stages []ChainStage, err error) error {
	if err == nil || !c.Chain || len(stages) != 1 {
		return err
	}
	if _, ok := err.(*ChainError); ok {
		return err
	}
	return &ChainError{Stage: 0, Kind: stages[0].Op.Kind, Err: err}
}

// Operand is a type-erased compact batch: exactly one of F32/F64 is set
// (complex types travel on the split-plane representation of their real
// component type). The zero Operand stands for a nil/empty argument.
type Operand struct {
	DT  vec.DType
	F32 *layout.Compact[float32]
	F64 *layout.Compact[float64]
}

func (o Operand) valid() bool { return o.F32 != nil || o.F64 != nil }

func (o Operand) rows() int {
	if o.F32 != nil {
		return o.F32.Rows
	}
	return o.F64.Rows
}

func (o Operand) cols() int {
	if o.F32 != nil {
		return o.F32.Cols
	}
	return o.F64.Cols
}

func (o Operand) count() int {
	if o.F32 != nil {
		return o.F32.Count
	}
	return o.F64.Count
}

// compactOf recovers the typed compact from a type-erased operand.
func compactOf[E vec.Float](o Operand) *layout.Compact[E] {
	if o.F32 != nil {
		return any(o.F32).(*layout.Compact[E])
	}
	return any(o.F64).(*layout.Compact[E])
}

// planKey is the full problem descriptor a cached plan is keyed by.
// Scalars are excluded (plan geometry ignores them); the batch count is
// bucketed to the next power of two so nearby counts share a plan.
type planKey struct {
	kind           OpKind
	dt             vec.DType
	m, n, k        int
	transA, transB matrix.Trans
	side           matrix.Side
	uplo           matrix.Uplo
	diag           matrix.Diag
	countBucket    int
}

// identity hashes the problem a plan key names — every field but the
// count bucket — and ends in SplitMix64's finalizer, so nearby orders
// and modes spread evenly. It is the engine's one problem identity: it
// picks the plan cache's mutex shard, a call's home shard in a Set and
// each stage's share of a chain's home-shard identity.
func (k planKey) identity() uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range [...]int{int(k.kind), int(k.dt), k.m, k.n, k.k, int(k.transA), int(k.transB),
		int(k.side), int(k.uplo), int(k.diag)} {
		h = mix64(h, uint64(v))
	}
	return avalanche(h)
}

// mix64 folds v into the running FNV-1a style hash h.
func mix64(h, v uint64) uint64 {
	h ^= v
	return h * 0x100000001b3
}

// avalanche is SplitMix64's finalizer: each input bit flips every output
// bit with probability about one half.
func avalanche(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// countBucket rounds a batch count up to the next power of two. Plans
// built for the bucket are valid for any smaller count: GroupsPerBatch is
// only capped by the count, and the executors clamp super-batches to the
// actual group range.
func countBucket(c int) int {
	if c <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(c-1))
}

const (
	planShards   = 16
	planShardCap = 256 // per-shard bound; oldest-arbitrary eviction past it
)

type planShard struct {
	mu sync.Mutex
	m  map[planKey]any
}

// Engine owns a tuning configuration, the plan cache for it and the
// per-shape observability registry. It is one shard of a Set: the
// public API reaches engines only through sets (a solo engine is a set
// of one), while New alone serves tests.
type Engine struct {
	tun    core.Tuning
	rt     *core.Runtime // per-engine worker pool + buffer pools
	shards [planShards]planShard
	obs    *obs.Registry
	packs  packCache
	queue  submitQueue

	planHits      atomic.Uint64
	planMisses    atomic.Uint64
	planEvictions atomic.Uint64

	// Chain dispatch counters (multi-stage runs only).
	chainRuns   atomic.Uint64
	chainMisses atomic.Uint64 // runs that built a stage plan; the rest hit

	// profLabels gates pprof label application around compute (one atomic
	// load per dispatch when off). Off by default: building the label set
	// allocates, which would break the warm-path alloc bounds.
	profLabels atomic.Bool
}

// New constructs an engine for a tuning configuration with the default
// queue policy. Every engine owns an isolated core.Runtime (worker pool
// + buffer pools), so engines — and in particular EngineSet shards —
// never contend on shared execution state.
func New(tun core.Tuning) *Engine { return newEngine(tun, QueueConfig{}) }

// newEngine constructs an engine whose async queue follows qc.
func newEngine(tun core.Tuning, qc QueueConfig) *Engine {
	e := &Engine{tun: tun, rt: core.NewRuntime(), obs: obs.NewRegistry()}
	e.queue.init(qc)
	for i := range e.shards {
		e.shards[i].m = make(map[planKey]any)
	}
	e.packs.m = make(map[packKey]*packEntry)
	return e
}

// Obs returns the engine's per-shape observability registry (span sink,
// shape snapshots).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// plan returns the cached plan for key, building and inserting it on
// miss. A miss builds outside the lock; when concurrent misses on one key
// race, the first insert wins and every caller returns the cached plan
// (each still counts its miss). Failed builds are not cached. The build
// is buildForKey unless build overrides it.
func (e *Engine) plan(key planKey, build func() (any, error)) (any, obs.CacheOutcome, error) {
	sh := e.planShard(key)
	sh.mu.Lock()
	if p, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		e.planHits.Add(1)
		return p, obs.CacheHit, nil
	}
	sh.mu.Unlock()
	e.planMisses.Add(1)
	var p any
	var err error
	if build != nil {
		p, err = build()
	} else {
		p, err = e.buildForKey(key)
	}
	if err != nil {
		return nil, obs.CacheMiss, err
	}
	sh.mu.Lock()
	if first, ok := sh.m[key]; ok {
		p = first
	} else {
		if len(sh.m) >= planShardCap {
			sh.evictOne(e)
		}
		sh.m[key] = p
	}
	sh.mu.Unlock()
	return p, obs.CacheMiss, nil
}

// planShard returns the plan-cache shard that guards key.
func (e *Engine) planShard(key planKey) *planShard {
	return &e.shards[key.identity()%planShards]
}

// evictOne drops an arbitrary entry to make room. Callers hold sh.mu.
func (sh *planShard) evictOne(e *Engine) {
	for k := range sh.m {
		delete(sh.m, k)
		e.planEvictions.Add(1)
		return
	}
}

// buildForKey constructs the plan a cache key describes — the one plan
// constructor behind every miss, one-stage or chained. Plans are built
// for the key's count bucket with unit scalars (both are spliced per
// call).
func (e *Engine) buildForKey(key planKey) (any, error) {
	switch key.kind {
	case OpGEMM:
		return core.NewGEMMPlan(core.GEMMProblem{
			DT: key.dt, M: key.m, N: key.n, K: key.k, TransA: key.transA, TransB: key.transB,
			Alpha: 1, Beta: 1, Count: key.countBucket,
		}, e.tun)
	case OpTRSM:
		return core.NewTRSMPlan(core.TRSMProblem{
			DT: key.dt, M: key.m, N: key.n, Side: key.side, Uplo: key.uplo,
			TransA: key.transA, Diag: key.diag, Alpha: 1, Count: key.countBucket,
		}, e.tun)
	case OpTRMM:
		return core.NewTRMMPlan(core.TRMMProblem{
			DT: key.dt, M: key.m, N: key.n, Side: key.side, Uplo: key.uplo,
			TransA: key.transA, Diag: key.diag, Alpha: 1, Count: key.countBucket,
		}, e.tun)
	case OpSYRK:
		return core.NewSYRKPlan(core.SYRKProblem{
			DT: key.dt, N: key.m, K: key.k, Uplo: key.uplo, Trans: key.transA,
			Alpha: 1, Beta: 1, Count: key.countBucket,
		}, e.tun)
	case OpLU, OpCholesky, OpLUPiv:
		return &factorPlan{flopsPerMatrix: factorFLOPs(key.kind, key.m)}, nil
	}
	return nil, opErr(key.kind, "", ErrOperand, "not a plannable kind")
}

// Stats is a point-in-time snapshot of one engine's counters: every
// engine owns its plan cache, per-shape series and core.Runtime, so the
// buffer-pool and worker-pool counters are this engine's too.
type Stats struct {
	// Plan cache (this engine).
	PlanHits      uint64
	PlanMisses    uint64
	PlanEvictions uint64
	PlanEntries   int

	// Packed-operand cache (this engine).
	PackCache PackCacheStats

	// Chain dispatch (this engine): multi-stage executions only — a
	// one-stage call is its op and never touches these counters.
	Chain ChainStats

	// Async submission queue (this engine).
	Queue QueueStats

	// Per-shape rolling series (this engine), ordered by call count.
	Shapes []obs.ShapeSnapshot

	// Per-tenant SLO series (this engine), ordered by request count;
	// nil when tenant accounting is disabled.
	Tenants []obs.TenantSnapshot

	// Packing-buffer pools (this engine's Runtime).
	Buffers bufpool.Stats

	// Persistent worker pool (this engine's Runtime).
	Sched sched.Stats
}

// Add accumulates another engine's counters into s — the cross-shard
// aggregate view of an EngineSet. Shapes and Tenants are NOT merged here
// (the set merges them once via obs.AggregateShapes/AggregateTenants).
func (s *Stats) Add(o Stats) {
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.PlanEvictions += o.PlanEvictions
	s.PlanEntries += o.PlanEntries
	s.PackCache.Add(o.PackCache)
	s.Chain.Add(o.Chain)
	s.Queue.Add(o.Queue)
	s.Buffers.Add(o.Buffers)
	s.Sched.Add(o.Sched)
}

// ChainStats is a snapshot of the chain dispatch counters. A chain's
// stages plan through the plan cache like any op; PlanHits and
// PlanMisses split the chain runs by whether they built a plan.
type ChainStats struct {
	Runs       uint64 // multi-stage chains executed (sync and async)
	PlanHits   uint64 // chain runs that built no stage plan
	PlanMisses uint64 // chain runs that built at least one stage plan

	// ScatterElided and PackElided always read 0: stages hand no
	// canonical B across, since the triangular kernels read B in place.
	// They remain for perfbench, which still reports them; the benchmark
	// change of ROADMAP item 1 drops that last reader.
	ScatterElided uint64
	PackElided    uint64
}

// Add accumulates another engine's chain counters (EngineSet aggregate).
func (s *ChainStats) Add(o ChainStats) {
	s.Runs += o.Runs
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
}

// chainStats loads misses before runs: a run is counted before its miss,
// so the hits it derives never go negative.
func (e *Engine) chainStats() ChainStats {
	misses := e.chainMisses.Load()
	runs := e.chainRuns.Load()
	return ChainStats{Runs: runs, PlanHits: runs - misses, PlanMisses: misses}
}

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	entries := 0
	for i := range e.shards {
		e.shards[i].mu.Lock()
		entries += len(e.shards[i].m)
		e.shards[i].mu.Unlock()
	}
	return Stats{
		PlanHits:      e.planHits.Load(),
		PlanMisses:    e.planMisses.Load(),
		PlanEvictions: e.planEvictions.Load(),
		PlanEntries:   entries,
		PackCache:     e.packs.snapshot(),
		Chain:         e.chainStats(),
		Queue:         e.queue.snapshot(),
		Shapes:        e.obs.Snapshot(),
		Tenants:       e.obs.TenantSnapshots(),
		Buffers:       e.rt.Bufs.Snapshot(),
		Sched:         e.rt.Sched.Snapshot(),
	}
}

// startSpan opens a call's lifecycle span: forced by a per-call sink,
// and by a tenant tag while accounting is on (FinishSpan is where the
// tenant ledger records). Untagged calls with no sink anywhere pay one
// atomic load.
func (e *Engine) startSpan(call *Call) *obs.Span {
	sp := e.obs.StartSpan(call.Sink != nil || (call.Origin != "" && e.obs.TenantsEnabled()))
	if sp != nil {
		sp.TraceID = call.Trace
		sp.Origin = call.Origin
	}
	return sp
}

// SetTenants installs the engine's per-tenant SLO objectives and enables
// tenant accounting: every request whose Call carries an Origin is
// classified into its tenant's rolling series (requests, errors, sheds,
// deadline hits/misses, latency histogram, sliding-window burn rate).
// Origins not in cfg are tracked with a zero objective; nil disables
// accounting.
func (e *Engine) SetTenants(cfg map[string]obs.TenantObjective) { e.obs.SetTenants(cfg) }

// TenantStats returns the per-tenant SLO series, ordered by request
// count (nil when accounting is disabled).
func (e *Engine) TenantStats() []obs.TenantSnapshot { return e.obs.TenantSnapshots() }

// RecordTenantShed accounts one admission-control shed for a tenant — a
// request a front tier rejected before submitting, so no span carries
// it. No-op when accounting is disabled.
func (e *Engine) RecordTenantShed(name string) { e.obs.RecordTenantShed(name) }

// SetProfileLabels enables pprof goroutine labels ({op, dtype, shape})
// around compute, so CPU profiles attribute kernel samples to problem
// shapes. Off by default: label construction allocates per dispatch.
func (e *Engine) SetProfileLabels(on bool) { e.profLabels.Store(on) }

// profileLabels returns the label context for a dispatch when labeling is
// enabled, else nil (one atomic load).
func (e *Engine) profileLabels(key planKey) context.Context {
	if !e.profLabels.Load() {
		return nil
	}
	s := shapeOf(key)
	return pprof.WithLabels(context.Background(), pprof.Labels(
		"op", s.Op, "dtype", s.DType, "shape", fmt.Sprintf("%dx%dx%d", s.M, s.N, s.K)))
}

// operandNames names each op kind's operands in BLAS argument order;
// their count is the kind's arity.
var operandNames = [...][]string{
	OpGEMM:     {"A", "B", "C"},
	OpTRSM:     {"A", "B"},
	OpTRMM:     {"A", "B"},
	OpSYRK:     {"A", "C"},
	OpLU:       {"A"},
	OpCholesky: {"A"},
	OpLUPiv:    {"A"},
}

func checkOperands(kind OpKind, ops []Operand) error {
	for i, o := range ops {
		if !o.valid() {
			return opErr(kind, operandNames[kind][i], ErrOperand, "nil or empty")
		}
		if (o.F32 != nil) != (ops[0].F32 != nil) || o.DT != ops[0].DT {
			return opErr(kind, operandNames[kind][i], ErrDType, "mismatched element type")
		}
		// The dtype alone then names the storage, so the key does too.
		if (o.F32 != nil && o.F64 != nil) || (o.F32 != nil) != (o.DT.Real() == vec.S) {
			return opErr(kind, operandNames[kind][i], ErrDType, "storage does not hold dtype %s", o.DT)
		}
	}
	return nil
}

// stageKey validates one stage — arity, operand presence and dtype,
// shapes, counts — and writes its plan-cache key, so every entry
// rejects with identical taxonomy errors. keyOf is its one caller.
func stageKey(st *ChainStage, key *planKey) error {
	op := &st.Op
	if op.Kind < 0 || int(op.Kind) >= len(operandNames) {
		return opErr(op.Kind, "", ErrOperand, "unknown op kind")
	}
	if arity := len(operandNames[op.Kind]); st.NOps != arity {
		return opErr(op.Kind, "", ErrOperand, "takes %d operands, got %d", arity, st.NOps)
	}
	ops := st.Ops[:st.NOps]
	if err := checkOperands(op.Kind, ops); err != nil {
		return err
	}
	*key = planKey{kind: op.Kind, dt: ops[0].DT, countBucket: countBucket(ops[0].count()),
		transA: op.TransA, transB: op.TransB, side: op.Side, uplo: op.Uplo, diag: op.Diag}
	var err error
	switch op.Kind {
	case OpGEMM:
		key.m, key.n, key.k, err = gemmDims(op, ops[0], ops[1], ops[2])
	case OpTRSM, OpTRMM:
		key.m, key.n, err = triDims(op, ops[0], ops[1])
	case OpSYRK:
		key.m, key.k, err = syrkDims(op, ops[0], ops[1])
	default:
		err = checkFactor(st)
		key.m = ops[0].rows()
	}
	key.read()
	return err
}

// read zeroes the fields of k its op does not read: TRSM and TRMM skip
// TransB and K, GEMM Side, Uplo and Diag, SYRK TransB, Side, Diag and N,
// and a factorization's plan, a per-matrix flop model, keys on its order.
func (k *planKey) read() {
	switch k.kind {
	case OpGEMM:
		k.side, k.uplo, k.diag = 0, 0, 0
	case OpTRSM, OpTRMM:
		k.transB, k.k = 0, 0
	case OpSYRK:
		k.transB, k.side, k.diag, k.n = 0, 0, 0, 0
	default:
		*k = planKey{kind: k.kind, dt: k.dt, m: k.m, countBucket: 1}
	}
}

// stageID is one stage's plan key and operand-sharing pattern (aliasOf).
type stageID struct {
	key   planKey
	alias [3]int16
}

// listID is a stage list's identity record, built once where the list
// enters the engine and read by routing and the executor: an entry per
// stage that validated and the typed validation error. A one-stage
// list's entry lives inline.
type listID struct {
	n    int
	buf  [1]stageID
	more []stageID // a chain's entries
	err  error
}

func (id *listID) entries() []stageID {
	if id.more != nil {
		return id.more[:id.n]
	}
	return id.buf[:id.n]
}

// keyOf validates a stage list into the zero record id; a chain also
// needs one dtype and one batch count. The error is a plain one for a
// bad length or one-stage list, else a *ChainError naming where the
// entries stop.
func keyOf(id *listID, stages []ChainStage) {
	switch n := len(stages); {
	case n == 0:
		id.err = fmt.Errorf("iatf: chain: %w: no stages", ErrOperand)
		return
	case n > maxChainStages:
		id.err = fmt.Errorf("iatf: chain: %w: %d stages exceeds the %d-stage bound", ErrOperand, n, maxChainStages)
		return
	}
	ids := id.buf[:]
	if len(stages) > len(ids) {
		id.more = make([]stageID, len(stages))
		ids = id.more
	}
	for i := range stages {
		st := &stages[i]
		err := stageKey(st, &ids[i].key)
		if first, a := stages[0].Ops[0], st.Ops[0]; err == nil && i > 0 {
			switch {
			case a.DT != first.DT:
				err = opErr(st.Op.Kind, "", ErrDType, "stage dtype %s differs from chain dtype %s", a.DT, first.DT)
			case a.count() != first.count():
				err = opErr(st.Op.Kind, "A", ErrCount,
					"has %d, chain has %d (chain stages share one batch count)", a.count(), first.count())
			}
		}
		if err != nil && len(stages) > 1 {
			err = &ChainError{Stage: i, Kind: st.Op.Kind, Err: err}
		}
		if id.err = err; err != nil {
			return
		}
		for s := 0; s < st.NOps; s++ {
			ids[i].alias[s] = int16(aliasOf(stages, i, s))
		}
		id.n++
	}
}

// route is the list's home-shard identity: a one-stage list's key
// identity, a chain's fold of its stages' identities, or 0 if invalid.
func (id *listID) route() uint64 {
	ids := id.entries()
	switch {
	case id.err != nil:
		return 0
	case len(ids) == 1:
		return ids[0].key.identity()
	}
	h := uint64(len(ids))
	for _, d := range ids {
		h = mix64(h, d.key.identity())
	}
	return avalanche(h)
}

// shapeOf names a plan key's per-shape series; copied onto a span it is
// also the request's problem descriptor.
func shapeOf(key planKey) obs.ShapeKey {
	s := obs.ShapeKey{Op: key.kind.String(), DType: key.dt.String(), M: key.m, N: key.n, K: key.k}
	ta, up := bit(key.transA == matrix.Transpose), bit(key.uplo == matrix.Upper)
	switch key.kind {
	case OpGEMM:
		s.Mode = gemmModes[ta<<1|bit(key.transB == matrix.Transpose)]
	case OpTRSM, OpTRMM:
		s.Mode = triModes[bit(key.side == matrix.Right)<<3|ta<<2|up<<1|bit(key.diag == matrix.Unit)]
	case OpSYRK:
		s.Mode = syrkModes[ta<<1|up]
		s.N = key.m
	default:
		s.N = key.m
	}
	return s
}

// describe stamps a span with a stage's problem descriptor.
func describe(sp *obs.Span, s obs.ShapeKey, count, workers int) {
	if sp != nil {
		sp.DType, sp.Mode = s.DType, s.Mode
		sp.M, sp.N, sp.K, sp.Count = s.M, s.N, s.K, count
		sp.Workers = sched.Resolve(workers)
	}
}

// The static mode strings of the per-shape series, indexed by the op's
// flag bits in mode-string order, so the warm path never allocates one:
// GEMM TransA·TransB, TRSM/TRMM Side·TransA·Uplo·Diag, SYRK Trans·Uplo.
var (
	gemmModes = [4]string{"NN", "NT", "TN", "TT"}
	triModes  = [16]string{"LNLN", "LNLU", "LNUN", "LNUU", "LTLN", "LTLU", "LTUN", "LTUU",
		"RNLN", "RNLU", "RNUN", "RNUU", "RTLN", "RTLU", "RTUN", "RTUU"}
	syrkModes = [4]string{"NL", "NU", "TL", "TU"}
)

// bit is 1 for a set mode flag.
func bit(set bool) int {
	if set {
		return 1
	}
	return 0
}

// cmarCeiling computes the plan's predicted GFLOPS ceiling from its main
// kernel size: FMA throughput is capped by the smaller of the FP issue
// width and the memory-port-scaled CMAR (Eq. 2/3) — the paper's
// compute-to-memory-access bound on sustainable kernel throughput.
func cmarCeiling(tun core.Tuning, dt vec.DType, mc, nc int) float64 {
	prof := tun.Prof
	eb := dt.ElemBytes()
	fma := float64(prof.FPPorts(eb))
	if memBound := ktmpl.CMAR(dt, mc, nc) * float64(prof.MemPorts); memBound < fma {
		fma = memBound
	}
	return prof.FreqGHz * fma * float64(prof.Lanes(eb)) * 2
}

// planFacts reads a cached plan's static decisions for the per-shape
// series — the CMAR ceiling of its main kernel, its packing decision and
// its super-batch size — and the flops of count matrices. summary=false
// skips the decisions (the warm path records only flops).
func (e *Engine) planFacts(pv any, count int, summary bool) (ceiling float64, pack string, gpb int, flops float64) {
	switch pl := pv.(type) {
	case *core.GEMMPlan:
		p := pl.P
		p.Count = count
		if summary {
			ceiling, pack = cmarCeiling(e.tun, p.DT, pl.MTiles[0], pl.NTiles[0]), gemmPackDesc(pl.PackA, pl.PackB)
		}
		return ceiling, pack, pl.GroupsPerBatch, p.FLOPs()
	case *core.TRSMPlan:
		p := pl.P
		p.Count = count
		if summary {
			ceiling, pack = cmarCeiling(e.tun, p.DT, pl.Panels[0], pl.ColTiles[0]), "tri"
		}
		return ceiling, pack, pl.GroupsPerBatch, p.FLOPs()
	case *core.TRMMPlan:
		p := pl.P
		p.Count = count
		if summary {
			ceiling, pack = cmarCeiling(e.tun, p.DT, pl.Panels[0], pl.ColTiles[0]), "tri"
		}
		return ceiling, pack, pl.GroupsPerBatch, p.FLOPs()
	case *core.SYRKPlan:
		p := pl.P
		p.Count = count
		if summary {
			ceiling, pack = cmarCeiling(e.tun, p.DT, pl.Tiles[0], pl.Tiles[0]), "A+Aᵀ"
		}
		return ceiling, pack, pl.GroupsPerBatch, p.FLOPs()
	case *factorPlan:
		return 0, "in-place", 1, pl.flopsPerMatrix * float64(count)
	}
	return 0, "", 0, 0
}

// report opens a resolved stage's per-shape series for the call: the
// series gets the plan outcome, the worker split and — on a miss — the
// plan's static decisions. It returns the work of the stage's count
// matrices.
func (e *Engine) report(r *stageRun) (flops float64) {
	s := e.obs.Series(shapeOf(r.key))
	s.Plan(r.outcome)
	s.SetWorkers(sched.Resolve(r.st.Op.Workers))
	summary := r.outcome == obs.CacheMiss
	ceiling, pack, gpb, flops := e.planFacts(r.pv, r.count, summary)
	if summary {
		s.SetPlan(ceiling, pack, gpb)
	}
	r.series = s
	return flops
}

// gemmPackDesc names the GEMM packing decision for the per-shape series:
// "A" or "none" on the native path, whose kernels read B in place; B
// appears only under the ForcePackA ablation.
func gemmPackDesc(packA, packB bool) string {
	switch {
	case packA && packB:
		return "A+B"
	case packA:
		return "A"
	case packB:
		return "B"
	}
	return "none"
}

// gemmDims validates GEMM operand shapes and counts and returns the
// problem dimensions (m, n, k).
func gemmDims(op *OpDesc, a, b, c Operand) (m, n, k int, err error) {
	m, n = c.rows(), c.cols()
	k = a.cols()
	if op.TransA == matrix.Transpose {
		k = a.rows()
	}
	oaR, oaC := a.rows(), a.cols()
	if op.TransA == matrix.Transpose {
		oaR, oaC = oaC, oaR
	}
	obR, obC := b.rows(), b.cols()
	if op.TransB == matrix.Transpose {
		obR, obC = obC, obR
	}
	if oaR != m || oaC != k {
		return 0, 0, 0, opErr(OpGEMM, "A", ErrShape, "op(A)=%dx%d, want %dx%d for C=%dx%d", oaR, oaC, m, k, m, n)
	}
	if obR != k || obC != n {
		return 0, 0, 0, opErr(OpGEMM, "B", ErrShape, "op(B)=%dx%d, want %dx%d for C=%dx%d", obR, obC, k, n, m, n)
	}
	if a.count() != c.count() {
		return 0, 0, 0, opErr(OpGEMM, "A", ErrCount, "A has %d, C has %d", a.count(), c.count())
	}
	if b.count() != c.count() {
		return 0, 0, 0, opErr(OpGEMM, "B", ErrCount, "B has %d, C has %d", b.count(), c.count())
	}
	return m, n, k, nil
}

// triDims validates TRSM/TRMM operand shapes and counts and returns B's
// dimensions (m, n).
func triDims(op *OpDesc, a, b Operand) (m, n int, err error) {
	m, n = b.rows(), b.cols()
	if a.rows() != a.cols() {
		return 0, 0, opErr(op.Kind, "A", ErrShape, "A must be square, got %dx%d", a.rows(), a.cols())
	}
	dim := m
	if op.Side == matrix.Right {
		dim = n
	}
	if a.rows() != dim {
		return 0, 0, opErr(op.Kind, "A", ErrShape, "A is %dx%d but side %s of a %dx%d B requires %dx%d",
			a.rows(), a.cols(), op.Side, m, n, dim, dim)
	}
	if a.count() != b.count() {
		return 0, 0, opErr(op.Kind, "A", ErrCount, "A has %d, B has %d", a.count(), b.count())
	}
	return m, n, nil
}

// syrkDims validates SYRK operand shapes and counts and returns the
// problem dimensions (n, k).
func syrkDims(op *OpDesc, a, c Operand) (n, k int, err error) {
	n = c.rows()
	if c.rows() != c.cols() {
		return 0, 0, opErr(OpSYRK, "C", ErrShape, "C must be square, got %dx%d", c.rows(), c.cols())
	}
	k = a.cols()
	oaR := a.rows()
	if op.TransA == matrix.Transpose {
		k, oaR = a.rows(), a.cols()
	}
	if oaR != n {
		return 0, 0, opErr(OpSYRK, "A", ErrShape, "op(A)=%dx%d, want %dx%d for C=%dx%d", oaR, k, n, k, n, n)
	}
	if a.count() != c.count() {
		return 0, 0, opErr(OpSYRK, "A", ErrCount, "A has %d, C has %d", a.count(), c.count())
	}
	return n, k, nil
}
