package iatf

import (
	"iatf/internal/engine"
	"iatf/internal/obs"
)

// Typed validation taxonomy: every malformed call is rejected at the
// engine boundary with an error that names the op and the offending
// operand and wraps one of these sentinels, so callers can branch with
// errors.Is(err, iatf.ErrShape) instead of string matching.
var (
	ErrShape   = engine.ErrShape   // operand dimensions inconsistent with the op
	ErrCount   = engine.ErrCount   // operand batch counts disagree
	ErrDType   = engine.ErrDType   // operand element types disagree
	ErrOperand = engine.ErrOperand // nil/empty operand or wrong arity
)

// ShapeStats is the per-shape rolling series the engine keeps for every
// observed (op, dtype, mode, shape): calls, latency quantiles, achieved
// GFLOPS vs the plan's CMAR-predicted ceiling, plan-cache outcomes and
// the plan's input-aware decisions.
type ShapeStats = obs.ShapeSnapshot

// Engine is the run-time execution engine every public op routes through:
// a sharded plan cache (so repeated shapes skip the run-time planning
// stage entirely), size-class pools for packing buffers, a persistent
// worker pool for calls with WithWorkers, and the async submission
// queue. The package-level functions (GEMM, TRSM, Do, ...) use the
// process-wide default engine; NewEngine builds a private one with its
// own plan cache and counters, which WithEngine selects per call.
//
// An Engine is a set of one shard: an EngineSet is an Engine of n
// shards, and every method below acts on all of its shards.
type Engine struct {
	inner *engine.Set
}

// EngineStats is a snapshot of engine counters: plan-cache hits/misses/
// entries, packing-buffer pool reuse, worker-pool activity, and the
// submission queue's coalescing counters in EngineStats.Queue. On an
// EngineSet it is the cross-shard aggregate.
type EngineStats = engine.Stats

// QueueStats is the submission-queue slice of EngineStats: submissions,
// inline fast-path executions, dispatches, coalesced riders, the largest
// fused bundle, cancellations, backpressure rejections, and the queue's
// current depth and capacity.
type QueueStats = engine.QueueStats

var defaultEng = NewEngine()

// DefaultEngine returns the process-wide engine used by the package-level
// operations. Its Stats expose the serving counters:
//
//	s := iatf.DefaultEngine().Stats()
//	fmt.Println(s.PlanHits, s.PlanMisses, s.Buffers.Reuses)
func DefaultEngine() *Engine { return defaultEng }

// NewEngine constructs a private engine — an isolated plan cache and
// counters, for tests or multi-tenant serving — configured by options:
//
//	eng := iatf.NewEngine(
//	    iatf.WithQueueCapacity(4096),
//	    iatf.WithBatchWindow(time.Millisecond),
//	)
//
// With no options the engine uses the default tuning (Kunpeng 920
// profile).
func NewEngine(opts ...EngineOption) *Engine { return newEngine(1, opts) }

// newEngine builds a set of n shards with the options' tuning and
// queue policy.
func newEngine(n int, opts []EngineOption) *Engine {
	cfg := resolveConfig(opts)
	return &Engine{inner: engine.NewSet(cfg.tun, n, cfg.queue)}
}

// Stats returns the engine's current counters, including the per-shape
// series in Stats.Shapes (ordered by call count).
func (e *Engine) Stats() EngineStats { return e.inner.Stats().Aggregate }

// operandOf type-erases a compact batch for the engine dispatch path.
// A nil batch maps to the zero Operand, which the engine rejects with a
// named error.
func operandOf[T Scalar](c *Compact[T]) engine.Operand {
	if c == nil {
		return engine.Operand{}
	}
	return engine.Operand{DT: c.dt, F32: c.f32, F64: c.f64}
}
