package iatf

import (
	"context"
	"fmt"

	"iatf/internal/engine"
)

// ErrQueueFull is returned by Submit (and Do with WithAsync) when the
// engine's bounded submission queue is at capacity — the backpressure
// signal under overload. Branch with errors.Is(err, iatf.ErrQueueFull).
var ErrQueueFull = engine.ErrQueueFull

// Op selects the routine of a Request.
type Op int

// The level-3 routines Do and Submit accept. (The factorizations keep
// their dedicated entry points: they return per-matrix info codes the
// error-only request API cannot carry.)
const (
	OpGEMM Op = iota
	OpTRSM
	OpTRMM
	OpSYRK
)

// Request describes one batched level-3 call as data: the routine, its
// mode flags and scalars, and the operands in BLAS argument order. Which
// fields are read depends on Op:
//
//	OpGEMM: TransA, TransB, Alpha, Beta, A, B, C  (C = α·op(A)·op(B) + β·C)
//	OpTRSM: Side, Uplo, TransA, Diag, Alpha, A, B (B overwritten with X)
//	OpTRMM: Side, Uplo, TransA, Diag, Alpha, A, B (B overwritten)
//	OpSYRK: Uplo, TransA, Alpha, Beta, A, C       (C = α·op(A)·op(A)ᵀ + β·C)
//
// A Request is a value: build it once and reuse it across calls.
type Request[T Scalar] struct {
	Op             Op
	TransA, TransB Trans
	Side           Side
	Uplo           Uplo
	Diag           Diag
	Alpha, Beta    T
	A, B, C        *Compact[T]
}

// callCfg is the resolved option set of one call: the target, the
// worker split, and the engine call envelope (span sink, trace id,
// tenant, priority).
type callCfg struct {
	workers int
	eng     *Engine
	async   bool
	call    engine.Call
}

// Option configures one Do or Submit call. Options are plain values (not
// closures) so passing them never forces a heap allocation beyond the
// variadic slice itself.
type Option struct {
	workers    int
	hasWorkers bool
	priority   int
	hasPrio    bool
	eng        *Engine
	async      bool
	sink       func(*Span)
	trace      string
	tenant     string
}

// WithWorkers sets the worker split: n <= 0 means auto (one worker per
// GOMAXPROCS); the default is 1 (serial on the caller).
func WithWorkers(n int) Option { return Option{workers: n, hasWorkers: true} }

// WithEngine routes the call through a specific engine (its plan cache,
// submission queue and counters) instead of the process-wide default.
// An EngineSet's Engine routes each call to its identity's home shard.
// When several engines are given the last one wins.
func WithEngine(e *Engine) Option { return Option{eng: e} }

// WithPriority sets the request's dispatch class for the async queue's
// deadline-ordered drain: when two queued requests share the earliest
// context deadline (or neither carries one), the higher class executes
// first. The default class is 0; negative classes yield to it. Priority
// never changes results or shard routing — only dispatch order — and is
// ignored on the synchronous path.
func WithPriority(class int) Option { return Option{priority: class, hasPrio: true} }

// WithAsync routes the call through the engine's async submission queue,
// where concurrent requests run one at a time in deadline order. Do
// still blocks until the request completes; use Submit for the
// fire-now-wait-later form.
func WithAsync() Option { return Option{async: true} }

// WithSpanSink traces this one call: the request carries a lifecycle
// span (even when no engine-level sink is installed) and fn receives it
// when the request resolves — including rejection and cancellation
// outcomes. fn runs synchronously on the resolving goroutine and must
// copy the span if it retains it.
//
//	var got iatf.Span
//	err := iatf.Do(ctx, req, iatf.WithSpanSink(func(sp *iatf.Span) { got = *sp }))
func WithSpanSink(fn func(*Span)) Option { return Option{sink: fn} }

// WithTrace stamps the request's lifecycle span with an end-to-end
// correlation id (e.g. a W3C traceparent trace-id), so an access-log
// line at the serving tier and the engine span it caused share one id.
// Observability-only: the id never affects routing or results.
func WithTrace(id string) Option { return Option{trace: id} }

// WithTenant attributes the request to a tenant for per-tenant SLO
// accounting (Engine.SetTenants): the resolved request is classified
// into the tenant's rolling series — deadline hit/miss against the
// request's context deadline (or the tenant's configured objective),
// shed on queue-full, error otherwise. With accounting disabled the
// cost is one atomic load. Observability-only, like WithTrace.
func WithTenant(name string) Option { return Option{tenant: name} }

func resolveOpts(opts []Option) callCfg {
	cfg := callCfg{workers: 1}
	for _, o := range opts {
		if o.hasWorkers {
			cfg.workers = o.workers
		}
		if o.hasPrio {
			cfg.call.Priority = o.priority
		}
		if o.eng != nil {
			cfg.eng = o.eng
		}
		if o.async {
			cfg.async = true
		}
		if o.sink != nil {
			cfg.call.Sink = o.sink
		}
		if o.trace != "" {
			cfg.call.Trace = o.trace
		}
		if o.tenant != "" {
			cfg.call.Origin = o.tenant
		}
	}
	if cfg.eng == nil {
		cfg.eng = DefaultEngine()
	}
	return cfg
}

// stageOf lowers a Request onto the engine's one-stage list through its
// op's Stage constructor, so a request carries only the fields its op
// reads: a field the op ignores cannot split routing. The array lives on
// the caller's stack: the warm synchronous path must not allocate.
func stageOf[T Scalar](req Request[T], workers int) ([1]engine.ChainStage, error) {
	var s Stage[T]
	switch req.Op {
	case OpGEMM:
		s = GEMMStage(req.TransA, req.TransB, req.Alpha, req.A, req.B, req.Beta, req.C)
	case OpTRSM:
		s = TRSMStage(req.Side, req.Uplo, req.TransA, req.Diag, req.Alpha, req.A, req.B)
	case OpTRMM:
		s = TRMMStage(req.Side, req.Uplo, req.TransA, req.Diag, req.Alpha, req.A, req.B)
	case OpSYRK:
		s = SYRKStage(req.Uplo, req.TransA, req.Alpha, req.A, req.Beta, req.C)
	default:
		return [1]engine.ChainStage{}, fmt.Errorf("iatf: unknown request op %d: %w", int(req.Op), ErrOperand)
	}
	s.inner.Op.Workers = workers
	return [1]engine.ChainStage{s.inner}, nil
}

// Do executes one request. By default it runs synchronously through the
// engine's dispatch path — a warm call costs at most two allocations.
// With WithAsync it submits to the engine's queue and waits. ctx is
// honored in both forms: a context already done returns ctx.Err()
// without executing.
//
//	err := iatf.Do(ctx, iatf.Request[float32]{
//	    Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c,
//	}, iatf.WithWorkers(0), iatf.WithAsync())
func Do[T Scalar](ctx context.Context, req Request[T], opts ...Option) error {
	cfg := resolveOpts(opts)
	st, err := stageOf(req, cfg.workers)
	if err != nil {
		return err
	}
	return cfg.run(ctx, st[:])
}

// Submit enqueues one request on the engine's submission queue and
// returns a Future resolving when it completes. The operands must not be
// mutated until then. If the queue is idle the request executes
// immediately on the caller (single-caller latency is unchanged); under
// concurrent load it queues, and the dispatcher runs each queued request
// on its own, earliest deadline first. A full queue returns
// ErrQueueFull; a context already done returns ctx.Err().
func Submit[T Scalar](ctx context.Context, req Request[T], opts ...Option) (*Future, error) {
	cfg := resolveOpts(opts)
	st, err := stageOf(req, cfg.workers)
	if err != nil {
		return nil, err
	}
	return cfg.submit(ctx, st[:])
}

// run executes a lowered stage list on the configured target: inline,
// or through the submission queue and waited out with WithAsync.
func (c *callCfg) run(ctx context.Context, st []engine.ChainStage) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.async {
		return c.eng.inner.Run(ctx, st, c.call)
	}
	fut, err := c.submit(ctx, st)
	if err != nil {
		return err
	}
	return fut.Wait(ctx)
}

// submit enqueues a lowered stage list on the configured target (a set
// of several shards falls back to a sibling when the home queue is
// full).
func (c *callCfg) submit(ctx context.Context, st []engine.ChainStage) (*Future, error) {
	return c.eng.inner.Submit(ctx, st, c.call)
}

// Future is the completion handle of a submitted request: Done returns
// a channel closed on completion, Err blocks for the outcome, and
// Wait(ctx) blocks until completion or ctx is done (abandoning the wait
// does not cancel the request; the submission's own context governs
// execution).
type Future = engine.Future
