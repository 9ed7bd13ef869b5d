package main

// adapter.go is the only file through which the untraced workloads call
// into the library. It uses the surface the library intends to keep —
// Do, Submit, Chain and SubmitChain with call options; NewEngine and
// NewEngineSet with engine options; Pack, Unpack and Prepack; serve.New —
// so an API consolidation edits this one file. Every engine is private:
// no run touches DefaultEngine or a plan store.

import (
	"context"
	"io"
	"net/http"
	"time"

	"iatf"
	"iatf/internal/serve"
)

// scalar is the element types the workloads use.
type scalar interface {
	float32 | float64 | complex128
}

// spanSink receives the engine's lifecycle span of one call; nil in
// untraced runs, where no observability option is passed at all.
type spanSink = func(*iatf.Span)

// target is the engine (or engine set) a call routes through, with its
// call options built once so an untraced call allocates nothing extra.
type target struct {
	opts []iatf.Option
}

func newEngineTarget() (target, *iatf.Engine) {
	e := iatf.NewEngine()
	return target{opts: []iatf.Option{iatf.WithEngine(e)}}, e
}

func newSetTarget(shards int) (target, *iatf.EngineSet) {
	s := iatf.NewEngineSet(shards)
	return target{opts: []iatf.Option{iatf.WithEngineSet(s)}}, s
}

func defaultShards() int { return iatf.DefaultShardCount() }

func (t target) with(sink spanSink) []iatf.Option {
	if sink == nil {
		return t.opts
	}
	return append(t.opts[:len(t.opts):len(t.opts)], iatf.WithSpanSink(sink))
}

// toCompact packs count column-major rows×cols matrices into the compact
// layout.
func toCompact[T scalar](data []T, count, rows, cols int) *iatf.Compact[T] {
	b := iatf.NewBatch[T](count, rows, cols)
	copy(b.Data(), data)
	return iatf.Pack(b)
}

// fromCompact unpacks a compact batch to column-major data.
func fromCompact[T scalar](c *iatf.Compact[T]) []T { return c.Unpack().Data() }

func prepack[T scalar](c *iatf.Compact[T]) { c.Prepack() }

func trans(t bool) iatf.Trans {
	if t {
		return iatf.Transpose
	}
	return iatf.NoTrans
}

func gemmReq[T scalar](ta, tb bool, alpha T, a, b *iatf.Compact[T], beta T, c *iatf.Compact[T]) iatf.Request[T] {
	return iatf.Request[T]{Op: iatf.OpGEMM, TransA: trans(ta), TransB: trans(tb),
		Alpha: alpha, Beta: beta, A: a, B: b, C: c}
}

// triReq is a left-side TRSM or TRMM on B with triangle A.
func triReq[T scalar](op opKind, upper, unit bool, a, b *iatf.Compact[T]) iatf.Request[T] {
	r := iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Lower, Diag: iatf.NonUnit,
		Alpha: 1, A: a, B: b}
	if op == opTRMM {
		r.Op = iatf.OpTRMM
	}
	if upper {
		r.Uplo = iatf.Upper
	}
	if unit {
		r.Diag = iatf.Unit
	}
	return r
}

func syrkReq[T scalar](alpha T, a *iatf.Compact[T], beta T, c *iatf.Compact[T]) iatf.Request[T] {
	return iatf.Request[T]{Op: iatf.OpSYRK, Uplo: iatf.Lower, Alpha: alpha, Beta: beta, A: a, C: c}
}

// do runs one request synchronously.
func do[T scalar](ctx context.Context, t target, req iatf.Request[T], sink spanSink) error {
	return iatf.Do(ctx, req, t.with(sink)...)
}

// future is a submitted request or chain.
type future = *iatf.Future

func submit[T scalar](ctx context.Context, t target, req iatf.Request[T], sink spanSink) (future, error) {
	return iatf.Submit(ctx, req, t.with(sink)...)
}

// solveChain is C = A·B (β = 0) followed by L⁻¹ and U⁻¹ applied in place:
// C = U⁻¹·L⁻¹·A·B with L unit lower and U upper — a solve against LU
// factors. No stage factors, so identical chains may fuse.
func solveChain[T scalar](a, b, c, l, u *iatf.Compact[T]) []iatf.Stage[T] {
	return []iatf.Stage[T]{
		iatf.GEMMStage(iatf.NoTrans, iatf.NoTrans, T(1), a, b, T(0), c),
		iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, T(1), l, c),
		iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, T(1), u, c),
	}
}

func chainSync[T scalar](ctx context.Context, t target, stages []iatf.Stage[T]) error {
	return iatf.Chain(ctx, stages, t.opts...)
}

func submitChain[T scalar](ctx context.Context, t target, stages []iatf.Stage[T], sink spanSink) (future, error) {
	return iatf.SubmitChain(ctx, stages, t.with(sink)...)
}

func wait(ctx context.Context, f future) error { return f.Wait(ctx) }

// server is the HTTP tier over its private engine.
type server struct {
	srv     *serve.Server
	eng     *iatf.Engine
	handler http.Handler
}

// newServer builds the HTTP tier the way iatf-serve configures it by
// default: one private engine, EDF on, a 2 ms batch window, tenant
// accounting on. accessLog is nil in untraced runs.
func newServer(tenants []string, accessLog io.Writer) server {
	eng := iatf.NewEngine(iatf.WithEDF(true), iatf.WithBatchWindow(2*time.Millisecond))
	tm := make(map[string]iatf.TenantObjective, len(tenants))
	for i, name := range tenants {
		tm[name] = iatf.TenantObjective{Class: i, Objective: time.Duration(serveDeadlineMs) * time.Millisecond, Target: 0.99}
	}
	s := serve.New(serve.Config{Engine: eng, Tenants: tm, AccessLog: accessLog})
	return server{srv: s, eng: eng, handler: s.Handler()}
}
