package iatf

// Cross-op fusion: Chain executes a sequence of batched operations as
// one call. Each stage plans through the plan cache and reports as its
// op; where the packed layouts of adjacent triangular stages over the
// same B line up, the call elides the producer's scatter and the
// consumer's re-pack: the intermediate stays in packed interleaved form
// between stages and results are bit-exact with running the stages one
// by one. Operands the chain only reads are prepacked once, so
// iterative solvers pack them on the first iteration only.

import (
	"context"

	"iatf/internal/engine"
)

// ErrSingular reports that a factorization stage of a chain hit a
// singular (or non-positive-definite) matrix. It arrives wrapped in a
// *ChainError carrying the per-matrix info codes; branch with
// errors.Is(err, iatf.ErrSingular).
var ErrSingular = engine.ErrSingular

// ChainError locates a chain failure: the failing stage index, its op
// kind, and — for factorization stages — the per-matrix info codes
// (one per matrix of the batch, 0 = success). Unwrap yields the
// underlying cause. Retrieve with errors.As.
type ChainError = engine.ChainError

// Stage is one operation of a Chain. Build stages with the
// constructors below; a Stage is a value and may be rebuilt every
// iteration (plans are cached by shape, not by stage identity).
type Stage[T Scalar] struct {
	inner engine.ChainStage
}

// GEMMStage is a C = alpha·op(A)·op(B) + beta·C stage — the arguments
// of GEMM.
func GEMMStage[T Scalar](ta, tb Trans, alpha T, a, b *Compact[T], beta T, c *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op: engine.OpDesc{Kind: engine.OpGEMM, TransA: ta, TransB: tb,
			Alpha: scalarToComplex(alpha), Beta: scalarToComplex(beta)},
		Ops:  [3]engine.Operand{operandOf(a), operandOf(b), operandOf(c)},
		NOps: 3,
	}}
}

// TRSMStage is an op(A)·X = alpha·B (Left) or X·op(A) = alpha·B (Right)
// solve stage overwriting B — the arguments of TRSM. Adjacent TRSM/TRMM
// stages over the same B are the fusable pattern: when their packed
// layouts agree, B hands off in packed form.
func TRSMStage[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op: engine.OpDesc{Kind: engine.OpTRSM, Side: side, Uplo: uplo, TransA: ta, Diag: diag,
			Alpha: scalarToComplex(alpha)},
		Ops:  [3]engine.Operand{operandOf(a), operandOf(b)},
		NOps: 2,
	}}
}

// TRMMStage is a B = alpha·op(A)·B (Left) or alpha·B·op(A) (Right)
// multiply stage — the arguments of TRMM. Fuses with adjacent
// triangular stages like TRSMStage.
func TRMMStage[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op: engine.OpDesc{Kind: engine.OpTRMM, Side: side, Uplo: uplo, TransA: ta, Diag: diag,
			Alpha: scalarToComplex(alpha)},
		Ops:  [3]engine.Operand{operandOf(a), operandOf(b)},
		NOps: 2,
	}}
}

// SYRKStage is a C = alpha·op(A)·op(A)ᵀ + beta·C stage — the arguments
// of SYRK.
func SYRKStage[T Scalar](uplo Uplo, trans Trans, alpha T, a *Compact[T], beta T, c *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op: engine.OpDesc{Kind: engine.OpSYRK, Uplo: uplo, TransA: trans,
			Alpha: scalarToComplex(alpha), Beta: scalarToComplex(beta)},
		Ops:  [3]engine.Operand{operandOf(a), operandOf(c)},
		NOps: 2,
	}}
}

// LUStage factors every matrix of A in place (unpivoted LU, unit lower
// triangle implicit) — the chain form of LU. A singular matrix aborts
// the chain with a *ChainError wrapping ErrSingular and carrying the
// per-matrix info codes. Follow with two TRSMStages over the factored A
// to solve, as LUSolve does.
func LUStage[T Scalar](a *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op:   engine.OpDesc{Kind: engine.OpLU},
		Ops:  [3]engine.Operand{operandOf(a)},
		NOps: 1,
	}}
}

// CholeskyStage factors every matrix of A in place (lower Cholesky) —
// the chain form of Cholesky. A non-positive-definite matrix aborts the
// chain with a *ChainError wrapping ErrSingular.
func CholeskyStage[T Scalar](a *Compact[T]) Stage[T] {
	return Stage[T]{inner: engine.ChainStage{
		Op:   engine.OpDesc{Kind: engine.OpCholesky},
		Ops:  [3]engine.Operand{operandOf(a)},
		NOps: 1,
	}}
}

// lowerStages appends the engine-level stage list to buf, applying the
// call's worker split to every stage. With a stack buf the lowered list
// of a short chain never touches the heap.
func lowerStages[T Scalar](buf []engine.ChainStage, stages []Stage[T], workers int) []engine.ChainStage {
	for i := range stages {
		buf = append(buf, stages[i].inner)
		buf[len(buf)-1].Op.Workers = workers
	}
	return buf
}

// Chain executes the stages in order as one planned unit and blocks
// until the chain completes. Results are bit-identical to issuing the
// stages as individual calls; the win is that fusable handoffs skip a
// scatter + re-pack round trip per stage boundary, chain-invariant
// operands (triangular factors reused across stages) are auto-prepacked,
// and the whole analysis replays from cache on every later iteration.
// A one-stage chain is exactly its op: same results, counters, spans
// and per-shape series as Do.
//
// A failing stage aborts the chain after re-materializing the canonical
// contents of any operand held in packed form, so operands always hold
// the prefix of completed stages; the error is a *ChainError locating
// the stage (for any stage count). ctx is checked before every stage —
// cancellation also re-materializes before returning.
//
// Options work as in Do: WithWorkers applies to every stage, WithEngine
// selects the target, WithSpanSink traces the chain as one
// parent span with per-stage children, WithTrace/WithTenant tag it, and
// WithAsync routes it through the submission queue.
//
//	err := iatf.Chain(ctx, []iatf.Stage[float64]{
//	    iatf.LUStage(a),
//	    iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, 1, a, b),
//	    iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
//	}, iatf.WithWorkers(0))
func Chain[T Scalar](ctx context.Context, stages []Stage[T], opts ...Option) error {
	cfg := resolveOpts(opts)
	cfg.call.Chain = true
	var buf [4]engine.ChainStage
	return cfg.run(ctx, lowerStages(buf[:0], stages, cfg.workers))
}

// SubmitChain enqueues the chain on the submission queue and returns a
// Future resolving when it completes. The whole chain occupies one
// queue slot and runs as one request; its stage operands must not be
// mutated until the future resolves. A full queue returns ErrQueueFull.
func SubmitChain[T Scalar](ctx context.Context, stages []Stage[T], opts ...Option) (*Future, error) {
	cfg := resolveOpts(opts)
	cfg.call.Chain = true
	var buf [4]engine.ChainStage
	return cfg.submit(ctx, lowerStages(buf[:0], stages, cfg.workers))
}
