package iatf

import (
	"context"
	"errors"
	"fmt"

	"iatf/internal/core"
	"iatf/internal/engine"
)

// The compact batched factorizations route through the engine like
// every level-3 op: calls are validated with the typed taxonomy
// (ErrShape/ErrDType/ErrOperand), counted in the plan cache, and
// observed in the per-shape series ("LU", "CHOL", "LUPIV" ops in
// iatf-info -engine). LU, Cholesky and the pivoted LU are one-stage
// lists of the same Run/Submit path Do takes, so their spans, trace ids
// and tenant accounting work as Do's do.

// LU factors every matrix of the compact batch in place into L\U
// (Doolittle: unit lower triangle below the diagonal, upper triangle with
// the diagonal — no pivoting, intended for the diagonally dominant blocks
// batched solvers feed it). The returned info slice holds one code per
// matrix: 0 on success, k+1 if pivot column k was exactly zero.
//
// Together with LUSolve this extends the framework with LAPACK-style
// compact kernels (cf. the compact BLAS/LAPACK design the paper builds
// on).
//
// Options work as in Do: WithWorkers splits the batch across the
// persistent worker pool, WithEngine selects the engine,
// WithSpanSink/WithTrace/WithTenant trace and attribute the call, and
// WithAsync routes it through the submission queue. A batch holding a
// singular matrix still returns its info codes with a nil error, while
// its span, per-shape series and tenant ledger count the call as failed,
// as a one-stage Chain of LUStage does.
func LU[T Scalar](a *Compact[T], opts ...Option) ([]int, error) {
	return factor(engine.OpLU, a, nil, opts)
}

// factor runs an in-place factorization as a one-stage list on the
// call's target and turns a singular batch back into its info codes.
// piv receives the pivoted LU's pivot record.
func factor[T Scalar](kind engine.OpKind, a *Compact[T], piv *core.Pivots, opts []Option) ([]int, error) {
	cfg := resolveOpts(opts)
	st := [1]engine.ChainStage{{Op: engine.OpDesc{Kind: kind, Workers: cfg.workers},
		Ops: [3]engine.Operand{operandOf(a)}, NOps: 1, Piv: piv}}
	err := cfg.run(context.Background(), st[:])
	var ce *ChainError
	if errors.As(err, &ce) && errors.Is(err, ErrSingular) {
		return ce.Info, nil
	}
	if err != nil {
		return nil, err
	}
	return make([]int, a.Count()), nil
}

// LUSolve solves A·X = B for every matrix of the batch, where a holds
// the LU factors produced by LU. B is overwritten with X.
func LUSolve[T Scalar](a, b *Compact[T]) error {
	if err := TRSM(Left, Lower, NoTrans, Unit, T(1), a, b); err != nil {
		return fmt.Errorf("iatf: LU forward solve: %w", err)
	}
	if err := TRSM(Left, Upper, NoTrans, NonUnit, T(1), a, b); err != nil {
		return fmt.Errorf("iatf: LU backward solve: %w", err)
	}
	return nil
}

// Cholesky factors every matrix of the compact batch in place into its
// lower Cholesky factor L (A = L·Lᵀ; the strict upper triangle is left
// untouched). Real element types only (errors.Is(err, ErrDType)
// otherwise). info codes are per matrix: 0 on success, k+1 at the first
// non-positive pivot. Options work as in LU.
func Cholesky[T Scalar](a *Compact[T], opts ...Option) ([]int, error) {
	return factor(engine.OpCholesky, a, nil, opts)
}

// CholeskySolve solves A·X = B for every matrix of the batch, where a
// holds the Cholesky factors produced by Cholesky. B is overwritten.
func CholeskySolve[T Scalar](a, b *Compact[T]) error {
	if err := TRSM(Left, Lower, NoTrans, NonUnit, T(1), a, b); err != nil {
		return fmt.Errorf("iatf: Cholesky forward solve: %w", err)
	}
	if err := TRSM(Left, Lower, Transpose, NonUnit, T(1), a, b); err != nil {
		return fmt.Errorf("iatf: Cholesky backward solve: %w", err)
	}
	return nil
}

// Pivots is the opaque pivot record returned by LUPivoted.
type Pivots struct {
	inner *core.Pivots
}

// LUPivoted factors every matrix in place with partial pivoting
// (P·A = L·U) — the robust form for matrices that are not diagonally
// dominant. The returned Pivots must be passed to LUSolvePivoted. info
// codes are per matrix: 0 on success, k+1 at the first zero pivot
// column. Options and singular batches work as in LU.
func LUPivoted[T Scalar](a *Compact[T], opts ...Option) (*Pivots, []int, error) {
	piv := new(core.Pivots)
	info, err := factor(engine.OpLUPiv, a, piv, opts)
	if err != nil {
		return nil, nil, err
	}
	return &Pivots{inner: piv}, info, nil
}

// LUSolvePivoted solves A·X = B for every matrix of the batch using the
// factors and pivots from LUPivoted. B is overwritten with X.
func LUSolvePivoted[T Scalar](a *Compact[T], piv *Pivots, b *Compact[T]) error {
	if piv == nil || piv.inner == nil {
		return fmt.Errorf("iatf: LUSolvePivoted: %w: nil pivot record", ErrOperand)
	}
	if err := a.check("A"); err != nil {
		return err
	}
	if err := b.check("B"); err != nil {
		return err
	}
	if b.Rows() != a.Rows() {
		return fmt.Errorf("iatf: LUSolvePivoted operand B: %w: B has %d rows, factors have %d",
			ErrShape, b.Rows(), a.Rows())
	}
	if b.Count() != a.Count() {
		return fmt.Errorf("iatf: LUSolvePivoted operand B: %w: B has %d, factors have %d",
			ErrCount, b.Count(), a.Count())
	}
	var err error
	if a.f32 != nil {
		err = core.ExecLUPivSolveNative(nil, a.f32, piv.inner, b.f32, 1)
	} else {
		err = core.ExecLUPivSolveNative(nil, a.f64, piv.inner, b.f64, 1)
	}
	if err != nil {
		return err
	}
	return LUSolve(a, b)
}

// Invert replaces every matrix of the compact batch with its inverse,
// computed via the pivoted LU factorization and a solve against the
// identity. Matrices reported singular in the returned info are left in
// an unspecified state.
func Invert[T Scalar](a *Compact[T]) ([]int, error) {
	if err := a.check("A"); err != nil {
		return nil, err
	}
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("iatf: Invert operand A: %w: square matrices required, got %dx%d",
			ErrShape, a.Rows(), a.Cols())
	}
	n, count := a.Rows(), a.Count()
	factors := a.Clone()
	piv, info, err := LUPivoted(factors)
	if err != nil {
		return nil, err
	}
	// Identity batch as the right-hand side.
	eye := NewBatch[T](count, n, n)
	one := scalarOne[T]()
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			eye.Set(m, i, i, one)
		}
	}
	x := Pack(eye)
	if err := LUSolvePivoted(factors, piv, x); err != nil {
		return nil, err
	}
	if a.f32 != nil {
		copy(a.f32.Data, x.f32.Data)
	} else {
		copy(a.f64.Data, x.f64.Data)
	}
	a.Invalidate() // the batch contents changed in place
	return info, nil
}

// scalarOne returns 1 in the scalar type.
func scalarOne[T Scalar]() T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(1)).(T)
	case float64:
		return any(float64(1)).(T)
	case complex64:
		return any(complex64(1)).(T)
	default:
		return any(complex128(1)).(T)
	}
}
