package iatf

import (
	"context"
	"fmt"
)

// Grouped interfaces: real workloads often hold several groups of
// matrices, each group internally fixed-size but sizes differing between
// groups (the group_count style of MKL's gemm_batch and the Batched BLAS
// proposal). IATF's framework is per-fixed-size by design; the grouped
// calls lower each group onto one Request and run it through the Do
// dispatch path, reusing the memoized install-time kernels and cached
// plans across groups that share shapes. A failing group is reported
// with a typed *GroupError wrapping the engine-taxonomy cause, so both
// errors.As (for the index) and errors.Is (for ErrShape etc.) work.

// GroupError reports which group of a grouped call failed and why. It
// wraps the underlying engine error: errors.Is(err, iatf.ErrShape) et
// al. see through it.
type GroupError struct {
	Op    string // routine name, e.g. "GEMM"
	Index int    // failing group's position in the groups slice
	Err   error  // the underlying typed error
}

// Error formats the group index ahead of the cause.
func (e *GroupError) Error() string {
	return fmt.Sprintf("iatf: %s group %d: %v", e.Op, e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *GroupError) Unwrap() error { return e.Err }

// groupErr wraps a per-group failure.
func groupErr(op string, i int, err error) error {
	if err == nil {
		return nil
	}
	return &GroupError{Op: op, Index: i, Err: err}
}

// GEMMGroup is one fixed-size group of a grouped GEMM call:
// C = Alpha·op(A)·op(B) + Beta·C over the group's batch.
type GEMMGroup[T Scalar] struct {
	TransA, TransB Trans
	Alpha, Beta    T
	A, B, C        *Compact[T]
}

// GEMMGrouped executes every group as one Do call with opts (WithWorkers
// splits each group's batch, WithEngine selects the engine). It stops at
// the first error, reporting the group index via *GroupError. Groups
// sharing a shape reuse one cached execution plan.
func GEMMGrouped[T Scalar](groups []GEMMGroup[T], opts ...Option) error {
	ctx := context.Background()
	for i, g := range groups {
		err := Do(ctx, Request[T]{
			Op: OpGEMM, TransA: g.TransA, TransB: g.TransB,
			Alpha: g.Alpha, Beta: g.Beta, A: g.A, B: g.B, C: g.C,
		}, opts...)
		if err != nil {
			return groupErr("GEMM", i, err)
		}
	}
	return nil
}

// TRSMGroup is one fixed-size group of a grouped TRSM call.
type TRSMGroup[T Scalar] struct {
	Side   Side
	Uplo   Uplo
	TransA Trans
	Diag   Diag
	Alpha  T
	A, B   *Compact[T]
}

// TRSMGrouped executes every group of triangular solves as one Do call
// with opts, reporting a failing group via *GroupError.
func TRSMGrouped[T Scalar](groups []TRSMGroup[T], opts ...Option) error {
	ctx := context.Background()
	for i, g := range groups {
		err := Do(ctx, Request[T]{
			Op: OpTRSM, Side: g.Side, Uplo: g.Uplo, TransA: g.TransA,
			Diag: g.Diag, Alpha: g.Alpha, A: g.A, B: g.B,
		}, opts...)
		if err != nil {
			return groupErr("TRSM", i, err)
		}
	}
	return nil
}

// TRMMGroup is one fixed-size group of a grouped TRMM call.
type TRMMGroup[T Scalar] struct {
	Side   Side
	Uplo   Uplo
	TransA Trans
	Diag   Diag
	Alpha  T
	A, B   *Compact[T]
}

// TRMMGrouped executes every group of triangular multiplies as one Do
// call with opts, reporting a failing group via *GroupError.
func TRMMGrouped[T Scalar](groups []TRMMGroup[T], opts ...Option) error {
	ctx := context.Background()
	for i, g := range groups {
		err := Do(ctx, Request[T]{
			Op: OpTRMM, Side: g.Side, Uplo: g.Uplo, TransA: g.TransA,
			Diag: g.Diag, Alpha: g.Alpha, A: g.A, B: g.B,
		}, opts...)
		if err != nil {
			return groupErr("TRMM", i, err)
		}
	}
	return nil
}

// SYRKGroup is one fixed-size group of a grouped SYRK call:
// C = Alpha·op(A)·op(A)ᵀ + Beta·C over the group's batch.
type SYRKGroup[T Scalar] struct {
	Uplo        Uplo
	Trans       Trans
	Alpha, Beta T
	A, C        *Compact[T]
}

// SYRKGrouped executes every group of symmetric rank-k updates as one Do
// call with opts, reporting a failing group via *GroupError.
func SYRKGrouped[T Scalar](groups []SYRKGroup[T], opts ...Option) error {
	ctx := context.Background()
	for i, g := range groups {
		err := Do(ctx, Request[T]{
			Op: OpSYRK, Uplo: g.Uplo, TransA: g.Trans,
			Alpha: g.Alpha, Beta: g.Beta, A: g.A, C: g.C,
		}, opts...)
		if err != nil {
			return groupErr("SYRK", i, err)
		}
	}
	return nil
}
