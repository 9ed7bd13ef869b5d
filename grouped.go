package iatf

import (
	"context"
	"fmt"
)

// Grouped calls: real workloads often hold several groups of matrices,
// each group internally fixed-size but sizes differing between groups
// (the group_count style of MKL's gemm_batch and the Batched BLAS
// proposal). IATF's framework is per-fixed-size by design; a grouped
// call is one Request per group run through Do in order, reusing the
// memoized install-time kernels and cached plans across groups that
// share shapes. A failing group is reported with a typed *GroupError
// wrapping the engine-taxonomy cause, so both errors.As (for the index)
// and errors.Is (for ErrShape etc.) work.

// GroupError reports which group of a grouped call failed and why. It
// wraps the underlying engine error: errors.Is(err, iatf.ErrShape) et
// al. see through it.
type GroupError struct {
	Op    string // routine name, e.g. "GEMM"
	Index int    // failing group's position in the request slice
	Err   error  // the underlying typed error
}

// Error formats the group index ahead of the cause.
func (e *GroupError) Error() string {
	return fmt.Sprintf("iatf: %s group %d: %v", e.Op, e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *GroupError) Unwrap() error { return e.Err }

// DoGrouped executes each request, one fixed-size group, as one Do call
// with opts (WithWorkers splits each group's batch, WithEngine selects
// the engine, WithAsync queues each group). It stops at the first
// error, reporting the group's op and index via *GroupError. Groups
// sharing a shape reuse one cached execution plan.
func DoGrouped[T Scalar](ctx context.Context, reqs []Request[T], opts ...Option) error {
	for i := range reqs {
		if err := Do(ctx, reqs[i], opts...); err != nil {
			return &GroupError{Op: reqs[i].Op.name(), Index: i, Err: err}
		}
	}
	return nil
}

// name returns the routine name of a request op.
func (o Op) name() string {
	if o >= OpGEMM && o <= OpSYRK {
		return [...]string{"GEMM", "TRSM", "TRMM", "SYRK"}[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}
