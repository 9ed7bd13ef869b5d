// Factor dispatch: the compact batched factorizations route through the
// engine like every level-3 op, gaining the typed validation taxonomy,
// per-shape observability series and plan-cache counters. LU and
// Cholesky are stages of Run/Submit (exec.go); the pivoted LU keeps its
// own entry for the pivot record. A factorization needs no packing or
// tiling plan — each interleave group is one kernel call — so its cached
// "plan" is just the per-matrix flop model the observability layer
// records against.
package engine

import (
	"time"

	"iatf/internal/core"
)

// factorPlan is the cached plan of a factorization: the flop count of
// one matrix (the only input-aware quantity the run-time stage needs).
type factorPlan struct {
	flopsPerMatrix float64
}

// factorFLOPs models the per-matrix work: ~2n³/3 for (pivoted) LU,
// ~n³/3 for Cholesky.
func factorFLOPs(kind OpKind, n int) float64 {
	fn := float64(n)
	if kind == OpCholesky {
		return fn * fn * fn / 3
	}
	return 2 * fn * fn * fn / 3
}

// checkFactor validates a factorization operand with the engine
// taxonomy: present, square, and real-typed for Cholesky.
func checkFactor(kind OpKind, a Operand) error {
	if !a.valid() {
		return opErr(kind, "A", ErrOperand, "nil or empty")
	}
	if a.rows() != a.cols() {
		return opErr(kind, "A", ErrShape, "square matrices required, got %dx%d", a.rows(), a.cols())
	}
	if kind == OpCholesky && a.DT.IsComplex() {
		return opErr(kind, "A", ErrDType, "real element types required, got %s", a.DT)
	}
	return nil
}

// RunLUPiv is the dispatch path of the partially pivoted LU: it
// validates A, resolves the factor plan through the cache, executes on
// the native kernels and returns the pivot record the pivoted solve
// consumes with the per-matrix info codes (0 = success, k+1 = first
// zero pivot column). LU and Cholesky run as stages of Run/Submit; the
// pivot record cannot ride that error-only surface.
func (e *Engine) RunLUPiv(op OpDesc, a Operand) (*core.Pivots, []int, error) {
	if err := checkFactor(OpLUPiv, a); err != nil {
		return nil, nil, err
	}
	key := planKey{kind: OpLUPiv, dt: a.DT, m: a.rows(), countBucket: 1}
	_, series, flops, _ := e.resolve(key, shapeOf(key), a.count(), op.Workers)
	start := time.Now()
	var (
		piv  *core.Pivots
		info []int
		err  error
	)
	if a.F32 != nil {
		piv, info, err = core.ExecLUPivNative(e.rt, a.F32, op.Workers)
		a.F32.Invalidate()
	} else {
		piv, info, err = core.ExecLUPivNative(e.rt, a.F64, op.Workers)
		a.F64.Invalidate()
	}
	series.Record(time.Since(start), flops, err != nil)
	return piv, info, err
}
