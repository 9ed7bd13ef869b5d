// Factor dispatch: the compact batched factorizations (LU, Cholesky,
// pivoted LU) route through the engine like every level-3 op, gaining
// the typed validation taxonomy, per-shape observability series and
// plan-cache counters. A factorization needs no packing or tiling plan —
// each interleave group is one kernel call — so its cached "plan" is
// just the per-matrix flop model the observability layer records
// against.
package engine

import (
	"time"

	"iatf/internal/core"
	"iatf/internal/obs"
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

// factorSeries resolves the factor plan (cache counters) and the obs
// series for a factorization call, and returns the flops of the batch.
func (e *Engine) factorSeries(kind OpKind, a Operand, workers int) (*obs.Series, float64) {
	key := planKey{kind: kind, dt: a.DT, m: a.rows(), countBucket: 1}
	_, _, series, flops, _ := e.resolve(key, shapeOf(key), a.count(), workers)
	return series, flops
}

// RunFactor is the dispatch path for the in-place factorizations
// (OpLU, OpCholesky): it validates A, resolves the factor plan through
// the cache, executes on the native kernels and returns the per-matrix
// info codes (0 = success, k+1 = first failing pivot column).
func (e *Engine) RunFactor(op OpDesc, a Operand) ([]int, error) {
	if op.Kind != OpLU && op.Kind != OpCholesky {
		return nil, opErr(op.Kind, "", ErrOperand, "not a factorization kind")
	}
	if err := checkFactor(op.Kind, a); err != nil {
		return nil, err
	}
	series, flops := e.factorSeries(op.Kind, a, op.Workers)
	coreKind := core.LUKind
	if op.Kind == OpCholesky {
		coreKind = core.CholeskyKind
	}
	start := time.Now()
	var info []int
	var err error
	if a.F32 != nil {
		info, err = core.ExecFactorNative(e.rt, coreKind, a.F32, op.Workers)
		a.F32.Invalidate() // the call rewrote A in place
	} else {
		info, err = core.ExecFactorNative(e.rt, coreKind, a.F64, op.Workers)
		a.F64.Invalidate()
	}
	series.Record(time.Since(start), flops, err != nil)
	return info, err
}

// RunLUPiv is RunFactor for the partially pivoted LU, which additionally
// returns the pivot record consumed by the pivoted solve.
func (e *Engine) RunLUPiv(op OpDesc, a Operand) (*core.Pivots, []int, error) {
	if err := checkFactor(OpLUPiv, a); err != nil {
		return nil, nil, err
	}
	series, flops := e.factorSeries(OpLUPiv, a, op.Workers)
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
