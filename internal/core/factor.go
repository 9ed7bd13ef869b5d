package core

import (
	"fmt"

	"iatf/internal/kernels"
	"iatf/internal/layout"
	"iatf/internal/vec"
)

// Compact batched factorizations: every matrix of the batch is factored
// in place, vectorized across interleave lanes. Unlike the level-3
// routines these need no packing or tiling plan — the matrices are
// L1-resident and each group is one kernel call — so the "plan" is just
// the worker split.

// factorKind selects the factorization.
type factorKind int

const (
	factorLU factorKind = iota
	factorCholesky
	factorLUPiv
)

// LUKind, CholeskyKind and LUPivKind expose the factor kinds to the
// engine.
const (
	LUKind       = factorLU
	CholeskyKind = factorCholesky
	LUPivKind    = factorLUPiv
)

// Pivots holds the partial-pivoting record of a pivoted LU factorization:
// for matrix lane v and column k, row Data[g·n·vl + k·vl + lane] was
// swapped into position k.
type Pivots struct {
	N      int
	VL     int
	Groups int
	Data   []int32
}

// ExecFactorNative factors every matrix of the compact batch in place
// and returns per-matrix info codes (0 = success; k+1 = first failing
// pivot column, as in LAPACK). Cholesky is real-only and uses the lower
// triangle. The pivoted LU fills piv with its pivot record; the other
// kinds ignore piv. workers <= 0 means auto (GOMAXPROCS). rt selects
// the worker pool the split fans out on; nil uses the process default —
// the factor executors take no plan, so the Runtime rides as a
// parameter instead of a stamped field.
func ExecFactorNative[E vec.Float](rt *Runtime, kind factorKind, a *layout.Compact[E], piv *Pivots, workers int) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: factorization requires square matrices, got %dx%d", a.Rows, a.Cols)
	}
	if kind == factorCholesky && a.Type.IsComplex() {
		return nil, fmt.Errorf("core: compact Cholesky supports real types only")
	}
	if kind == factorLUPiv && piv == nil {
		return nil, fmt.Errorf("core: pivoted LU needs a pivot record to fill")
	}
	n := a.Rows
	vl := a.Type.Pack()
	groups := a.Groups()
	groupLen := a.GroupLen()
	cplx := a.Type.IsComplex()
	info := make([]int, groups*vl)
	if kind == factorLUPiv {
		*piv = Pivots{N: n, VL: vl, Groups: groups, Data: make([]int32, groups*n*vl)}
	}

	worker := func(lo, hi int) {
		for g := lo; g < hi; g++ {
			grp := a.Data[g*groupLen : (g+1)*groupLen]
			gi := info[g*vl : (g+1)*vl]
			switch {
			case kind == factorLUPiv:
				kernels.LUPiv(grp, n, vl, cplx, piv.Data[g*n*vl:(g+1)*n*vl], gi)
			case kind == factorCholesky:
				kernels.Cholesky(grp, n, vl, gi)
			case cplx:
				kernels.LUCplx(grp, n, vl, gi)
			default:
				kernels.LU(grp, n, vl, gi)
			}
		}
	}
	rt.or().Sched.Run(groups, workers, 0, worker)
	return info[:a.Count], nil
}

// ExecLUPivSolveNative applies the pivot permutation to B and solves
// L·U·X = P·B in place using the native triangular kernels via TRSM plans.
// rt: see ExecFactorNative.
func ExecLUPivSolveNative[E vec.Float](rt *Runtime, a *layout.Compact[E], piv *Pivots, b *layout.Compact[E], workers int) error {
	if piv == nil || piv.N != a.Rows || piv.Groups != a.Groups() {
		return fmt.Errorf("core: pivot record does not match the factorization")
	}
	if b.Rows != a.Rows || b.Count != a.Count {
		return fmt.Errorf("core: B shape mismatch")
	}
	vl := a.Type.Pack()
	cplx := a.Type.IsComplex()
	groupLen := b.GroupLen()
	worker := func(lo, hi int) {
		for g := lo; g < hi; g++ {
			kernels.ApplyPivots(b.Data[g*groupLen:(g+1)*groupLen], b.Rows, b.Cols, vl, cplx,
				piv.Data[g*piv.N*vl:(g+1)*piv.N*vl])
		}
	}
	rt.or().Sched.Run(b.Groups(), workers, 0, worker)
	return nil
}
