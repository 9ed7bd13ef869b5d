package iatf

import (
	"reflect"

	"iatf/internal/core"
)

// LUPivotedDirect factors a clone of a with the core executor alone —
// no engine, plan cache, span or tenant ledger — and returns the
// factors, pivots and info codes LUPivoted must reproduce.
func LUPivotedDirect[T Scalar](a *Compact[T]) (*Compact[T], *Pivots, []int, error) {
	f := a.Clone()
	piv := new(core.Pivots)
	var info []int
	var err error
	if f.f32 != nil {
		info, err = core.ExecFactorNative(nil, core.LUPivKind, f.f32, piv, 1)
	} else {
		info, err = core.ExecFactorNative(nil, core.LUPivKind, f.f64, piv, 1)
	}
	return f, &Pivots{inner: piv}, info, err
}

// SamePivots reports whether two pivot records are identical.
func SamePivots(p, q *Pivots) bool { return reflect.DeepEqual(p.inner, q.inner) }
