// Factor stages: the compact batched factorizations are stages of
// Run/Submit like every level-3 op (exec.go), gaining the typed
// validation taxonomy, spans, per-shape observability series and
// plan-cache counters. The pivoted LU's stage carries the pivot record
// its executor fills (ChainStage.Piv). A factorization needs no packing
// or tiling plan — each interleave group is one kernel call — so its
// cached "plan" is just the per-matrix flop model the observability
// layer records against.
package engine

// factorPlan is the cached plan of a factorization: the flop count of
// one matrix (the only input-aware quantity the run-time stage needs).
type factorPlan struct {
	flopsPerMatrix float64
}

// isFactor reports whether k factors its one operand in place.
func isFactor(k OpKind) bool { return k == OpLU || k == OpCholesky || k == OpLUPiv }

// factorFLOPs models the per-matrix work: ~2n³/3 for (pivoted) LU,
// ~n³/3 for Cholesky.
func factorFLOPs(kind OpKind, n int) float64 {
	fn := float64(n)
	if kind == OpCholesky {
		return fn * fn * fn / 3
	}
	return 2 * fn * fn * fn / 3
}

// checkFactor validates a factorization stage with the engine taxonomy:
// a square operand, real-typed for Cholesky, and a pivot record to fill
// for the pivoted LU.
func checkFactor(st *ChainStage) error {
	kind, a := st.Op.Kind, st.Ops[0]
	if a.rows() != a.cols() {
		return opErr(kind, "A", ErrShape, "square matrices required, got %dx%d", a.rows(), a.cols())
	}
	if kind == OpCholesky && a.DT.IsComplex() {
		return opErr(kind, "A", ErrDType, "real element types required, got %s", a.DT)
	}
	if kind == OpLUPiv && st.Piv == nil {
		return opErr(kind, "", ErrOperand, "no pivot record to fill")
	}
	return nil
}
