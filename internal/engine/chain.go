// Chain dispatch. A chain is an ordered list of stages over shared
// compact operands — a Newton step's LU + two triangular solves, a
// block-Jacobi preconditioner's two Cholesky solves — run as one call
// through the stage loop (exec.go): every stage plans before any runs,
// and each reports as its own op under the chain's span.
//
// Each stage reads and writes its operands where the compact layout
// stores them — the triangular kernels address B in place in every mode
// — so nothing is handed between stages and a failing or cancelled
// chain leaves exactly the serial prefix's results.
//
// Pure chain inputs — operands read by some stage and written by none —
// are auto-prepacked, so a chain-invariant triangle (block-Jacobi's
// Cholesky factor) packs once and later iterations skip the packing.
// The marks are made per call, in O(stages) without allocating.
package engine

import (
	"errors"
	"fmt"

	"iatf/internal/core"
)

// maxChainStages bounds a chain's length (a sanity bound, far above any
// real solver sequence).
const maxChainStages = 64

// ErrSingular is the sentinel inside a ChainError when a factorization
// stage reports a non-zero info code: the chain aborts at that stage
// (later stages would consume an unfinished factor).
var ErrSingular = errors.New("singular matrix")

// ChainStage is one op of a chain: the descriptor plus its operands in
// BLAS argument order (GEMM A,B,C — TRSM/TRMM A,B — SYRK A,C — LU/
// Cholesky/pivoted LU A). Build stages through the public constructors;
// the engine validates shapes, dtypes and counts chain-wide.
type ChainStage struct {
	Op   OpDesc
	Ops  [3]Operand
	NOps int
	// Piv receives an OpLUPiv stage's pivot record; other kinds ignore
	// it. Like the operands, it is the caller's until the call resolves.
	Piv *core.Pivots
}

// ChainError attributes a chain failure to the stage that caused it.
// Stage indexes the stage list; Info carries the per-matrix codes of a
// failed factorization stage (then Err is ErrSingular). Unwrap exposes
// the underlying error for errors.Is/As — including context
// cancellation and the validation taxonomy.
type ChainError struct {
	Stage int
	Kind  OpKind
	Info  []int
	Err   error
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("iatf: chain stage %d (%v): %v", e.Stage, e.Kind, e.Err)
}

func (e *ChainError) Unwrap() error { return e.Err }

func sameCompact(a, b Operand) bool { return a.F32 == b.F32 && a.F64 == b.F64 }

// aliasOf returns the first slot, numbered 3·stage+slot, holding the
// same compact as stage i's slot s — the operand-sharing pattern that
// makes "TRSM(A,B) then TRSM(A,B)" and "TRSM(A,B) then TRSM(C,B)"
// different chains even with identical dims. Allocation-free.
func aliasOf(stages []ChainStage, i, s int) int {
	o := stages[i].Ops[s]
	for j := 0; j <= i; j++ {
		for t := 0; t < min(stages[j].NOps, 3); t++ {
			if sameCompact(stages[j].Ops[t], o) {
				return 3*j + t
			}
		}
	}
	return 3*i + s
}

// aliasSet is a set of aliasOf slots (3·stage+slot) of one stage list.
type aliasSet [3 * maxChainStages / 64]uint64

func (s *aliasSet) add(a int16)      { s[a/64] |= 1 << (a % 64) }
func (s *aliasSet) has(a int16) bool { return s[a/64]&(1<<(a%64)) != 0 }

// written returns the slots of the operands some stage of a validated
// list writes.
func written(ids []stageID) (w aliasSet) {
	for i := range ids {
		w.add(ids[i].alias[chainWrites(ids[i].key.kind)])
	}
	return w
}

// chainWrites returns the operand slot a stage writes.
func chainWrites(k OpKind) int {
	switch {
	case k == OpGEMM:
		return 2
	case isFactor(k):
		return 0
	}
	return 1 // TRSM/TRMM's B, SYRK's C
}

// autoPrepack marks, for one call, the stages whose packed operand A is
// a pure chain input (written by no stage of the list) for auto-prepack:
// a triangular stage's triangle, a GEMM's packed A panel.
func autoPrepack(plans []stagePlan, ids []stageID) {
	w := written(ids)
	for i := range plans {
		r, d := &plans[i], &ids[i]
		switch d.key.kind {
		case OpTRSM, OpTRMM:
			r.auto = !w.has(d.alias[0])
		case OpGEMM:
			r.auto = r.pv.(*core.GEMMPlan).PackA && !w.has(d.alias[0])
		}
	}
}
