// Chain dispatch: cross-op fusion via layout propagation. A chain is an
// ordered list of stages over shared compact operands — a Newton step's
// LU + two triangular solves, a block-Jacobi preconditioner's two
// Cholesky solves. Executing the stages as separate calls makes every
// stage scatter its written operand back to the interleaved user layout
// only for the next stage to re-canonicalize it: pure memory traffic
// with zero FLOPs.
//
// The stage loop (exec.go) removes that round trip where the layouts
// provably agree. Once every stage's plan is resolved, planHandoffs finds
// producer→consumer edges on the written B operand of adjacent
// triangular stages and marks the pairs whose canonical B images are
// bit-identical — both plans canonicalize (PackB) with equal ReverseB
// and TransposeB, so the producer's per-group nBUncopy and the
// consumer's nBCopy compose to the identity block permutation. For such
// a pair the producer leaves its result in canonical form
// (scatter elided) and the consumer starts from the donated image
// (pack elided); results are bit-exact versus the serial sequence
// because only an inverse permutation pair was removed.
//
// Ownership of a donated image is strict: the stage loop holds the
// buffer, and whenever the handoff is abandoned — a stage error, a
// singular factor, context cancellation — it re-materializes the image
// into B before returning, so the operand is left exactly as the serial
// sequence would have left it after the producer stage. While an image
// is live, B's storage is stale and nothing else may read it; the
// planner therefore only fuses pairs where the consumer directly
// follows the producer and reads that operand as its B.
//
// Pure chain inputs — operands read by some stage and written by none —
// are auto-prepacked, so a chain-invariant triangle (block-Jacobi's
// Cholesky factor) packs once and later iterations skip the packing.
// Both decisions are made per call, in O(stages) without allocating.
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

// triGeom returns a cached triangular plan's geometry — whether B is
// canonicalized at all, and the block permutation that does it — or nil
// for any other plan.
func triGeom(pv any) *core.TriGeom {
	switch pl := pv.(type) {
	case *core.TRSMPlan:
		return &pl.TriGeom
	case *core.TRMMPlan:
		return &pl.TriGeom
	}
	return nil
}

// planHandoffs decides a chain's canonical-B handoffs and auto-prepack
// marks for one call from its resolved plans and its record's alias
// pattern.
func planHandoffs(plans []stagePlan, ids []stageID) {
	w := written(ids)
	for i := range plans {
		r, d := &plans[i], &ids[i]
		switch d.key.kind {
		case OpTRSM, OpTRMM:
			r.auto = !w.has(d.alias[0])
		case OpGEMM:
			r.auto = r.pv.(*core.GEMMPlan).PackA && !w.has(d.alias[0])
		}
		if i+1 == len(plans) {
			break
		}
		// Adjacent triangular stages over the same B whose canonical
		// images agree. The consumer must read the shared operand only as
		// its B (its A a different compact), and neither stage may alias
		// A with B.
		c, pg, cg := &ids[i+1], triGeom(r.pv), triGeom(plans[i+1].pv)
		if pg != nil && cg != nil && pg.PackB && cg.PackB && pg.ReverseB == cg.ReverseB && pg.TransposeB == cg.TransposeB &&
			d.alias[1] == c.alias[1] && d.alias[0] != d.alias[1] && c.alias[0] != c.alias[1] {
			r.elideOut, plans[i+1].donated = true, true
		}
	}
}
