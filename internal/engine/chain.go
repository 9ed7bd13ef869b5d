// Chain dispatch: cross-op fusion via layout propagation. A chain is an
// ordered list of stages over shared compact operands — a Newton step's
// LU + two triangular solves, a block-Jacobi preconditioner's two
// Cholesky solves. Executing the stages as separate calls makes every
// stage scatter its written operand back to the interleaved user layout
// only for the next stage to re-canonicalize it: pure memory traffic
// with zero FLOPs.
//
// The chain planner removes that round trip where the layouts provably
// agree. It analyzes the stage list once (per chain identity, cached),
// finds producer→consumer edges on the written B operand of adjacent
// triangular stages, and marks the pairs whose canonical B images are
// bit-identical — both plans canonicalize (PackB) with equal ReverseB
// and TransposeB, so the producer's per-group nBUncopy and the
// consumer's nBCopy compose to the identity block permutation. For such
// a pair the producer leaves its result in canonical form
// (scatter elided) and the consumer starts from the donated image
// (pack elided); results are bit-exact versus the serial sequence
// because only an inverse permutation pair was removed.
//
// Ownership of a donated image is strict: the chain executor holds the
// buffer, and whenever the handoff is abandoned — a stage error, a
// singular factor, context cancellation — it re-materializes the image
// into B before returning, so the operand is left exactly as the serial
// sequence would have left it after the producer stage. While an image
// is live, B's storage is stale and nothing else may read it; the
// planner therefore only fuses pairs where the consumer directly
// follows the producer and reads that operand as its B.
//
// Beyond elision the chain plan carries two more replay wins: every
// stage's core plan is resolved once and cached under the chain key
// (replay skips the per-stage plan-cache rounds), and pure
// chain inputs — operands read by some stage and written by none — are
// auto-prepacked, so a chain-invariant triangle (block-Jacobi's
// Cholesky factor) packs once and every later iteration jumps straight
// to the kernels.
//
// A one-stage list never comes here: it is its op (exec.go) and leaves
// the chain-plan memo and Stats.Chain untouched.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"iatf/internal/core"
	"iatf/internal/obs"
)

// maxChainStages bounds a chain's length (a sanity bound, far above any
// real solver sequence).
const maxChainStages = 64

// chainCacheCap bounds the engine's chain-plan cache (FIFO eviction).
const chainCacheCap = 64

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

// writtenAliases marks, by aliasOf slot, the operands some stage of a
// validated list writes.
func writtenAliases(ids []stageID) []bool {
	w := make([]bool, 3*len(ids))
	for i := range ids {
		w[ids[i].alias[chainWrites(ids[i].key.kind)]] = true
	}
	return w
}

// chainStagePlan is the cached per-stage execution state.
type chainStagePlan struct {
	pv any // cached core plan; nil for factor stages

	// donated: this stage consumes its predecessor's canonical B image
	// (pack elided). elideOut: the successor consumes this stage's
	// result, so it stays canonical (scatter elided).
	donated  bool
	elideOut bool

	// autoPre marks operand slots that are pure chain inputs (read by
	// some stage, written by none) with a prepack-capable role: the
	// executor enables prepack on them so the packed image is built once
	// and replayed across chain iterations.
	autoPre [3]bool
}

// chainPlan is one cached chain analysis.
type chainPlan struct {
	hash   uint64
	desc   []stageID
	bucket int

	label    string // stage kinds joined: "LU+TRSM+TRSM" (series mode, span)
	fuseDesc string // packing descriptor for the series: "elide:N"

	stages []chainStagePlan

	flopsPerMatrix float64
}

// is reports whether the plan analyzes exactly this chain identity — the
// collision-safe comparison behind the hashed cache lookup.
func (cp *chainPlan) is(desc []stageID, bucket int) bool {
	return cp.bucket == bucket && slices.Equal(cp.desc, desc)
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

func isTri(k OpKind) bool { return k == OpTRSM || k == OpTRMM }

// triCanon extracts the canonical-B geometry of a cached triangular
// plan: whether B is canonicalized at all, and the block permutation
// that does it.
func triCanon(pv any) (packB, reverse, transpose bool) {
	switch pl := pv.(type) {
	case *core.TRSMPlan:
		return pl.PackB, pl.ReverseB, pl.TransposeB
	case *core.TRMMPlan:
		return pl.PackB, pl.ReverseB, pl.TransposeB
	}
	return false, false, false
}

// chainPlanFor resolves (building and caching on miss) the chain plan
// of a stage list from its record: the record's entries are the chain
// identity, and its validation error (a *ChainError naming the stage)
// is returned as is. A hit allocates nothing: the entries are copied
// only when a new plan is built.
func (e *Engine) chainPlanFor(stages []ChainStage, id *listID) (*chainPlan, obs.CacheOutcome, error) {
	if id.err != nil {
		return nil, obs.CacheMiss, id.err
	}
	desc := id.entries()
	bucket := countBucket(stages[0].Ops[0].count())
	h := id.fold(mix64(mix64(0xcbf29ce484222325, uint64(len(desc))), uint64(bucket)))

	e.chainMu.Lock()
	for _, cand := range e.chainPlans[h] {
		if cand.is(desc, bucket) {
			e.chainMu.Unlock()
			e.chainHits.Add(1)
			return cand, obs.CacheHit, nil
		}
	}
	e.chainMu.Unlock()
	e.chainMisses.Add(1)

	cp := &chainPlan{hash: h, desc: append([]stageID(nil), desc...), bucket: bucket}
	if err := e.buildChainPlan(cp, writtenAliases(desc)); err != nil {
		return nil, obs.CacheMiss, err
	}

	e.chainMu.Lock()
	// Re-check: a concurrent builder may have landed the same identity;
	// keep the first so callers can compare plans by pointer.
	for _, cand := range e.chainPlans[h] {
		if cand.is(desc, bucket) {
			e.chainMu.Unlock()
			return cand, obs.CacheMiss, nil
		}
	}
	for len(e.chainOrder) >= chainCacheCap {
		victim := e.chainOrder[0]
		e.chainOrder = e.chainOrder[1:]
		if bucket := e.chainPlans[victim]; len(bucket) > 0 {
			if len(bucket) == 1 {
				delete(e.chainPlans, victim)
			} else {
				e.chainPlans[victim] = bucket[1:]
			}
		}
	}
	e.chainPlans[h] = append(e.chainPlans[h], cp)
	e.chainOrder = append(e.chainOrder, h)
	e.chainMu.Unlock()
	return cp, obs.CacheMiss, nil
}

// buildChainPlan fills the analysis of a validated chain descriptor:
// per-stage core plans (through the regular plan cache, so chain and
// standalone calls of one shape share plans and counters), the
// producer→consumer elision edges and the auto-prepack marks.
func (e *Engine) buildChainPlan(cp *chainPlan, written []bool) error {
	n := len(cp.desc)
	cp.stages = make([]chainStagePlan, n)
	kinds := make([]string, n)
	for i := range cp.desc {
		key := cp.desc[i].key
		kinds[i] = key.kind.String()
		if isFactor(key.kind) {
			cp.flopsPerMatrix += factorFLOPs(key.kind, key.m)
			continue
		}
		pv, _, err := e.plan(key, nil)
		if err != nil {
			return &ChainError{Stage: i, Kind: key.kind, Err: err}
		}
		cp.stages[i].pv = pv
		_, _, _, flops := e.planFacts(pv, 1, false)
		cp.flopsPerMatrix += flops
	}
	cp.label = strings.Join(kinds, "+")

	// Producer→consumer elision edges: adjacent triangular stages over
	// the same B whose canonical images agree. The consumer must read
	// the shared operand only as its B (its A must be a different
	// compact), and neither stage may alias A with B.
	elided := 0
	for i := 0; i+1 < n; i++ {
		p, c := &cp.desc[i], &cp.desc[i+1]
		if !isTri(p.key.kind) || !isTri(c.key.kind) {
			continue
		}
		if p.alias[1] != c.alias[1] || p.alias[0] == p.alias[1] || c.alias[0] == c.alias[1] {
			continue
		}
		pPack, pRev, pTrans := triCanon(cp.stages[i].pv)
		cPack, cRev, cTrans := triCanon(cp.stages[i+1].pv)
		if !pPack || !cPack || pRev != cRev || pTrans != cTrans {
			continue
		}
		cp.stages[i].elideOut = true
		cp.stages[i+1].donated = true
		elided++
	}
	cp.fuseDesc = fmt.Sprintf("elide:%d", elided)

	// Pure chain inputs (read somewhere, written nowhere) with a
	// prepack-capable role get auto-prepack: their packed image survives
	// chain replays because no stage ever bumps their generation.
	for i := range cp.desc {
		d := &cp.desc[i]
		switch d.key.kind {
		case OpTRSM, OpTRMM:
			cp.stages[i].autoPre[0] = !written[d.alias[0]]
		case OpGEMM:
			pl := cp.stages[i].pv.(*core.GEMMPlan)
			cp.stages[i].autoPre[0] = pl.PackA && !written[d.alias[0]]
			cp.stages[i].autoPre[1] = pl.PackB && !written[d.alias[1]]
		}
	}
	return nil
}
