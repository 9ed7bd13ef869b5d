// The stage executor: the one synchronous execution path. Every level-3
// call is a stage list, and every list runs through one two-pass stage
// loop: pass one resolves each stage's plan, pass two runs the stages,
// each reporting into its own op's per-shape series. A one-stage list is
// therefore exactly the op; a chain adds only its parent span and the
// canonical-B handoff between fusable triangular stages (chain.go).
package engine

import (
	"context"
	"runtime/pprof"
	"slices"
	"time"

	"iatf/internal/bufpool"
	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// Run executes a stage list synchronously. One stage runs as its op;
// a longer list runs as one planned chain whose results are
// bit-identical to running the stages in order, and which on failure
// leaves every operand exactly as the serial prefix would have. Failures
// are reported per call.Chain. ctx is checked before every stage.
func (e *Engine) Run(ctx context.Context, stages []ChainStage, call Call) error {
	var id listID
	keyOf(&id, stages)
	return e.run(ctx, stages, &id, call)
}

// run executes a stage list under the record the caller built.
func (e *Engine) run(ctx context.Context, stages []ChainStage, id *listID, call Call) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := e.startSpan(&call)
	err := call.result(stages, e.exec(ctx, stages, id, sp))
	e.obs.FinishSpan(sp, err, call.Sink)
	return err
}

// exec runs a stage list under the caller's span (nil = untraced).
// Pass one resolves every stage's plan through the plan cache, so a plan
// error returns before any stage runs, and for a chain decides the
// canonical-B handoffs and auto-prepack marks from those plans. Pass two
// (runStages) runs the stages.
func (e *Engine) exec(ctx context.Context, stages []ChainStage, id *listID, sp *obs.Span) error {
	chain := len(stages) > 1
	if sp != nil {
		sp.Op = opName(stages)
	}
	// A one-stage list reports a dead context before its validation
	// error; a chain checks the context before each stage instead.
	if len(stages) == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if id.err != nil {
		return id.err
	}
	ids, count := id.entries(), stages[0].Ops[0].count()
	if sp != nil {
		// The call's descriptor: its op's, or for a chain the first
		// operand's with the stage kinds joined ("LU+TRSM+TRSM").
		shape := shapeOf(ids[0].key)
		if chain {
			a0 := stages[0].Ops[0]
			shape = obs.ShapeKey{DType: a0.DT.String(), Mode: stages[0].Op.Kind.String(), M: a0.rows(), N: a0.cols()}
			for _, st := range stages[1:] {
				shape.Mode += "+" + st.Op.Kind.String()
			}
		}
		describe(sp, shape, count, stages[0].Op.Workers)
	}
	var buf [4]stagePlan // short lists plan on the stack
	plans := slices.Grow(buf[:0], len(ids))[:len(ids)]
	built := false
	t0 := e.clock(sp)
	for i := range ids {
		p, key := &plans[i], ids[i].key
		var err error
		if p.pv, p.outcome, err = e.plan(key, nil); err != nil {
			e.obs.Mark(sp, obs.PhasePlan, t0)
			if chain {
				return &ChainError{Stage: i, Kind: key.kind, Err: err}
			}
			return err
		}
		built = built || p.outcome == obs.CacheMiss
	}
	e.obs.Mark(sp, obs.PhasePlan, t0)
	if chain {
		e.chainRuns.Add(1)
		if built {
			e.chainMisses.Add(1)
		}
		planHandoffs(plans, ids)
	}
	if stages[0].Ops[0].F32 != nil {
		return runStages[float32](e, ctx, stages, ids, plans, sp)
	}
	return runStages[float64](e, ctx, stages, ids, plans, sp)
}

// runStages is pass two, typed by the element type: each stage checks
// the context (in a chain), reports into its op's per-shape series and
// span — the call's own for a one-stage list, a child of it in a chain —
// and executes. The canonical-B handoff threads between stages, and
// every exit re-materializes a live image, so callers always observe
// serial-prefix semantics.
func runStages[E vec.Float](e *Engine, ctx context.Context, stages []ChainStage, ids []stageID, plans []stagePlan, sp *obs.Span) error {
	var cb canonB[E]
	defer cb.close(e)
	chain := len(stages) > 1
	count := stages[0].Ops[0].count()
	for i := range plans {
		// r and child stay locals of their own: storing the stage pointer
		// into the caller's plan array, or finishing child through a field
		// of r, would let escape analysis move the caller's stage array
		// to the heap.
		r := stageRun{stagePlan: plans[i], st: &stages[i], key: ids[i].key, count: count, stage: i}
		kind := r.key.kind
		child := sp
		if chain {
			if err := ctx.Err(); err != nil {
				return &ChainError{Stage: i, Kind: kind, Err: err}
			}
			child = nil
			if sp != nil {
				child = e.obs.StartSpan(true)
				child.ParentID = sp.ID
				child.Op = kind.String()
				describe(child, shapeOf(r.key), r.count, r.st.Op.Workers)
			}
		}
		r.sp = child
		t0 := e.clock(child)
		flops := e.report(&r)
		e.obs.Mark(child, obs.PhasePlan, t0)
		start := time.Now()
		err := execStage(e, &r, &cb)
		r.series.Record(time.Since(start), flops, err != nil)
		if chain {
			if sp != nil {
				sp.PrepackHits += child.PrepackHits
				sp.PrepackBuilds += child.PrepackBuilds
			}
			e.obs.FinishSpan(child, err, nil)
		}
		if err != nil {
			if _, ok := err.(*ChainError); ok || !chain {
				return err
			}
			return &ChainError{Stage: i, Kind: kind, Err: err}
		}
	}
	return nil
}

// stagePlan is what pass one resolves for one stage of a call.
type stagePlan struct {
	pv      any // cached core plan; a *factorPlan for factorizations
	outcome obs.CacheOutcome

	auto              bool // auto-prepack A, a pure chain input
	donated, elideOut bool // canonical-B handoff in / out
}

// stageRun is one stage's resolved execution state.
type stageRun struct {
	stagePlan
	st    *ChainStage
	key   planKey
	count int
	stage int // index in the stage list (singular-factor attribution)

	series *obs.Series // the op's per-shape series: the call and its prepack outcomes
	sp     *obs.Span   // receives phases and prepack outcomes; nil = untraced
}

// clock returns the phase start time when sp records phases (Mark is a
// no-op on a nil span, so untraced calls skip the clock read).
func (e *Engine) clock(sp *obs.Span) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return e.obs.Now()
}

// canonB is the canonical image of a chain's B operand held between
// two fusable triangular stages: while live, b's storage is stale and
// the image is the truth.
type canonB[E vec.Float] struct {
	buf        *bufpool.Buf[E]
	data       []E
	live       bool
	b          *layout.Compact[E]
	rev, trans bool
}

// drop ends a handoff normally: the consumer scattered into B itself.
func (c *canonB[E]) drop(e *Engine) {
	if c == nil || c.buf == nil {
		return
	}
	c.live = false
	bufpool.Put(e.rt.Bufs, c.buf)
	c.buf, c.data = nil, nil
}

// close re-materializes a live image into B — the abort path of an
// abandoned handoff (stage error, cancellation) — and frees the buffer.
func (c *canonB[E]) close(e *Engine) {
	if c.live {
		core.ScatterCanonicalB(c.b, c.rev, c.trans, c.data)
		c.b.Invalidate()
	}
	c.drop(e)
}

// prepacked resolves the packed image of A, the only operand a native
// plan packs: it enables prepack first when A is a pure chain input,
// then takes the cached image (building it on a miss). nil when the operand has not
// opted in. References are held across the kernel loop and dropped by
// the caller, so invalidation or eviction mid-call cannot free storage
// the kernels are reading.
func prepacked[E vec.Float](e *Engine, r *stageRun, c *layout.Compact[E], role packRole, length int, build func([]E) error) ([]E, *packEntry, error) {
	if r.auto {
		c.EnablePrepack()
	}
	id, gen := c.PrepackState()
	if id == 0 {
		return nil, nil, nil
	}
	ent, data, hit, err := acquirePacked[E](e, packKey{id: id, gen: gen, plan: r.key, role: role}, length, build)
	if err != nil {
		return nil, nil, err
	}
	r.series.Prepack(hit)
	r.sp.Prepack(hit)
	return data, ent, nil
}

// execStage runs one stage on the native kernels: it splices the call's
// scalars and count into a stack copy of the cached plan, resolves
// prepacked operands, executes, and retires packed images of the
// operand the stage wrote. cb carries a chain's canonical-B handoff (a
// one-stage run never hands off).
func execStage[E vec.Float](e *Engine, r *stageRun, cb *canonB[E]) error {
	st, op := r.st, &r.st.Op
	labels := e.profileLabels(r.key)
	if labels != nil {
		pprof.SetGoroutineLabels(labels)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	t0 := e.clock(r.sp)
	aC := compactOf[E](st.Ops[0])
	switch r.key.kind {
	case OpLU, OpCholesky, OpLUPiv:
		kind := core.LUKind
		switch r.key.kind {
		case OpCholesky:
			kind = core.CholeskyKind
		case OpLUPiv:
			kind = core.LUPivKind
		}
		info, err := core.ExecFactorNative(e.rt, kind, aC, st.Piv, op.Workers)
		aC.Invalidate()
		e.obs.Mark(r.sp, obs.PhaseCompute, t0)
		if err != nil {
			return err
		}
		for _, code := range info {
			if code != 0 {
				return &ChainError{Stage: r.stage, Kind: r.key.kind, Info: info, Err: ErrSingular}
			}
		}
		return nil
	case OpSYRK:
		pl := *r.pv.(*core.SYRKPlan)
		pl.P.Alpha, pl.P.Beta, pl.P.Count, pl.RT, pl.Labels = op.Alpha, op.Beta, r.count, e.rt, labels
		cC := compactOf[E](st.Ops[1])
		err := core.ExecSYRKNativeParallel(&pl, aC, cC, op.Workers)
		e.obs.Mark(r.sp, obs.PhaseCompute, t0)
		cC.Invalidate()
		return err
	case OpGEMM:
		pl := *r.pv.(*core.GEMMPlan)
		pl.P.Alpha, pl.P.Beta, pl.P.Count, pl.RT, pl.Labels = op.Alpha, op.Beta, r.count, e.rt, labels
		bC, cC := compactOf[E](st.Ops[1]), compactOf[E](st.Ops[2])
		var preA []E
		var entA *packEntry
		var err error
		if pl.PackA {
			preA, entA, err = prepacked(e, r, aC, roleA, pl.PrepackALen(aC.Groups()), func(dst []E) error {
				return core.PrepackGEMMA(&pl, aC, dst)
			})
		}
		e.obs.Mark(r.sp, obs.PhasePack, t0)
		if err == nil {
			t0 = e.clock(r.sp)
			err = core.ExecGEMMNativePrepacked(&pl, aC, bC, cC, preA, nil, op.Workers)
			e.obs.Mark(r.sp, obs.PhaseCompute, t0)
			cC.Invalidate()
		}
		e.packs.release(entA)
		return err
	}

	// TRSM and TRMM: the kind picks the plan type's calls, nothing else.
	bC := compactOf[E](st.Ops[1])
	var (
		geo     *core.TriGeom
		packTri func(dst []E) error
		run     func(pre, inB, outB []E) error
	)
	if r.key.kind == OpTRSM {
		pl := *r.pv.(*core.TRSMPlan)
		pl.P.Alpha, pl.P.Count, pl.RT, pl.Labels = op.Alpha, r.count, e.rt, labels
		geo = &pl.TriGeom
		packTri = func(dst []E) error { return core.PrepackTRSMTri(&pl, aC, dst) }
		run = func(pre, inB, outB []E) error {
			return core.ExecTRSMNativeChained(&pl, aC, bC, pre, inB, outB, op.Workers)
		}
	} else {
		pl := *r.pv.(*core.TRMMPlan)
		pl.P.Alpha, pl.P.Count, pl.RT, pl.Labels = op.Alpha, r.count, e.rt, labels
		geo = &pl.TriGeom
		packTri = func(dst []E) error { return core.PrepackTRMMTri(&pl, aC, dst) }
		run = func(pre, inB, outB []E) error {
			return core.ExecTRMMNativeChained(&pl, aC, bC, pre, inB, outB, op.Workers)
		}
	}
	pre, ent, err := prepacked(e, r, aC, roleTri, geo.PrepackTriLen(aC.Groups()), packTri)
	e.obs.Mark(r.sp, obs.PhasePack, t0)
	if err == nil {
		handoff := r.donated || r.elideOut
		var inB, outB []E
		if handoff && !r.donated {
			cb.buf = bufpool.Get[E](e.rt.Bufs, len(bC.Data))
			cb.data = cb.buf.Slice()[:len(bC.Data)]
		}
		if r.donated {
			inB = cb.data
		}
		if r.elideOut {
			outB = cb.data
		}
		t0 = e.clock(r.sp)
		err = run(pre, inB, outB)
		e.obs.Mark(r.sp, obs.PhaseCompute, t0)
		if err == nil && r.donated {
			e.packElided.Add(1)
		}
		if err == nil && r.elideOut {
			e.scatterElided.Add(1)
			cb.live, cb.b, cb.rev, cb.trans = true, bC, geo.ReverseB, geo.TransposeB
		} else if err == nil || !handoff {
			cb.drop(e)
			bC.Invalidate()
		}
	}
	e.packs.release(ent)
	return err
}
