// The stage executor: the one synchronous execution path. Every level-3
// call is a stage list. A one-stage list is the op itself — its own
// per-shape series, plan counters, trace hook and span descriptor, with
// no chain state touched; two or more stages run as one planned chain
// (chain.go) over the same per-stage executor, which adds only the
// canonical-B handoff between fusable triangular stages.
package engine

import (
	"context"
	"runtime/pprof"
	"time"

	"iatf/internal/bufpool"
	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/obs"
	"iatf/internal/sched"
	"iatf/internal/vec"
)

// Run executes a stage list synchronously. One stage runs as its op;
// a longer list runs as one planned chain whose results are
// bit-identical to running the stages in order, and which on failure
// leaves every operand exactly as the serial prefix would have. Failures
// are reported per call.Chain. ctx is checked before every stage.
func (e *Engine) Run(ctx context.Context, stages []ChainStage, call Call) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := e.startSpan(&call)
	err := call.result(stages, e.exec(ctx, stages, sp, true))
	e.obs.FinishSpan(sp, err, call.Sink)
	return err
}

// exec runs a stage list under the caller's span (nil = untraced).
// autoPre gates the chain auto-prepack of pure chain inputs (off for
// fused throwaway operands).
func (e *Engine) exec(ctx context.Context, stages []ChainStage, sp *obs.Span, autoPre bool) error {
	if len(stages) == 1 {
		return e.execOne(ctx, &stages[0], sp)
	}
	return e.execChain(ctx, stages, sp, autoPre)
}

// execOne runs a one-stage list: the op.
func (e *Engine) execOne(ctx context.Context, st *ChainStage, sp *obs.Span) error {
	if sp != nil {
		sp.Op = st.Op.Kind.String()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	key, err := stageKey(st)
	if err != nil {
		return err
	}
	r := stageRun{st: st, key: key, count: st.Ops[0].count(), sp: sp}
	shape := shapeOf(key)
	describe(sp, shape, r.count, st.Op.Workers)
	t0 := clock(sp)
	var flops float64
	r.pv, r.outcome, r.series, flops, err = e.resolve(key, shape, r.count, st.Op.Workers)
	sp.Mark(obs.PhasePlan, t0)
	if err != nil {
		return err
	}
	r.trace = e.obs.TraceSink()
	start := time.Now()
	if st.Ops[0].F32 != nil {
		err = execStage[float32](e, &r, nil)
	} else {
		err = execStage[float64](e, &r, nil)
	}
	r.series.Record(time.Since(start), flops, err != nil)
	return err
}

// execChain runs a multi-stage list as one planned chain: one parent
// span (Op "CHAIN", Mode the stage-kind list) with per-stage children,
// and the CHAIN per-shape series.
func (e *Engine) execChain(ctx context.Context, stages []ChainStage, sp *obs.Span, autoPre bool) error {
	if sp != nil {
		sp.Op = "CHAIN"
	}
	cp, outcome, err := e.chainPlanFor(stages)
	if err != nil {
		return err
	}
	e.chainRuns.Add(1)
	a0 := stages[0].Ops[0]
	shape := obs.ShapeKey{Op: "CHAIN", DType: a0.DT.String(), Mode: cp.label, M: a0.rows(), N: a0.cols()}
	count := a0.count()
	describe(sp, shape, count, stages[0].Op.Workers)
	series := e.obs.Series(shape)
	series.Plan(outcome)
	series.SetWorkers(sched.Resolve(stages[0].Op.Workers))
	if outcome == obs.CacheMiss {
		series.SetPlan(0, cp.fuseDesc, 1)
	}
	start := time.Now()
	if a0.F32 != nil {
		err = runStages[float32](e, ctx, stages, cp, sp, series, autoPre)
	} else {
		err = runStages[float64](e, ctx, stages, cp, sp, series, autoPre)
	}
	series.Record(time.Since(start), cp.flopsPerMatrix*float64(count), err != nil)
	return err
}

// runStages is the typed chain loop. The canonical-B handoff threads
// between stages, and every exit re-materializes a live image, so
// callers always observe serial-prefix semantics.
func runStages[E vec.Float](e *Engine, ctx context.Context, stages []ChainStage, cp *chainPlan, parent *obs.Span, series *obs.Series, autoPre bool) error {
	var cb canonB[E]
	defer cb.close(e)
	count := stages[0].count()
	for i := range stages {
		kind := stages[i].Op.Kind
		if err := ctx.Err(); err != nil {
			return &ChainError{Stage: i, Kind: kind, Err: err}
		}
		spl := &cp.stages[i]
		r := stageRun{st: &stages[i], key: spl.key, pv: spl.pv, count: count, stage: i,
			donated: spl.donated, elideOut: spl.elideOut, series: series}
		if autoPre {
			r.auto = spl.autoPre
		}
		// child stays a local of its own: finishing it through a field of
		// r would let escape analysis move the caller's stage array to
		// the heap.
		var child *obs.Span
		if parent != nil {
			child = e.obs.StartSpan(true)
			child.ParentID = parent.ID
			child.Op = kind.String()
			describe(child, shapeOf(spl.key), count, stages[i].Op.Workers)
		}
		r.sp = child
		err := execStage(e, &r, &cb)
		if parent != nil {
			parent.PrepackHits += child.PrepackHits
			parent.PrepackBuilds += child.PrepackBuilds
		}
		e.obs.FinishSpan(child, err, nil)
		if err != nil {
			if _, ok := err.(*ChainError); ok {
				return err
			}
			return &ChainError{Stage: i, Kind: kind, Err: err}
		}
	}
	return nil
}

// stageRun is one stage's resolved execution state.
type stageRun struct {
	st      *ChainStage
	key     planKey
	pv      any // cached core plan; a *factorPlan for factorizations
	outcome obs.CacheOutcome
	count   int
	stage   int // index in the stage list (singular-factor attribution)

	auto              [3]bool // operand slots to auto-prepack (pure chain inputs)
	donated, elideOut bool    // canonical-B handoff in / out

	series *obs.Series   // receives the prepack outcomes
	sp     *obs.Span     // receives phases and prepack outcomes; nil = untraced
	trace  obs.TraceFunc // command-queue hook of a sampled one-stage call
}

// clock returns the phase start time when sp records phases (Mark is a
// no-op on a nil span, so untraced calls skip the clock read).
func clock(sp *obs.Span) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
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

// prepacked resolves the packed image of operand slot s: it enables
// prepack first when the slot is a pure chain input, then takes the
// cached image (building it on a miss). nil when the operand has not
// opted in. References are held across the kernel loop and dropped by
// the caller, so invalidation or eviction mid-call cannot free storage
// the kernels are reading.
func prepacked[E vec.Float](e *Engine, r *stageRun, c *layout.Compact[E], s int, role packRole, length int, build func([]E) error) ([]E, *packEntry, error) {
	if r.auto[s] {
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
// operand the stage wrote. cb carries a chain's canonical-B handoff
// (nil for a one-stage run, which never hands off).
func execStage[E vec.Float](e *Engine, r *stageRun, cb *canonB[E]) error {
	st, op := r.st, &r.st.Op
	labels := e.profileLabels(r.key)
	if labels != nil {
		pprof.SetGoroutineLabels(labels)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	t0 := clock(r.sp)
	aC := compactOf[E](st.Ops[0])
	switch r.key.kind {
	case OpLU, OpCholesky:
		kind := core.LUKind
		if r.key.kind == OpCholesky {
			kind = core.CholeskyKind
		}
		info, err := core.ExecFactorNative(e.rt, kind, aC, op.Workers)
		aC.Invalidate()
		r.sp.Mark(obs.PhaseCompute, t0)
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
		if r.trace != nil {
			r.trace(syrkTrace(op, &pl, cC.Groups(), r.outcome))
		}
		err := core.ExecSYRKNativeParallel(&pl, aC, cC, op.Workers)
		r.sp.Mark(obs.PhaseCompute, t0)
		cC.Invalidate()
		return err
	case OpGEMM:
		pl := *r.pv.(*core.GEMMPlan)
		pl.P.Alpha, pl.P.Beta, pl.P.Count, pl.RT, pl.Labels = op.Alpha, op.Beta, r.count, e.rt, labels
		bC, cC := compactOf[E](st.Ops[1]), compactOf[E](st.Ops[2])
		if r.trace != nil {
			r.trace(gemmTrace(op, &pl, cC.Groups(), r.outcome))
		}
		var preA, preB []E
		var entA, entB *packEntry
		var err error
		if pl.PackA {
			preA, entA, err = prepacked(e, r, aC, 0, roleA, pl.PrepackALen(aC.Groups()), func(dst []E) error {
				return core.PrepackGEMMA(&pl, aC, dst)
			})
		}
		if err == nil && pl.PackB {
			preB, entB, err = prepacked(e, r, bC, 1, roleB, pl.PrepackBLen(bC.Groups()), func(dst []E) error {
				return core.PrepackGEMMB(&pl, bC, dst)
			})
		}
		r.sp.Mark(obs.PhasePack, t0)
		if err == nil {
			t0 = clock(r.sp)
			err = core.ExecGEMMNativePrepacked(&pl, aC, bC, cC, preA, preB, op.Workers)
			r.sp.Mark(obs.PhaseCompute, t0)
			cC.Invalidate()
		}
		e.packs.release(entA)
		e.packs.release(entB)
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
	if r.trace != nil {
		r.trace(triTrace(op, r.key, r.count, geo, bC.Groups(), r.outcome))
	}
	pre, ent, err := prepacked(e, r, aC, 0, roleTri, geo.PrepackTriLen(aC.Groups()), packTri)
	r.sp.Mark(obs.PhasePack, t0)
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
		t0 = clock(r.sp)
		err = run(pre, inB, outB)
		r.sp.Mark(obs.PhaseCompute, t0)
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
