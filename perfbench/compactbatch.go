package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"iatf"
)

// compactBatchCalls is one step of compact-batch: the paper's Table 1
// kernel sizes and their multiples. Counts are set so that no call
// dominates the step (each takes a similar share of it); every call's
// operands fit the 4 MiB L2 (footprints are printed by the traced run).
var compactBatchCalls = []problem{
	{op: opGEMM, dt: 's', m: 4, n: 4, k: 4, count: 2048},
	{op: opGEMM, dt: 's', m: 8, n: 8, k: 8, count: 512},
	{op: opGEMM, dt: 's', m: 16, n: 16, k: 16, count: 96},
	{op: opGEMM, dt: 'd', m: 4, n: 4, k: 4, count: 2048},
	{op: opGEMM, dt: 'd', m: 8, n: 8, k: 8, count: 256},
	{op: opGEMM, dt: 'd', m: 16, n: 16, k: 16, count: 48},
	{op: opGEMM, dt: 'd', m: 8, n: 8, k: 8, transB: true, count: 256},
	{op: opGEMM, dt: 'z', m: 6, n: 6, k: 6, count: 128},
	// Each TRSM is followed by a TRMM on the same triangle, so B returns
	// to its start every step. The 4 uses the register-resident triangle.
	{op: opTRSM, dt: 'd', m: 4, n: 4, count: 1280},
	{op: opTRMM, dt: 'd', m: 4, n: 4, count: 1280},
	{op: opTRSM, dt: 'd', m: 8, n: 8, count: 224},
	{op: opTRMM, dt: 'd', m: 8, n: 8, count: 224},
	{op: opTRSM, dt: 'd', m: 16, n: 16, count: 40},
	{op: opTRMM, dt: 'd', m: 16, n: 16, count: 40},
}

// checkEvery is the step sampling of compact-batch's correctness checks.
// Checks run outside the timed window and outside the CPU count, and the
// garbage they make is collected there too, so the measured steps see
// only the library's own allocation.
const checkEvery = 8

// batchItem is one call (or a TRSM→TRMM pair) of a compact-batch step.
type batchItem interface {
	// build makes the engine-side operands; it is part of set-up.
	build()
	run(ctx context.Context, t target, tr *tracer, parent uint64, op int) error
	// snapshot records what the first run returned (set-up).
	snapshot()
	// verifyFirst checks the first run against the internal/matrix
	// reference; check checks a later step against the first.
	verifyFirst() error
	check() error
}

type gemmItem[T scalar] struct {
	p       problem
	a, b, c []T // conventional inputs (c: start value)
	A, B, C *iatf.Compact[T]
	req     iatf.Request[T]
	first   []T
}

func newGemmItem[T scalar](rng *rand.Rand, p problem) *gemmItem[T] {
	ar, ac := p.aDims()
	br, bc := p.bDims()
	cr, cc := p.cDims()
	return &gemmItem[T]{p: p,
		a: randVals[T](rng, p.count*ar*ac),
		b: randVals[T](rng, p.count*br*bc),
		c: randVals[T](rng, p.count*cr*cc)}
}

func (g *gemmItem[T]) build() {
	ar, ac := g.p.aDims()
	br, bc := g.p.bDims()
	cr, cc := g.p.cDims()
	g.A = toCompact(g.a, g.p.count, ar, ac)
	prepack(g.A)
	g.B = toCompact(g.b, g.p.count, br, bc)
	g.C = toCompact(g.c, g.p.count, cr, cc)
	g.req = gemmReq(g.p.transA, g.p.transB, T(1), g.A, g.B, T(0), g.C)
}

func (g *gemmItem[T]) run(ctx context.Context, t target, tr *tracer, parent uint64, op int) error {
	_, end := tr.begin("iatf.Do:"+g.p.name(), parent, op)
	err := do(ctx, t, g.req, tr.sink(op))
	end()
	return err
}

func (g *gemmItem[T]) snapshot() { g.first = fromCompact(g.C) }

func (g *gemmItem[T]) verifyFirst() error {
	return checkClose(g.p.name()+" vs reference", g.first, reference(g.p, g.a, g.b, g.c), refTol(g.p.dt))
}

// check: β = 0, so every step must reproduce the first result bit for bit.
func (g *gemmItem[T]) check() error {
	return checkBits(g.p.name(), fromCompact(g.C), g.first)
}

// triPair is TRSM then TRMM on one triangle and one B: B returns to its
// start within roundTripTol.
type triPair struct {
	solve, mul problem
	a, b       []float64
	A, B       *iatf.Compact[float64]
	sReq, mReq iatf.Request[float64]
	solved     []float64 // B after the first TRSM
	returned   []float64 // B after the first TRMM
}

func newTriPair(rng *rand.Rand, solve, mul problem) *triPair {
	return &triPair{solve: solve, mul: mul,
		a: randTriangles[float64](rng, solve.count, solve.m, false, false),
		b: randVals[float64](rng, solve.count*solve.m*solve.n)}
}

func (t *triPair) build() {
	t.A = toCompact(t.a, t.solve.count, t.solve.m, t.solve.m)
	prepack(t.A)
	t.B = toCompact(t.b, t.solve.count, t.solve.m, t.solve.n)
	t.sReq = triReq(opTRSM, false, false, t.A, t.B)
	t.mReq = triReq(opTRMM, false, false, t.A, t.B)
}

func (t *triPair) run(ctx context.Context, tg target, tr *tracer, parent uint64, op int) error {
	_, end := tr.begin("iatf.Do:"+t.solve.name(), parent, op)
	err := do(ctx, tg, t.sReq, tr.sink(op))
	end()
	if err != nil {
		return err
	}
	_, end = tr.begin("iatf.Do:"+t.mul.name(), parent, op)
	err = do(ctx, tg, t.mReq, tr.sink(op))
	end()
	return err
}

func (t *triPair) snapshot() { t.returned = fromCompact(t.B) }

func (t *triPair) verifyFirst() error {
	if err := checkClose(t.solve.name()+" vs reference", t.solved, reference(t.solve, t.a, t.b, nil), refTolD); err != nil {
		return err
	}
	return checkClose(t.mul.name()+" round trip", t.returned, t.b, roundTripTol)
}

func (t *triPair) check() error {
	return checkClose(t.mul.name()+" round trip", fromCompact(t.B), t.b, roundTripTol)
}

// compactBatch is library batch compute: one goroutine runs a closed loop
// of synchronous Do on a private engine; one op is one step over every
// call. Kernels, packing and the core executor do nearly all the work.
type compactBatch struct {
	items []batchItem
	t     target
	eng   *iatf.Engine
	// tamper, when set, corrupts a result before it is checked (tests).
	tamper func(items []batchItem)
}

func newCompactBatch(seed int64) *compactBatch {
	rng := rand.New(rand.NewSource(seed))
	w := &compactBatch{}
	for i := 0; i < len(compactBatchCalls); i++ {
		p := compactBatchCalls[i]
		switch {
		case p.op == opTRSM:
			w.items = append(w.items, newTriPair(rng, p, compactBatchCalls[i+1]))
			i++
		case p.dt == 's':
			w.items = append(w.items, newGemmItem[float32](rng, p))
		case p.dt == 'd':
			w.items = append(w.items, newGemmItem[float64](rng, p))
		default:
			w.items = append(w.items, newGemmItem[complex128](rng, p))
		}
	}
	return w
}

func (w *compactBatch) problems() []problem { return compactBatchCalls }

func (w *compactBatch) representative() problem { return compactBatchCalls[4] }

func (w *compactBatch) setup(ctx context.Context, tr *tracer) error {
	w.t, w.eng = newEngineTarget()
	for _, it := range w.items {
		it.build()
	}
	for _, it := range w.items {
		if tp, ok := it.(*triPair); ok {
			// The solve's own result is checked too: run the pair's
			// halves separately the first time.
			if err := do(ctx, w.t, tp.sReq, tr.sink(0)); err != nil {
				return err
			}
			tp.solved = fromCompact(tp.B)
			if err := do(ctx, w.t, tp.mReq, tr.sink(0)); err != nil {
				return err
			}
		} else if err := it.run(ctx, w.t, nil, 0, 0); err != nil {
			return err
		}
		it.snapshot()
	}
	return nil
}

func (w *compactBatch) verify() error {
	for _, it := range w.items {
		if err := it.verifyFirst(); err != nil {
			return err
		}
	}
	return nil
}

func (w *compactBatch) stepFlops() float64 {
	fl := 0.0
	for _, p := range compactBatchCalls {
		fl += p.flops()
	}
	return fl
}

func (w *compactBatch) measure(ctx context.Context, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	flops := w.stepFlops()
	limit := time.Duration(seconds * float64(time.Second))
	ph.clock.start()
	for step := 0; ph.clock.elapsed() < limit; step++ {
		ph.attempted++
		t0 := time.Now()
		id, end := tr.begin("step", 0, step)
		var err error
		for _, it := range w.items {
			if err = it.run(ctx, w.t, tr, id, step); err != nil {
				break
			}
		}
		end()
		lat := time.Since(t0)
		rec := opRec{lat: lat, flops: flops, ok: err == nil}
		if err != nil {
			ph.fail(fmt.Errorf("step %d: %w", step, err), false)
		}
		if step%checkEvery == 0 {
			ph.clock.pause()
			if w.tamper != nil {
				w.tamper(w.items)
			}
			for _, it := range w.items {
				if cerr := it.check(); cerr != nil {
					if rec.ok {
						ph.fail(fmt.Errorf("step %d: %w", step, cerr), true)
					}
					rec.ok = false
					break
				}
			}
			runtime.GC()
			ph.clock.resume()
		}
		ph.ops = append(ph.ops, rec)
	}
	ph.clock.stop()
	return ph
}

func (w *compactBatch) close() {}
