package iatf_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iatf"
)

// oneStageCase is one level-3 op expressed as a Request and as a Stage
// over the same operands; out names the operand the op writes.
type oneStageCase[T float32 | float64] struct {
	name  string
	req   func(a, b, c *iatf.Compact[T]) iatf.Request[T]
	stage func(a, b, c *iatf.Compact[T]) iatf.Stage[T]
	out   func(a, b, c *iatf.Compact[T]) *iatf.Compact[T]
}

func oneStageCases[T float32 | float64]() []oneStageCase[T] {
	return []oneStageCase[T]{
		{"GEMM",
			func(a, b, c *iatf.Compact[T]) iatf.Request[T] {
				return iatf.Request[T]{Op: iatf.OpGEMM, TransB: iatf.Transpose, Alpha: 1.5, Beta: 0.5, A: a, B: b, C: c}
			},
			func(a, b, c *iatf.Compact[T]) iatf.Stage[T] {
				return iatf.GEMMStage(iatf.NoTrans, iatf.Transpose, T(1.5), a, b, T(0.5), c)
			},
			func(a, b, c *iatf.Compact[T]) *iatf.Compact[T] { return c }},
		{"TRSM",
			func(a, b, c *iatf.Compact[T]) iatf.Request[T] {
				return iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Upper, Diag: iatf.NonUnit, Alpha: 2, A: a, B: b}
			},
			func(a, b, c *iatf.Compact[T]) iatf.Stage[T] {
				return iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, T(2), a, b)
			},
			func(a, b, c *iatf.Compact[T]) *iatf.Compact[T] { return b }},
		{"TRMM",
			func(a, b, c *iatf.Compact[T]) iatf.Request[T] {
				return iatf.Request[T]{Op: iatf.OpTRMM, Side: iatf.Right, Uplo: iatf.Lower, TransA: iatf.Transpose, Diag: iatf.Unit, Alpha: 1, A: a, B: b}
			},
			func(a, b, c *iatf.Compact[T]) iatf.Stage[T] {
				return iatf.TRMMStage(iatf.Right, iatf.Lower, iatf.Transpose, iatf.Unit, T(1), a, b)
			},
			func(a, b, c *iatf.Compact[T]) *iatf.Compact[T] { return b }},
		{"SYRK",
			func(a, b, c *iatf.Compact[T]) iatf.Request[T] {
				return iatf.Request[T]{Op: iatf.OpSYRK, Uplo: iatf.Lower, Alpha: 1, Beta: 1, A: a, C: c}
			},
			func(a, b, c *iatf.Compact[T]) iatf.Stage[T] {
				return iatf.SYRKStage(iatf.Lower, iatf.NoTrans, T(1), a, T(1), c)
			},
			func(a, b, c *iatf.Compact[T]) *iatf.Compact[T] { return c }},
	}
}

// oneStageRun is everything a path observably produced for two calls
// (cold, then warm) on a fresh engine.
type oneStageRun[T float32 | float64] struct {
	out    *iatf.Compact[T]
	spans  []iatf.Span
	plan   [2]uint64 // PlanHits, PlanMisses deltas
	shapes []iatf.ShapeStats
	chain  bool // Stats.Chain moved
	inline uint64
}

func runOneStagePath[T float32 | float64](t *testing.T, c oneStageCase[T], path string) oneStageRun[T] {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	a := chainRand[T](rng, 13, 8, 8, 8)
	b := chainRand[T](rng, 13, 8, 8, 0)
	cc := chainRand[T](rng, 13, 8, 8, 0)
	eng := iatf.NewEngine()
	var res oneStageRun[T]
	opts := []iatf.Option{iatf.WithEngine(eng), iatf.WithSpanSink(func(sp *iatf.Span) { res.spans = append(res.spans, *sp) })}
	ctx := context.Background()
	before := eng.Stats()
	for i := 0; i < 2; i++ {
		var err error
		switch path {
		case "Do":
			err = iatf.Do(ctx, c.req(a, b, cc), opts...)
		case "Submit":
			var f *iatf.Future
			if f, err = iatf.Submit(ctx, c.req(a, b, cc), opts...); err == nil {
				err = f.Err()
			}
		case "Chain":
			err = iatf.Chain(ctx, []iatf.Stage[T]{c.stage(a, b, cc)}, opts...)
		}
		if err != nil {
			t.Fatalf("%s via %s: %v", c.name, path, err)
		}
	}
	after := eng.Stats()
	res.out = c.out(a, b, cc)
	res.plan = [2]uint64{after.PlanHits - before.PlanHits, after.PlanMisses - before.PlanMisses}
	for _, s := range after.Shapes {
		s.P50, s.P99, s.AvgGFLOPS, s.BestGFLOPS = 0, 0, 0, 0 // timing-dependent
		res.shapes = append(res.shapes, s)
	}
	res.chain = after.Chain != before.Chain
	res.inline = after.Queue.Inline
	return res
}

// spanShape is the part of a span that must not depend on the path: the
// descriptor and which phases were attributed.
func spanShape(sp iatf.Span) string {
	var phases []iatf.SpanPhase
	for p, d := range sp.Phases {
		if d > 0 {
			phases = append(phases, iatf.SpanPhase(p))
		}
	}
	return fmt.Sprintf("%s %s %s %dx%dx%d count=%d workers=%d parent=%d prepack=%d/%d err=%q phases=%v",
		sp.Op, sp.DType, sp.Mode, sp.M, sp.N, sp.K, sp.Count, sp.Workers, sp.ParentID,
		sp.PrepackHits, sp.PrepackBuilds, sp.Error, phases)
}

func oneStageIsOp[T float32 | float64](t *testing.T) {
	for _, c := range oneStageCases[T]() {
		do := runOneStagePath(t, c, "Do")
		for _, path := range []string{"Submit", "Chain"} {
			got := runOneStagePath(t, c, path)
			label := c.name + " via " + path
			expectEqual(t, label, got.out, do.out)
			if len(got.spans) != 2 || len(do.spans) != 2 {
				t.Fatalf("%s: %d spans, Do %d, want 2 each", label, len(got.spans), len(do.spans))
			}
			for i := range got.spans {
				if g, w := spanShape(got.spans[i]), spanShape(do.spans[i]); g != w {
					t.Errorf("%s: span %d\n got %s\nwant %s", label, i, g, w)
				}
			}
			if got.plan != do.plan {
				t.Errorf("%s: plan hits/misses/shared %v, Do %v", label, got.plan, do.plan)
			}
			if !reflect.DeepEqual(got.shapes, do.shapes) {
				t.Errorf("%s: per-shape rows\n got %+v\nwant %+v", label, got.shapes, do.shapes)
			}
			if got.chain || do.chain {
				t.Errorf("%s: a one-stage execution touched Stats.Chain", label)
			}
			if path == "Submit" && got.inline != 2 {
				t.Errorf("%s: %d inline executions, want 2 (idle queue)", label, got.inline)
			}
		}
	}
}

// TestChainOneStageIsOp: a one-stage chain and an idle-queue Submit are
// observably the op — the same results, span descriptors, plan counters
// and per-shape rows as Do, with no chain state.
func TestChainOneStageIsOp(t *testing.T) {
	t.Run("f32", oneStageIsOp[float32])
	t.Run("f64", oneStageIsOp[float64])
}

// TestChainTenantTrace: tenant and trace tags ride every chain entry —
// sync Chain, inline and queued SubmitChain, and a chain on an engine
// set — into the tenant ledger and onto the chain's span.
func TestChainTenantTrace(t *testing.T) {
	objectives := map[string]iatf.TenantObjective{"rt": {Class: 1, Objective: 10 * time.Second, Target: 0.99}}
	eng := iatf.NewEngine()
	eng.SetTenants(objectives)
	set := iatf.NewEngineSet(2)
	set.SetTenants(objectives)
	rng := rand.New(rand.NewSource(12))
	a := chainRand[float64](rng, 7, 8, 8, 4)

	var mu sync.Mutex
	seen := map[string]string{} // trace id → span op
	tagged := func(target iatf.Option, id string) []iatf.Option {
		return []iatf.Option{target, iatf.WithTenant("rt"), iatf.WithTrace(id), iatf.WithSpanSink(func(sp *iatf.Span) {
			mu.Lock()
			seen[sp.TraceID] = sp.Op
			mu.Unlock()
		})}
	}
	ctx := context.Background()
	run := func(label string, call func(stages []iatf.Stage[float64]) error) {
		t.Helper()
		b := chainRand[float64](rng, 7, 8, 4, 0)
		want := b.Clone()
		if err := iatf.TRMM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, want); err != nil {
			t.Fatal(err)
		}
		if err := iatf.TRSM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, want); err != nil {
			t.Fatal(err)
		}
		if err := call([]iatf.Stage[float64]{
			iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
			iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
		}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		expectEqual(t, label, b, want)
	}
	submit := func(opts []iatf.Option) func([]iatf.Stage[float64]) error {
		return func(stages []iatf.Stage[float64]) error {
			f, err := iatf.SubmitChain(ctx, stages, opts...)
			if err != nil {
				return err
			}
			return f.Err()
		}
	}

	run("sync", func(stages []iatf.Stage[float64]) error {
		return iatf.Chain(ctx, stages, tagged(iatf.WithEngine(eng), "sync")...)
	})
	run("inline", submit(tagged(iatf.WithEngine(eng), "inline")))

	// Queued: hold an inline two-stage chain in an engine-level span sink
	// on its first stage span (FinishSpan delivers it on the executing
	// goroutine while the queue counts as busy), so the tagged chain
	// cannot run inline and goes to the dispatcher.
	entered, release := make(chan struct{}), make(chan struct{})
	var holding atomic.Bool
	eng.SetSpanSink(func(sp *iatf.Span) {
		if sp.ParentID != 0 && holding.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	ha, hb := chainRand[float64](rng, 4, 4, 4, 4), chainRand[float64](rng, 4, 4, 4, 0)
	held := make(chan error, 1)
	go func() {
		f, err := iatf.SubmitChain(ctx, []iatf.Stage[float64]{
			iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, ha, hb),
			iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, ha, hb),
		}, iatf.WithEngine(eng))
		if err == nil {
			err = f.Err()
		}
		held <- err
	}()
	<-entered
	q0 := eng.QueueStats()
	run("queued", submit(tagged(iatf.WithEngine(eng), "queued")))
	q1 := eng.QueueStats()
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	eng.SetSpanSink(nil)
	if q1.Submitted-q0.Submitted != 1 || q1.Inline != q0.Inline {
		t.Fatalf("queued chain ran inline: submitted %d→%d inline %d→%d", q0.Submitted, q1.Submitted, q0.Inline, q1.Inline)
	}

	run("set", func(stages []iatf.Stage[float64]) error {
		return iatf.Chain(ctx, stages, tagged(iatf.WithEngineSet(set), "set")...)
	})

	for _, id := range []string{"sync", "inline", "queued", "set"} {
		if op := seen[id]; op != "CHAIN" {
			t.Errorf("trace %q: span op %q, want a CHAIN span carrying the id (seen %v)", id, op, seen)
		}
	}
	for label, ts := range map[string][]iatf.TenantStats{"engine": eng.TenantStats(), "set": set.TenantStats()} {
		want := uint64(3)
		if label == "set" {
			want = 1
		}
		if len(ts) != 1 || ts[0].Name != "rt" || ts[0].Requests != want {
			t.Errorf("%s tenant ledger = %+v, want %d rt requests", label, ts, want)
		}
	}
}

// TestAsyncChainAllocCeilings pins warm allocation ceilings of the
// paths the ≤2-alloc Do tests do not cover (f64 8×8, the same at every
// count): a 3-stage Chain on an engine and on a 1-shard set, an inline
// Submit, an inline 3-stage SubmitChain and a one-stage Chain.
func TestAsyncChainAllocCeilings(t *testing.T) {
	ctx := context.Background()
	id := make([]float64, 64)
	for i := 0; i < 8; i++ {
		id[i*8+i] = 1
	}
	for _, count := range []int{13, 64, 1024} {
		rng := rand.New(rand.NewSource(13))
		// LU of the identity is the identity, so the chain replays on
		// unchanged operands every iteration.
		a, err := iatf.PackReplicated(id, 8, 8, count)
		if err != nil {
			t.Fatal(err)
		}
		b := chainRand[float64](rng, count, 8, 8, 0)
		c := chainRand[float64](rng, count, 8, 8, 0)
		chain3 := []iatf.Stage[float64]{
			iatf.LUStage(a),
			iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, 1.0, a, b),
			iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
		}
		chain1 := []iatf.Stage[float64]{iatf.GEMMStage(iatf.NoTrans, iatf.NoTrans, 1.0, a, b, 0.0, c)}
		req := iatf.Request[float64]{Op: iatf.OpGEMM, Alpha: 1, Beta: 0, A: a, B: b, C: c}
		onEng := []iatf.Option{iatf.WithEngine(iatf.NewEngine())}
		onSet := []iatf.Option{iatf.WithEngineSet(iatf.NewEngineSet(1))}
		wait := func(f *iatf.Future, err error) error {
			if err != nil {
				return err
			}
			return f.Err()
		}
		for _, c := range []struct {
			name    string
			ceiling float64
			call    func() error
		}{
			{"3-stage Chain, engine", 12, func() error { return iatf.Chain(ctx, chain3, onEng...) }},
			{"3-stage Chain, 1-shard set", 12, func() error { return iatf.Chain(ctx, chain3, onSet...) }},
			{"inline Submit", 6, func() error { return wait(iatf.Submit(ctx, req, onEng...)) }},
			{"inline 3-stage SubmitChain", 16, func() error { return wait(iatf.SubmitChain(ctx, chain3, onEng...)) }},
			{"one-stage Chain", 8, func() error { return iatf.Chain(ctx, chain1, onEng...) }},
		} {
			for i := 0; i < 2; i++ { // warm plans, packed images, pools
				if err := c.call(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			run := func() {
				if err := c.call(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			allocs := testing.AllocsPerRun(50, run)
			// Noise only ever adds allocations (under the race detector
			// sync.Pool drops pooled buffers at random), so up to two
			// re-measurements keep the lowest reading.
			for i := 0; i < 2 && allocs > c.ceiling; i++ {
				allocs = min(allocs, testing.AllocsPerRun(50, run))
			}
			if allocs > c.ceiling {
				t.Errorf("count %d: warm %s allocates %.0f objects/call, ceiling %.0f", count, c.name, allocs, c.ceiling)
			}
		}
	}
}

// factorRun is everything one path observably produced for a tagged
// well-conditioned factorization and a tagged batch holding one singular
// matrix, on a fresh target.
type factorRun struct {
	outs    [2]*iatf.Compact[float64]
	infos   [2][]int
	spans   []iatf.Span
	shapes  []iatf.ShapeStats
	tenants []string // name, requests, errors
}

// TestFactorReportsThroughOnePath: LU and Cholesky run as one-stage
// lists of the Do path, sync and WithAsync, on an engine and on a
// two-shard set. A tagged call delivers exactly one span (its op, trace
// id, plan and compute phases) and one tenant request, and its results,
// info codes, span shape and per-shape rows equal the one-stage
// Chain's. A batch with a singular matrix still returns its info codes
// with a nil error.
func TestFactorReportsThroughOnePath(t *testing.T) {
	const count, n, bad = 13, 6, 5
	ctx := context.Background()
	for _, c := range []struct {
		op     string
		factor func(*iatf.Compact[float64], ...iatf.Option) ([]int, error)
		stage  func(*iatf.Compact[float64]) iatf.Stage[float64]
	}{
		{"LU", iatf.LU[float64], iatf.LUStage[float64]},
		{"CHOL", iatf.Cholesky[float64], iatf.CholeskyStage[float64]},
	} {
		for _, shards := range []int{1, 2} {
			label := fmt.Sprintf("%s on %d shard(s)", c.op, shards)
			run := func(chain bool, extra ...iatf.Option) factorRun {
				eng := iatf.NewEngine()
				if shards > 1 {
					eng = iatf.NewEngineSet(shards).Engine
				}
				eng.SetTenants(map[string]iatf.TenantObjective{"rt": {}})
				rng := rand.New(rand.NewSource(14))
				good := spdRand[float64](rng, count, n)
				singular := good.Unpack()
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						singular.Set(bad, i, j, 0) // zero first pivot: info 1
					}
				}
				var res factorRun
				res.outs = [2]*iatf.Compact[float64]{good, iatf.Pack(singular)}
				for i, a := range res.outs {
					opts := append([]iatf.Option{iatf.WithEngine(eng), iatf.WithTenant("rt"),
						iatf.WithTrace(fmt.Sprintf("call-%d", i)),
						iatf.WithSpanSink(func(sp *iatf.Span) { res.spans = append(res.spans, *sp) })}, extra...)
					if !chain {
						info, err := c.factor(a, opts...)
						if err != nil {
							t.Fatalf("%s: call %d: %v", label, i, err)
						}
						res.infos[i] = info
						continue
					}
					err := iatf.Chain(ctx, []iatf.Stage[float64]{c.stage(a)}, opts...)
					var ce *iatf.ChainError
					switch {
					case err == nil:
						res.infos[i] = make([]int, count)
					case errors.As(err, &ce) && errors.Is(err, iatf.ErrSingular):
						res.infos[i] = ce.Info
					default:
						t.Fatalf("%s: chain call %d: %v", label, i, err)
					}
				}
				st := eng.Stats()
				for _, s := range st.Shapes {
					s.P50, s.P99, s.AvgGFLOPS, s.BestGFLOPS = 0, 0, 0, 0 // timing-dependent
					res.shapes = append(res.shapes, s)
				}
				for _, ts := range eng.TenantStats() {
					res.tenants = append(res.tenants, fmt.Sprintf("%s requests=%d errors=%d", ts.Name, ts.Requests, ts.Errors))
				}
				return res
			}
			want := run(true)
			for path, extra := range map[string][]iatf.Option{"sync": nil, "async": {iatf.WithAsync()}} {
				checkFactorRun(t, label+" "+path, c.op, bad, run(false, extra...), want)
			}
		}
	}
}

// TestLUPivotedReportsThroughOnePath: the pivoted LU is a one-stage
// list of the Do path as well, sync and WithAsync, on an engine and on a
// two-shard set. A tagged call delivers one span (Op LUPIV, its trace
// id, plan and compute phases) and one tenant request; its factors,
// pivots and info codes equal the core executor's on a clone, and
// LUSolvePivoted solves with them. A batch with a singular matrix still
// returns its pivots and info codes with a nil error, and counts as one
// error in its span, its shape row and the tenant ledger.
func TestLUPivotedReportsThroughOnePath(t *testing.T) {
	const count, n, bad = 13, 6, 5
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		for path, extra := range map[string][]iatf.Option{"sync": nil, "async": {iatf.WithAsync()}} {
			label := fmt.Sprintf("LUPIV on %d shard(s) %s", shards, path)
			eng := iatf.NewEngine()
			if shards > 1 {
				eng = iatf.NewEngineSet(shards).Engine
			}
			eng.SetTenants(map[string]iatf.TenantObjective{"rt": {}})
			rng := rand.New(rand.NewSource(15))
			good := chainRand[float64](rng, count, n, n, 0) // general, not dominant
			singular := good.Unpack()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					singular.Set(bad, i, j, 0) // a zero first column: info 1
				}
			}
			var spans []iatf.Span
			for i, a := range []*iatf.Compact[float64]{good, iatf.Pack(singular)} {
				orig := a.Clone()
				wantF, wantPiv, wantInfo, err := iatf.LUPivotedDirect(a)
				if err != nil {
					t.Fatal(err)
				}
				opts := append([]iatf.Option{iatf.WithEngine(eng), iatf.WithTenant("rt"),
					iatf.WithTrace(fmt.Sprintf("call-%d", i)),
					iatf.WithSpanSink(func(sp *iatf.Span) { spans = append(spans, *sp) })}, extra...)
				piv, info, err := iatf.LUPivoted(a, opts...)
				if err != nil {
					t.Fatalf("%s: call %d: %v", label, i, err)
				}
				expectEqual(t, fmt.Sprintf("%s: call %d factors", label, i), a, wantF)
				if !iatf.SamePivots(piv, wantPiv) || !reflect.DeepEqual(info, wantInfo) {
					t.Errorf("%s: call %d: pivots or info %v differ from the core executor's %v", label, i, info, wantInfo)
				}
				for m, code := range info {
					wantCode := 0
					if i == 1 && m == bad {
						wantCode = 1
					}
					if code != wantCode {
						t.Errorf("%s: call %d info[%d] = %d, want %d", label, i, m, code, wantCode)
					}
				}
				if i == 1 {
					continue
				}
				// A·X = B through the returned factors and pivots.
				b := chainRand[float64](rng, count, n, 2, 0)
				x := b.Clone()
				if err := iatf.LUSolvePivoted(a, piv, x); err != nil {
					t.Fatal(err)
				}
				ax := iatf.Pack(iatf.NewBatch[float64](count, n, 2))
				if err := iatf.Do(ctx, iatf.Request[float64]{Op: iatf.OpGEMM, Alpha: 1, A: orig, B: x, C: ax}); err != nil {
					t.Fatal(err)
				}
				got, want := ax.Unpack().Data(), b.Unpack().Data()
				for j := range got {
					if math.Abs(got[j]-want[j]) > 1e-9 {
						t.Fatalf("%s: A·X differs from B at %d: %g vs %g", label, j, got[j], want[j])
					}
				}
			}
			if len(spans) != 2 {
				t.Fatalf("%s: %d spans for two calls, want one each", label, len(spans))
			}
			for i, sp := range spans {
				if sp.Op != "LUPIV" || sp.TraceID != fmt.Sprintf("call-%d", i) || (sp.Error != "") != (i == 1) ||
					sp.Phases[iatf.PhasePlan] <= 0 || sp.Phases[iatf.PhaseCompute] <= 0 {
					t.Errorf("%s: span %d = %s trace %q error %q phases %v", label, i, sp.Op, sp.TraceID, sp.Error, sp.Phases)
				}
			}
			var rows []string
			for _, s := range eng.Stats().Shapes {
				rows = append(rows, fmt.Sprintf("%s %s n=%d calls=%d errors=%d", s.Op, s.DType, s.N, s.Calls, s.Errors))
			}
			if want := []string{"LUPIV d n=6 calls=2 errors=1"}; !reflect.DeepEqual(rows, want) {
				t.Errorf("%s: shape rows %q, want %q", label, rows, want)
			}
			var ledger []string
			for _, ts := range eng.TenantStats() {
				ledger = append(ledger, fmt.Sprintf("%s requests=%d errors=%d", ts.Name, ts.Requests, ts.Errors))
			}
			if want := []string{"rt requests=2 errors=1"}; !reflect.DeepEqual(ledger, want) {
				t.Errorf("%s: tenant ledger %q, want %q", label, ledger, want)
			}
		}
	}
}

// checkFactorRun compares a factorization path's record with the
// one-stage Chain's (want).
func checkFactorRun(t *testing.T, label, op string, bad int, got, want factorRun) {
	t.Helper()
	if len(got.spans) != 2 {
		t.Fatalf("%s: %d spans for two calls, want one each", label, len(got.spans))
	}
	for i, sp := range got.spans {
		if sp.Op != op || sp.TraceID != fmt.Sprintf("call-%d", i) ||
			sp.Phases[iatf.PhasePlan] <= 0 || sp.Phases[iatf.PhaseCompute] <= 0 {
			t.Errorf("%s: span %d = %s trace %q phases %v", label, i, sp.Op, sp.TraceID, sp.Phases)
		}
		if g, w := spanShape(sp), spanShape(want.spans[i]); g != w {
			t.Errorf("%s: span %d\n got %s\nwant %s", label, i, g, w)
		}
	}
	if wantLedger := []string{"rt requests=2 errors=1"}; !reflect.DeepEqual(got.tenants, wantLedger) {
		t.Errorf("%s: tenant ledger %q, want %q (the singular batch is the error)", label, got.tenants, wantLedger)
	}
	for i := range got.outs {
		expectEqual(t, fmt.Sprintf("%s: call %d", label, i), got.outs[i], want.outs[i])
	}
	for m, code := range got.infos[1] {
		wantCode := 0
		if m == bad {
			wantCode = 1
		}
		if code != wantCode {
			t.Errorf("%s: singular batch info[%d] = %d, want %d", label, m, code, wantCode)
		}
	}
	if !reflect.DeepEqual(got.infos, want.infos) {
		t.Errorf("%s: info codes %v, chain %v", label, got.infos, want.infos)
	}
	if !reflect.DeepEqual(got.shapes, want.shapes) {
		t.Errorf("%s: per-shape rows\n got %+v\nwant %+v", label, got.shapes, want.shapes)
	}
	if !reflect.DeepEqual(got.tenants, want.tenants) {
		t.Errorf("%s: tenant ledger\n got %+v\nwant %+v", label, got.tenants, want.tenants)
	}
}
