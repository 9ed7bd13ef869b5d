package engine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/obs"
)

// holdDispatcher wires a test hook that parks the dispatcher goroutine
// after it drains a batch: `entered` reports each drained batch size,
// and the dispatcher blocks until `gate` is closed. With the busy flag
// forced on, every Submit enqueues (no idle fast path), which makes
// queue-full, cancellation and batch ordering deterministic.
func holdDispatcher(e *Engine) (entered chan int, gate chan struct{}) {
	entered = make(chan int, 64)
	gate = make(chan struct{})
	e.queue.testHook = func(n int) {
		entered <- n
		<-gate
	}
	e.queue.busy.Store(true)
	return entered, gate
}

func gemmReqOperands(rng *rand.Rand, count, m, n, k int) (a, b, c *layout.Compact[float32]) {
	return randCompact(rng, count, m, k), randCompact(rng, count, k, n), randCompact(rng, count, m, n)
}

var asyncGEMMDesc = OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}

// TestAsyncIdleFastPath: with nothing queued, Submit executes on the
// caller and the future resolves before Submit returns.
func TestAsyncIdleFastPath(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(50))
	a, b, c := gemmReqOperands(rng, 12, 4, 4, 4)

	fut, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	default:
		t.Fatal("idle submission did not resolve synchronously")
	}
	if err := fut.Err(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Queue.Inline != 1 || s.Queue.Submitted != 1 {
		t.Fatalf("inline=%d submitted=%d, want 1/1", s.Queue.Inline, s.Queue.Submitted)
	}
}

// TestAsyncQueueFullBackpressure: with the dispatcher held and the
// bounded queue filled, the next Submit is rejected with ErrQueueFull.
func TestAsyncQueueFullBackpressure(t *testing.T) {
	e := newEngine(core.DefaultTuning(), QueueConfig{Capacity: 2})
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(51))
	ctx := context.Background()

	submit := func() (*Future, error) {
		a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
		return e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	}

	// First request: dequeued by the dispatcher, which parks in the hook.
	f1, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if n := <-entered; n != 1 {
		t.Fatalf("dispatcher drained %d, want 1", n)
	}
	// Fill the capacity-2 queue, then overflow it.
	f2, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if got := e.Stats().Queue.Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	close(gate)
	for _, f := range []*Future{f1, f2, f3} {
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncCancelBeforeDequeue: a request cancelled while it waits in
// the queue resolves with ctx.Err() and never executes.
func TestAsyncCancelBeforeDequeue(t *testing.T) {
	e := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(52))

	// Occupy the dispatcher with a first request.
	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Queue the victim, then cancel it while it waits.
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	before := append([]float32(nil), c.Data...)
	ctx, cancel := context.WithCancel(context.Background())
	fut, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)

	if err := fut.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	<-entered // the victim's (cancelled-only) batch was drained
	for i := range c.Data {
		if c.Data[i] != before[i] {
			t.Fatalf("cancelled request executed: C[%d] changed", i)
		}
	}
	if got := e.Stats().Queue.Cancelled; got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
}

// TestAsyncDepthFallsPerRequest: QueueStats.Depth counts a drained
// batch's requests only until each one resolves. Four GEMMs queue behind
// a parked dispatcher, the first cancelled while it waits; read from each
// request's span sink, Depth falls by one per resolved request.
func TestAsyncDepthFallsPerRequest(t *testing.T) {
	e := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(53))

	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	var depths []int // appended on the dispatcher, read after every future resolved
	sink := obs.SpanFunc(func(*obs.Span) { depths = append(depths, e.QueueStats().Depth) })
	ctx, cancel := context.WithCancel(context.Background())
	futs := make([]*Future, 4)
	for i := range futs {
		sctx := context.Background()
		if i == 0 {
			sctx = ctx
		}
		a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
		if futs[i], err = e.Submit(sctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Sink: sink}); err != nil {
			t.Fatal(err)
		}
	}
	if d := e.QueueStats().Depth; d != 5 {
		t.Fatalf("depth with the dispatcher parked = %d, want 5", d)
	}
	cancel()
	close(gate)

	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Err(); (i == 0) != errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: err %v", i, err)
		}
	}
	if want := []int{3, 2, 1, 0}; !slices.Equal(depths, want) {
		t.Fatalf("depth read from each span sink = %v, want %v", depths, want)
	}
}

// TestAsyncCancelAfterDequeue: a request cancelled after the dispatcher
// drained it (but before it executes) still resolves with ctx.Err()
// without executing.
func TestAsyncCancelAfterDequeue(t *testing.T) {
	e := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(53))

	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	before := append([]float32(nil), c.Data...)
	ctx, cancel := context.WithCancel(context.Background())
	fut, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the request is out of the queue, held pre-execution
	cancel()
	close(gate)

	if err := fut.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	for i := range c.Data {
		if c.Data[i] != before[i] {
			t.Fatalf("cancelled request executed: C[%d] changed", i)
		}
	}
}

// TestAsyncCancelledAtSubmit: a context already done is rejected before
// entering the queue.
func TestAsyncCancelledAtSubmit(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(54))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAsyncQueuedParity holds the dispatcher, queues N same-shape GEMMs
// (and a TRSM straggler), releases them as ONE drained batch, and
// asserts (a) every request ran on its own — one dispatch each, nothing
// coalesced — and (b) every result is bit-identical to a serial direct
// Run on a fresh engine.
func TestAsyncQueuedParity(t *testing.T) {
	e := New(core.DefaultTuning())
	ref := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(55))
	ctx := context.Background()

	// Occupy the dispatcher so everything below queues up behind it.
	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	const N = 7
	const count, m, n, k = 13, 6, 5, 7 // count not a multiple of P: a padded tail group
	desc := OpDesc{Kind: OpGEMM, TransA: 0, TransB: 0, Alpha: complex(1.5, 0), Beta: complex(0.5, 0), Workers: 1}
	var futs [N]*Future
	var as, bs, cs, want [N]*layout.Compact[float32]
	for i := 0; i < N; i++ {
		as[i], bs[i], cs[i] = gemmReqOperands(rng, count, m, n, k)
		want[i] = cs[i].Clone()
		if err := ref.Run(context.Background(), one(desc, op32(as[i]), op32(bs[i]), op32(want[i])), Call{}); err != nil {
			t.Fatal(err)
		}
		if futs[i], err = e.Submit(ctx, one(desc, op32(as[i]), op32(bs[i]), op32(cs[i])), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	// A same-batch TRSM straggler of another op.
	tri := randCompact(rng, count, m, m)
	for g := 0; g < tri.Groups(); g++ {
		for i := 0; i < m; i++ {
			for lane := 0; lane < tri.P(); lane++ {
				tri.Set(g*tri.P()+lane, i, i, 4, 0)
			}
		}
	}
	rhs := randCompact(rng, count, m, 3)
	wantRHS := rhs.Clone()
	trsmDesc := OpDesc{Kind: OpTRSM, Alpha: 1, Workers: 1}
	if err := ref.Run(context.Background(), one(trsmDesc, op32(tri), op32(wantRHS)), Call{}); err != nil {
		t.Fatal(err)
	}
	ftrsm, err := e.Submit(ctx, one(trsmDesc, op32(tri), op32(rhs)), Call{})
	if err != nil {
		t.Fatal(err)
	}

	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if err := futs[i].Err(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ftrsm.Err(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < N; i++ {
		for j := range cs[i].Data {
			if cs[i].Data[j] != want[i].Data[j] {
				t.Fatalf("request %d diverges from serial direct call at element %d: %g != %g",
					i, j, cs[i].Data[j], want[i].Data[j])
			}
		}
	}
	for j := range rhs.Data {
		if rhs.Data[j] != wantRHS.Data[j] {
			t.Fatalf("TRSM straggler diverges at %d", j)
		}
	}

	s := e.Stats().Queue
	// f0, each of the N GEMMs and the TRSM straggler.
	if s.Dispatches != N+2 {
		t.Errorf("dispatches = %d, want %d (one per queued request)", s.Dispatches, N+2)
	}
	if s.Coalesced != 0 || s.MaxFused != 0 {
		t.Errorf("coalesced = %d, max fused = %d, want 0/0", s.Coalesced, s.MaxFused)
	}
	if s.Submitted != s.Inline+s.Dispatches+s.Cancelled {
		t.Errorf("submitted %d != inline %d + dispatches %d + cancelled %d",
			s.Submitted, s.Inline, s.Dispatches, s.Cancelled)
	}
}

// TestAsyncValidationError: a malformed request resolves its future
// with the typed validation error.
func TestAsyncValidationError(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(57))
	a := randCompact(rng, 8, 4, 4)
	b := randCompact(rng, 8, 5, 4) // K mismatch
	c := randCompact(rng, 8, 4, 4)
	fut, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Err(); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

// TestAsyncFutureWaitHonorsContext: Wait unblocks on its own context
// even while the request is still queued.
func TestAsyncFutureWaitHonorsContext(t *testing.T) {
	e := New(core.DefaultTuning())
	_, gate := holdDispatcher(e)
	defer close(gate)
	rng := rand.New(rand.NewSource(58))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	fut, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := fut.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
}

// TestAsyncFactorValidation: factorization stages speak the same
// taxonomy as the level-3 ops.
func TestAsyncFactorValidation(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(59))
	ctx := context.Background()

	if err := e.Run(ctx, one(OpDesc{Kind: OpLU}, Operand{}), Call{}); !errors.Is(err, ErrOperand) {
		t.Errorf("nil operand: err = %v, want ErrOperand", err)
	}
	rect := randCompact(rng, 4, 3, 5)
	if err := e.Run(ctx, one(OpDesc{Kind: OpLU}, op32(rect)), Call{}); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
	lupiv := one(OpDesc{Kind: OpLUPiv}, op32(rect))
	lupiv[0].Piv = new(core.Pivots)
	if err := e.Run(ctx, lupiv, Call{}); !errors.Is(err, ErrShape) {
		t.Errorf("pivoted non-square: err = %v, want ErrShape", err)
	}
	if err := e.Run(ctx, one(OpDesc{Kind: OpGEMM}, op32(rect)), Call{}); !errors.Is(err, ErrOperand) {
		t.Errorf("GEMM with one operand: err = %v, want ErrOperand", err)
	}

	// A well-formed factor call moves the plan-cache and obs counters.
	// Boost the diagonals so the unpivoted LU is well-conditioned.
	sq := randCompact(rng, 6, 4, 4)
	for m := 0; m < sq.Count; m++ {
		for i := 0; i < 4; i++ {
			re, _ := sq.At(m, i, i)
			sq.Set(m, i, i, re+8, 0)
		}
	}
	before := e.Stats()
	for i := 0; i < 2; i++ {
		if err := e.Run(ctx, one(OpDesc{Kind: OpLU, Workers: 1}, op32(sq)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.PlanMisses != before.PlanMisses+1 || after.PlanHits != before.PlanHits+1 {
		t.Errorf("factor plan cache: misses %d->%d hits %d->%d, want +1/+1",
			before.PlanMisses, after.PlanMisses, before.PlanHits, after.PlanHits)
	}
	found := false
	for _, sh := range after.Shapes {
		if sh.Op == "LU" && sh.M == 4 && sh.Calls == 2 {
			found = true
		}
	}
	if !found {
		t.Error("factor calls missing from the per-shape series")
	}
}

// edfOrderTrial drains one held batch of four requests — submitted
// loose-deadline first, tight-deadline last, with two no-deadline
// requests of different priority between them — and returns the order
// the dispatcher executed them in. Span sinks record the order: they run
// synchronously on the dispatcher goroutine as each request resolves.
// Results are checked bit-exact against a serial reference engine
// regardless of ordering mode.
func edfOrderTrial(t *testing.T, edf bool) []string {
	t.Helper()
	e := newEngine(core.DefaultTuning(), QueueConfig{FIFO: !edf})
	ref := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(90))
	ctx := context.Background()

	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	var got []string
	subs := []struct {
		name string
		k    int // inner dim
		dl   time.Duration
		prio int
	}{
		{"loose", 3, time.Minute, 0},
		{"hi", 5, 0, 5},
		{"lo", 6, 0, 0},
		{"tight", 7, 10 * time.Second, 0},
	}
	futs := make([]*Future, len(subs))
	cs := make([]*layout.Compact[float32], len(subs))
	want := make([]*layout.Compact[float32], len(subs))
	for i, s := range subs {
		a, b, c := gemmReqOperands(rng, 9, 4, 4, s.k)
		cs[i] = c
		want[i] = c.Clone()
		desc := OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}
		if err := ref.Run(context.Background(), one(desc, op32(a), op32(b), op32(want[i])), Call{}); err != nil {
			t.Fatal(err)
		}
		sctx := ctx
		if s.dl > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithDeadline(ctx, time.Now().Add(s.dl))
			defer cancel()
		}
		name := s.name
		sink := obs.SpanFunc(func(sp *obs.Span) { got = append(got, name) })
		if futs[i], err = e.Submit(sctx, one(desc, op32(a), op32(b), op32(c)), Call{Sink: sink, Priority: s.prio}); err != nil {
			t.Fatal(err)
		}
	}

	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("%s: %v", subs[i].name, err)
		}
	}
	for i := range subs {
		for j := range cs[i].Data {
			if cs[i].Data[j] != want[i].Data[j] {
				t.Fatalf("%s diverges from serial reference at element %d", subs[i].name, j)
			}
		}
	}
	return got
}

// TestAsyncEDFOrdering: within one drained batch, the tight-deadline
// request executes first even though it was submitted last;
// deadline-less requests follow the deadline-carrying ones, higher
// priority class first. With EDF off the same traffic executes in
// arrival order.
func TestAsyncEDFOrdering(t *testing.T) {
	edfWant := []string{"tight", "loose", "hi", "lo"}
	if got := edfOrderTrial(t, true); !equalStrings(got, edfWant) {
		t.Fatalf("EDF order = %v, want %v", got, edfWant)
	}
	fifoWant := []string{"loose", "hi", "lo", "tight"}
	if got := edfOrderTrial(t, false); !equalStrings(got, fifoWant) {
		t.Fatalf("FIFO order = %v, want %v", got, fifoWant)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAsyncExpiryBeforeExec: a request whose context dies after the
// dequeue check — here, while an earlier request of its drained batch
// runs — resolves with ctx.Err() at the check just before it would
// execute, counts as Cancelled and leaves its operands untouched; the
// survivors run and stay bit-identical to a serial reference. A batch
// that is dead at the dequeue check resolves without executing.
func TestAsyncExpiryBeforeExec(t *testing.T) {
	e := New(core.DefaultTuning())
	ref := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(91))
	bg := context.Background()

	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(bg, one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Request 0 runs first (no deadlines, equal priority: arrival order);
	// its span sink cancels requests 1 and 3, which are still alive at
	// the dequeue check.
	const N = 5
	dead := map[int]bool{1: true, 3: true}
	cancels := make([]context.CancelFunc, N)
	futs := make([]*Future, N)
	cs := make([]*layout.Compact[float32], N)
	want := make([]*layout.Compact[float32], N)
	for i := 0; i < N; i++ {
		a, b, c := gemmReqOperands(rng, 13, 4, 4, 4)
		cs[i], want[i] = c, c.Clone() // survivors: overwritten by the reference run below
		if !dead[i] {
			if err := ref.Run(bg, one(asyncGEMMDesc, op32(a), op32(b), op32(want[i])), Call{}); err != nil {
				t.Fatal(err)
			}
		}
		var ctx context.Context
		ctx, cancels[i] = context.WithCancel(bg)
		defer cancels[i]()
		var call Call
		if i == 0 {
			call.Sink = func(*obs.Span) {
				for j := range dead {
					cancels[j]()
				}
			}
		}
		if futs[i], err = e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), call); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	if n := <-entered; n != N {
		t.Fatalf("drained a batch of %d, want %d", n, N)
	}
	for i := 0; i < N; i++ {
		err := futs[i].Err()
		if dead[i] {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("request %d: err = %v, want context.Canceled", i, err)
			}
		} else if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		// Dead requests keep their original contents; survivors must match
		// the serial reference bit for bit.
		if !slices.Equal(cs[i].Data, want[i].Data) {
			t.Fatalf("request %d (dead=%v) diverges from its reference", i, dead[i])
		}
	}
	s := e.Stats().Queue
	if s.Cancelled != 2 || s.Dispatches != 1+N-2 {
		t.Errorf("cancelled = %d, dispatches = %d, want 2 and %d (the occupier and the survivors)",
			s.Cancelled, s.Dispatches, 1+N-2)
	}

	// A batch dead at the dequeue check resolves every request without
	// executing.
	r2 := make([]*asyncReq, 2)
	for i := range r2 {
		a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
		cctx, cancel := context.WithCancel(bg)
		cancel()
		r2[i] = &asyncReq{ctx: cctx, stages: one(asyncGEMMDesc, op32(a), op32(b), op32(c)), fut: newFuture(), enq: time.Now()}
	}
	e.runBatch(slices.Clone(r2))
	for i := range r2 {
		if err := r2[i].fut.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("dead-batch request %d: err = %v", i, err)
		}
	}
	if s = e.Stats().Queue; s.Dispatches != 1+N-2 || s.Cancelled != 4 {
		t.Errorf("after the dead batch: dispatches=%d cancelled=%d, want %d/4", s.Dispatches, s.Cancelled, 1+N-2)
	}
}

// TestAsyncWindowBatching: with a max-batch-window set, requests that
// arrive while the dispatcher holds the drain open land in the same
// drained batch — the mechanism that makes the EDF pass effective for
// bursts. Verified through the batch size the test hook receives rather
// than timing: the submissions after release join the pre-release half.
func TestAsyncWindowBatching(t *testing.T) {
	e := newEngine(core.DefaultTuning(), QueueConfig{Window: 50 * time.Millisecond})
	rng := rand.New(rand.NewSource(92))
	ctx := context.Background()

	// Occupy the inline fast path briefly: first submission executes
	// inline, the rest queue while its window... no — inline path skips
	// the window. Force queue traffic by marking the queue busy, then
	// release it by submitting through the dispatcher.
	entered, gate := holdDispatcher(e)
	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	const N = 6
	const count, m, n, k = 10, 5, 4, 6
	desc := OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}
	futs := make([]*Future, N)
	// Submit half before releasing the dispatcher; the other half race
	// into the open window right after release.
	for i := 0; i < N/2; i++ {
		a, b, c := gemmReqOperands(rng, count, m, n, k)
		if futs[i], err = e.Submit(ctx, one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for i := N / 2; i < N; i++ {
		a, b, c := gemmReqOperands(rng, count, m, n, k)
		if futs[i], err = e.Submit(ctx, one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < N; i++ {
		if err := futs[i].Err(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	// With the 50ms window all N almost always land in one batch; the
	// assertion only requires that the batch grew across the release
	// boundary (more than the pre-release half).
	if got := <-entered; got <= N/2 {
		t.Errorf("drained a batch of %d, want > %d (window must extend the batch)", got, N/2)
	}
	s := e.Stats().Queue
	if s.Dispatches+s.Inline != N+1 || s.Coalesced != 0 {
		t.Errorf("dispatches %d + inline %d, coalesced %d; want %d and 0", s.Dispatches, s.Inline, s.Coalesced, N+1)
	}
	if got := s.Window; got != 50*time.Millisecond {
		t.Errorf("QueueStats.Window = %v, want 50ms", got)
	}
	if !s.EDF {
		t.Errorf("QueueStats.EDF = false, want true (default)")
	}
}
