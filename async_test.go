package iatf

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAsyncDoParity drives 8 concurrent submitters through
// Do(..., WithAsync()) on one problem shape until some requests
// genuinely queued (Stats.Queue.Dispatches > 0), then proves every
// result is bit-identical to the serial direct call and the queue
// counters balance: each queued request ran on its own. Each submitter
// owns private operands, so parity is exact equality, not tolerance.
// Beta is 0, making each request idempotent: retry rounds (queueing
// needs genuine scheduling overlap) never move the expected values.
func TestAsyncDoParity(t *testing.T) {
	// On a single-CPU box goroutines serialize and every submission takes
	// the idle inline path; extra Ps make the submitters' OS threads
	// interleave so requests genuinely overlap in the queue.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	rng := rand.New(rand.NewSource(70))
	const (
		submitters = 8
		iters      = 16
		count      = 512
		n          = 8
	)
	eng := NewEngine()

	type lane struct {
		a, b, c *Compact[float32]
		want    *Compact[float32]
	}
	lanes := make([]lane, submitters)
	for i := range lanes {
		a := Pack(randBatch[float32](rng, count, n, n))
		b := Pack(randBatch[float32](rng, count, n, n))
		c := Pack(randBatch[float32](rng, count, n, n))
		want := c.Clone()
		if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, float32(1), a, b, float32(0), want), WithEngine(NewEngine())); err != nil {
			t.Fatal(err)
		}
		lanes[i] = lane{a: a, b: b, c: c, want: want}
	}

	// Retry rounds until concurrency actually queued a request — that
	// depends on scheduling, so assert over attempts, not one.
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		errs := make([]error, submitters)
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := Request[float32]{
					Op: OpGEMM, Alpha: 1, Beta: 0,
					A: lanes[i].a, B: lanes[i].b, C: lanes[i].c,
				}
				<-start
				for k := 0; k < iters; k++ {
					if err := Do(context.Background(), req, WithEngine(eng), WithAsync()); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("submitter %d: %v", i, err)
			}
		}
		if eng.Stats().Queue.Dispatches > 0 {
			break
		}
		if round >= 100 {
			t.Fatal("no queued request after 100 rounds of 8 concurrent submitters")
		}
	}

	for i := range lanes {
		got, want := lanes[i].c.Unpack(), lanes[i].want.Unpack()
		for j := range got.Data() {
			if got.Data()[j] != want.Data()[j] {
				t.Fatalf("submitter %d: queued result diverges from serial at element %d: %g != %g",
					i, j, got.Data()[j], want.Data()[j])
			}
		}
	}

	s := eng.Stats().Queue
	t.Logf("queue: submitted=%d inline=%d dispatches=%d cancelled=%d",
		s.Submitted, s.Inline, s.Dispatches, s.Cancelled)
	if s.Submitted != s.Inline+s.Dispatches+s.Cancelled || s.Coalesced != 0 || s.MaxFused != 0 {
		t.Errorf("submitted %d != inline %d + dispatches %d + cancelled %d, or coalesced %d / max fused %d not 0",
			s.Submitted, s.Inline, s.Dispatches, s.Cancelled, s.Coalesced, s.MaxFused)
	}
}

// TestAsyncDoHonorsContext: Do with a cancelled context returns ctx.Err()
// without executing, in both the sync and async forms.
func TestAsyncDoHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := Pack(randBatch[float32](rng, 32, 4, 4))
	b := Pack(randBatch[float32](rng, 32, 4, 4))
	c := Pack(randBatch[float32](rng, 32, 4, 4))
	before := append([]float32(nil), c.Unpack().Data()...)
	req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Do(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("sync Do: err = %v, want context.Canceled", err)
	}
	if err := Do(ctx, req, WithAsync()); !errors.Is(err, context.Canceled) {
		t.Errorf("async Do: err = %v, want context.Canceled", err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), -time.Second)
	defer tcancel()
	if err := Do(tctx, req, WithAsync()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	after := c.Unpack().Data()
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("cancelled Do executed: C[%d] changed", i)
		}
	}
}

// TestAsyncSubmitFuture: the public Submit/Future round trip, including
// queue-full surfacing through the public wrapper.
func TestAsyncSubmitFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	eng := NewEngine()
	a := Pack(randBatch[float64](rng, 64, 5, 5))
	b := Pack(randBatch[float64](rng, 64, 5, 5))
	c := Pack(randBatch[float64](rng, 64, 5, 5))
	want := c.Clone()
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 2.0, a, b, 1.0, want), WithEngine(NewEngine())); err != nil {
		t.Fatal(err)
	}

	fut, err := Submit(context.Background(), Request[float64]{
		Op: OpGEMM, Alpha: 2, Beta: 1, A: a, B: b, C: c,
	}, WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	default:
		t.Error("Done not closed after Wait returned")
	}
	got, ref := c.Unpack().Data(), want.Unpack().Data()
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("Submit result diverges at %d", i)
		}
	}

	// Malformed request fails at submission, not at resolution.
	if _, err := Submit(context.Background(), Request[float64]{Op: Op(99)}); !errors.Is(err, ErrOperand) {
		t.Errorf("unknown op: err = %v, want ErrOperand", err)
	}
}

// TestAsyncWarmDoAllocs pins the acceptance bound: the warm synchronous
// Do path on prepacked operands costs at most 2 allocations per call —
// the same as the classic entry points it replaces.
func TestAsyncWarmDoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const count = 1024
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()
	eng := NewEngine()
	ctx := context.Background()
	req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}

	call := func() {
		if err := Do(ctx, req, WithEngine(eng)); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm: plan + packed images

	allocs := testing.AllocsPerRun(50, call)
	if allocs > 2 {
		t.Errorf("warm Do allocates %.0f objects/call, want <= 2", allocs)
	}
}
