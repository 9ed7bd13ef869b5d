package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// soakReq is one drawn request of TestAsyncQueueSoak: its operands, an
// untouched copy of them for the serial reference, the stage list over
// any operand set, and how its context ends.
type soakReq struct {
	ops, orig []Operand
	build     func(o []Operand) []ChainStage
	tight     time.Duration // > 0: a deadline this far after Submit
	cancel    bool          // cancelled right after Submit
	wait      bool          // the submitter waits for its burst after this request

	fut    *Future
	subErr error
	spans  atomic.Int32 // spans finished for the request
}

func cloneOperands(ops []Operand) []Operand {
	out := make([]Operand, len(ops))
	for i, o := range ops {
		out[i] = Operand{DT: o.DT}
		if o.F32 != nil {
			out[i].F32 = o.F32.Clone()
		} else {
			out[i].F64 = o.F64.Clone()
		}
	}
	return out
}

func sameOperand(a, b Operand) bool {
	if a.F32 != nil {
		return sameBits(a.F32.Data, b.F32.Data)
	}
	return sameBits(a.F64.Data, b.F64.Data)
}

// drawSoakReq draws an f32 GEMM, an f64 TRSM or the f64 GEMM→TRSM→TRSM
// chain at small orders and counts, and whether its context is tight or
// cancelled.
func drawSoakReq(rng *rand.Rand) *soakReq {
	r := &soakReq{}
	count := 1 + rng.Intn(24)
	switch rng.Intn(3) {
	case 0:
		m, n, k := 2+rng.Intn(7), 2+rng.Intn(7), 2+rng.Intn(7)
		r.ops = []Operand{op32(randCompact(rng, count, m, k)), op32(randCompact(rng, count, k, n)), op32(randCompact(rng, count, m, n))}
		desc := OpDesc{Kind: OpGEMM, Alpha: 1.5, Beta: -0.5, Workers: 1}
		r.build = func(o []Operand) []ChainStage { return one(desc, o[0], o[1], o[2]) }
	case 1:
		n := 2 + rng.Intn(7)
		a := randCompactT[float64](rng, vec.D, count, n, n)
		boostDiag(a)
		r.ops = []Operand{opOf(vec.D, a), opOf(vec.D, randCompactT[float64](rng, vec.D, count, n, 1+rng.Intn(6)))}
		desc := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 2, Workers: 1}
		r.build = func(o []Operand) []ChainStage { return one(desc, o[0], o[1]) }
	default:
		n := 3 + rng.Intn(6)
		for i := 0; i < 5; i++ { // A, B, C, L, U
			c := randCompactT[float64](rng, vec.D, count, n, n)
			if i >= 3 {
				boostDiag(c)
			}
			r.ops = append(r.ops, opOf(vec.D, c))
		}
		gemm := OpDesc{Kind: OpGEMM, Alpha: 1, Workers: 1}
		lo := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Lower, Diag: matrix.Unit, Alpha: 1, Workers: 1}
		up := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 1, Workers: 1}
		r.build = func(o []Operand) []ChainStage {
			return []ChainStage{one(gemm, o[0], o[1], o[2])[0], one(lo, o[3], o[2])[0], one(up, o[4], o[2])[0]}
		}
	}
	r.orig = cloneOperands(r.ops)
	r.wait = rng.Intn(4) == 0
	switch rng.Intn(8) {
	case 0:
		r.tight = time.Duration(1+rng.Intn(300)) * time.Microsecond
	case 1:
		r.cancel = true
	}
	return r
}

// TestAsyncQueueSoak runs seeded concurrent load through a two-shard set
// whose queues hold four requests: up to 16 goroutines each submit
// bursts of GEMMs, TRSMs and three-stage chains, waiting for each burst
// before the next, some with deadlines already tight and some cancelled
// right after Submit, so the inline path, queue-full fallback,
// rejection, cancellation in the queue and stealing all run. At
// quiescence every request resolved exactly once, the queue counters
// balance, no pooled buffer leaked, no finished span's phases sum past
// its end-to-end time and every request that succeeded is bit-identical
// to a serial Run.
func TestAsyncQueueSoak(t *testing.T) {
	tun := core.DefaultTuning()
	set := NewSet(tun, 2, QueueConfig{Capacity: 4})
	rng := rand.New(rand.NewSource(28028))
	const perGoroutine = 40
	reqs := make([][]*soakReq, 8+rng.Intn(9))
	for g := range reqs {
		for i := 0; i < perGoroutine; i++ {
			reqs[g] = append(reqs[g], drawSoakReq(rng))
		}
	}

	var overrun atomic.Pointer[obs.Span] // a copy of the first span whose phases exceed its E2E
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, burst := range reqs {
		wg.Add(1)
		go func(burst []*soakReq) {
			defer wg.Done()
			<-start
			from := 0
			for i, r := range burst {
				ctx, cancel := context.WithCancel(context.Background())
				if r.tight > 0 {
					ctx, cancel = context.WithTimeout(context.Background(), r.tight)
				}
				defer cancel() // released once every future of the goroutine resolved
				stages := r.build(r.ops)
				call := Call{Chain: len(stages) > 1, Sink: func(sp *obs.Span) {
					r.spans.Add(1)
					if sp.PhaseTotal() > sp.Duration() {
						cp := *sp // the registry reuses sp once the sink returns
						overrun.CompareAndSwap(nil, &cp)
					}
				}}
				r.fut, r.subErr = set.Submit(ctx, stages, call)
				if r.cancel {
					cancel()
				}
				if r.wait || i == len(burst)-1 {
					for _, w := range burst[from : i+1] {
						if w.fut != nil {
							w.fut.Err()
						}
					}
					from = i + 1
				}
			}
		}(burst)
	}
	close(start)
	wg.Wait()

	ref := New(tun)
	var rejected, succeeded, failed int
	for _, burst := range reqs {
		for _, r := range burst {
			switch {
			case r.subErr == nil:
				select {
				case <-r.fut.Done():
				default:
					t.Fatal("a waited-on future is unresolved")
				}
				if n := r.spans.Load(); n != 1 {
					t.Fatalf("request finished %d spans, want exactly 1", n)
				}
				if r.fut.Err() != nil {
					failed++
					continue
				}
				succeeded++
				want := cloneOperands(r.orig)
				if err := ref.Run(context.Background(), r.build(want), Call{}); err != nil {
					t.Fatalf("serial reference: %v", err)
				}
				for i := range want {
					if !sameOperand(want[i], r.ops[i]) {
						t.Fatalf("operand %d of a succeeded request is not bit-identical to a serial Run", i)
					}
				}
			case errors.Is(r.subErr, ErrQueueFull):
				rejected++
				if r.fut != nil || r.spans.Load() != 1 {
					t.Fatalf("a rejected request has a future or %d spans, want none and 1", r.spans.Load())
				}
			case errors.Is(r.subErr, context.DeadlineExceeded):
				if r.fut != nil || r.spans.Load() != 0 {
					t.Fatalf("a request refused at Submit has a future or %d spans", r.spans.Load())
				}
			default:
				t.Fatalf("Submit: %v", r.subErr)
			}
		}
	}

	if sp := overrun.Load(); sp != nil {
		t.Errorf("%s span: phases sum to %v, past its end-to-end %v (%v)", sp.Op, sp.PhaseTotal(), sp.Duration(), sp.Phases)
	}

	st := set.Stats()
	q := st.Aggregate.Queue
	if q.Submitted != q.Inline+q.Dispatches+q.Cancelled {
		t.Errorf("submitted %d != inline %d + dispatches %d + cancelled %d",
			q.Submitted, q.Inline, q.Dispatches, q.Cancelled)
	}
	if q.Rejected != uint64(rejected) {
		t.Errorf("Rejected = %d, want the %d ErrQueueFull returns", q.Rejected, rejected)
	}
	if q.Coalesced != 0 || q.MaxFused != 0 {
		t.Errorf("coalesced %d, max fused %d, want 0/0", q.Coalesced, q.MaxFused)
	}
	for _, sh := range st.Shards {
		// At quiescence the only checked-out pooled buffers are the packed
		// images the pack cache holds (a chain auto-prepacks its L and U).
		if b := sh.Buffers; b.InUse != int64(sh.PackCache.Entries) || b.DoublePuts != 0 {
			t.Errorf("shard %d: buffers in use %d (pack cache entries %d), double puts %d",
				sh.Shard, b.InUse, sh.PackCache.Entries, b.DoublePuts)
		}
	}
	t.Logf("%d goroutines: %d succeeded, %d failed, %d rejected; inline %d, dispatches %d, cancelled %d, fallbacks %d, stolen %d",
		len(reqs), succeeded, failed, rejected, q.Inline, q.Dispatches, q.Cancelled, st.Fallbacks, q.StolenReqs)
}
