package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// triDiagBoost makes a random square batch well conditioned for
// triangular solves by adding `boost` to every diagonal element.
func triDiagBoost(c *layout.Compact[float32], n int, boost float32) {
	for m := 0; m < c.Count; m++ {
		for i := 0; i < n; i++ {
			g, off := m/c.P(), m%c.P()
			base := g * c.GroupLen()
			idx := base + (i*n+i)*c.BlockLen() + off
			c.Data[idx] += boost
		}
	}
}

func chainTriOperands(rng *rand.Rand, count, n, cols int) (a, b *layout.Compact[float32]) {
	a = randCompact(rng, count, n, n)
	triDiagBoost(a, n, float32(n))
	b = randCompact(rng, count, n, cols)
	return a, b
}

// triChain builds TRMM(Left,Upper) then TRSM(Left,Upper) over a and the
// same B.
func triChain(a, b *layout.Compact[float32]) []ChainStage {
	trmm := OpDesc{Kind: OpTRMM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 1, Workers: 1}
	trsm := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 1, Workers: 1}
	return []ChainStage{
		{Op: trmm, Ops: [3]Operand{op32(a), op32(b)}, NOps: 2},
		{Op: trsm, Ops: [3]Operand{op32(a), op32(b)}, NOps: 2},
	}
}

// countdownCtx cancels itself after Err has been consulted n times —
// the harness for mid-chain cancellation: the chain's per-stage check
// passes for the first stages and fires partway through.
type countdownCtx struct {
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestChainCancelMidChain cancels between stage 0 and stage 1 of a
// triangular chain over one B: afterwards B must equal exactly the
// serial prefix (stage 0 applied, stage 1 not).
func TestChainCancelMidChain(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(90))
	a, b := chainTriOperands(rng, 7, 8, 4)
	ref := b.Clone()
	// Serial prefix: only the TRMM.
	trmm := OpDesc{Kind: OpTRMM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 1, Workers: 1}
	if err := e.Run(context.Background(), one(trmm, op32(a), op32(ref)), Call{}); err != nil {
		t.Fatal(err)
	}

	// One Err pass admits stage 0; the stage-1 check sees the cancel.
	err := e.Run(&countdownCtx{left: 1}, triChain(a, b), Call{Chain: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 {
		t.Fatalf("want ChainError at stage 1, got %v", err)
	}
	if !slices.Equal(b.Data, ref.Data) {
		t.Fatal("B does not hold the completed prefix")
	}
	// The engine stays healthy: the same chain runs to completion now.
	if err := e.Run(context.Background(), triChain(a, b), Call{Chain: true}); err != nil {
		t.Fatal(err)
	}
}

// TestChainAsyncQueued holds the dispatcher, enqueues three identical
// chains and verifies each runs on its own — one dispatch and one chain
// run apiece, nothing coalesced — and bit-identical to a serial chain.
func TestChainAsyncQueued(t *testing.T) {
	e := New(core.DefaultTuning())
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()

	// Decoy parks the dispatcher inside the hook.
	a0, b0 := chainTriOperands(rng, 7, 8, 4)
	f0, err := e.Submit(ctx, triChain(a0, b0), Call{Chain: true})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Reference: one chain executed synchronously on a sibling engine.
	eRef := New(core.DefaultTuning())
	a, _ := chainTriOperands(rng, 7, 8, 4)
	bSeed := randCompact(rng, 7, 8, 4)
	ref := bSeed.Clone()
	if err := eRef.Run(ctx, triChain(a, ref), Call{Chain: true}); err != nil {
		t.Fatal(err)
	}

	const queued = 3
	var futs []*Future
	var bs []*layout.Compact[float32]
	for i := 0; i < queued; i++ {
		b := bSeed.Clone()
		f, err := e.Submit(ctx, triChain(a, b), Call{Chain: true})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
		bs = append(bs, b)
	}
	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if !slices.Equal(bs[i].Data, ref.Data) {
			t.Fatalf("chain %d diverged from the serial chain", i)
		}
	}
	s := e.Stats()
	if s.Queue.Dispatches != 1+queued || s.Queue.Coalesced != 0 {
		t.Errorf("dispatches = %d, coalesced = %d, want %d and 0", s.Queue.Dispatches, s.Queue.Coalesced, 1+queued)
	}
	if s.Chain.Runs != 1+queued {
		t.Errorf("chain runs = %d, want %d (decoy + each queued chain)", s.Chain.Runs, 1+queued)
	}
}

// TestChainQueueFull: a full queue rejects a chain Submit with
// ErrQueueFull, and the future-less error path leaves no goroutines or
// counters wedged.
func TestChainQueueFull(t *testing.T) {
	e := newEngine(core.DefaultTuning(), QueueConfig{Capacity: 1})
	entered, gate := holdDispatcher(e)
	defer close(gate)
	rng := rand.New(rand.NewSource(94))
	ctx := context.Background()

	// The first chain parks the dispatcher; the second occupies the slot.
	for i := 0; i < 2; i++ {
		a, b := chainTriOperands(rng, 7, 8, 4)
		if _, err := e.Submit(ctx, triChain(a, b), Call{Chain: true}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
	}
	a2, b2 := chainTriOperands(rng, 7, 8, 4)
	if _, err := e.Submit(ctx, triChain(a2, b2), Call{Chain: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := e.Stats().Queue.Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestChainSetRouting: one chain identity always lands on one shard,
// sync and async, and the routed counters agree.
func TestChainSetRouting(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	rng := rand.New(rand.NewSource(95))
	a, b := chainTriOperands(rng, 7, 8, 4)
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		if err := s.Run(ctx, triChain(a, b), Call{Chain: true}); err != nil {
			t.Fatal(err)
		}
	}
	var runs, shards int
	for i := 0; i < s.Shards(); i++ {
		if r := int(s.engines[i].Stats().Chain.Runs); r > 0 {
			runs += r
			shards++
		}
	}
	if runs != 4 || shards != 1 {
		t.Fatalf("runs=%d on %d shards, want all 4 on one shard", runs, shards)
	}
	fut, err := s.Submit(ctx, triChain(a, b), Call{Chain: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestChainStagesReportAsOps: a chain's stages plan and report as their
// ops. The queue-fused chain (f64 GEMM→TRSM→TRSM, 8×8), run cold and
// then warm on a fresh engine, leaves the per-shape rows and plan-cache
// deltas its stages leave as one-stage lists on another fresh engine —
// no CHAIN row — and counts one chain run that built plans and one that
// built none. A chain whose context dies before its second stage leaves
// a row only for the stage that ran.
func TestChainStagesReportAsOps(t *testing.T) {
	const count, n = 13, 8
	rng := rand.New(rand.NewSource(98))
	base := make([]*layout.Compact[float64], 5) // A, B, C, L, U
	for i := range base {
		base[i] = randCompactT[float64](rng, vec.D, count, n, n)
		if i >= 3 {
			boostDiag(base[i])
		}
	}
	stages := func() ([]ChainStage, *layout.Compact[float64]) {
		o := make([]Operand, len(base))
		for i, b := range base {
			o[i] = opOf(vec.D, b.Clone())
		}
		lo := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Lower, Diag: matrix.Unit, Alpha: 1, Workers: 1}
		up := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Upper, Alpha: 1, Workers: 1}
		return []ChainStage{
			one(OpDesc{Kind: OpGEMM, Alpha: 1, Workers: 1}, o[0], o[1], o[2])[0],
			one(lo, o[3], o[2])[0],
			one(up, o[4], o[2])[0],
		}, o[2].F64
	}
	type record struct {
		shapes []obs.ShapeSnapshot
		plan   [2]uint64 // PlanHits, PlanMisses
	}
	observe := func(e *Engine) record {
		st := e.Stats()
		var r record
		for _, s := range st.Shapes {
			s.P50, s.P99, s.AvgGFLOPS, s.BestGFLOPS = 0, 0, 0, 0 // timing-dependent
			s.PrepackHits, s.PrepackBuilds = 0, 0                // the chain auto-prepacks its inputs
			r.shapes = append(r.shapes, s)
		}
		r.plan = [2]uint64{st.PlanHits, st.PlanMisses}
		return r
	}
	ctx := context.Background()
	tun := core.DefaultTuning()
	chained, serial := New(tun), New(tun)
	var outs [2]*layout.Compact[float64]
	for i := 0; i < 2; i++ {
		st, c := stages()
		if err := chained.Run(ctx, st, Call{}); err != nil {
			t.Fatal(err)
		}
		outs[0] = c
		st, c = stages()
		for j := range st {
			if err := serial.Run(ctx, st[j:j+1], Call{}); err != nil {
				t.Fatal(err)
			}
		}
		outs[1] = c
	}
	if !sameBits(outs[0].Data, outs[1].Data) {
		t.Error("the chain's C is not bit-identical to its stages run one by one")
	}
	got, want := observe(chained), observe(serial)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chain record differs from its stages run as ops\n got %+v\nwant %+v", got, want)
	}
	for _, s := range got.shapes {
		if s.Op == "CHAIN" {
			t.Errorf("a chain left a CHAIN row: %+v", s)
		}
	}
	if cs := chained.Stats().Chain; cs != (ChainStats{Runs: 2, PlanHits: 1, PlanMisses: 1}) {
		t.Errorf("chain stats = %+v, want 2 runs, 1 plan miss, 1 plan hit and nothing elided", cs)
	}
	if cs := serial.Stats().Chain; cs != (ChainStats{}) {
		t.Errorf("one-stage lists moved the chain stats: %+v", cs)
	}

	// One Err pass admits stage 0; the stage-1 check sees the cancel.
	cut := New(tun)
	st, _ := stages()
	var ce *ChainError
	if err := cut.Run(&countdownCtx{left: 1}, st, Call{}); !errors.As(err, &ce) || ce.Stage != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("want a cancelled ChainError at stage 1, got %v", err)
	}
	var rows []string
	for _, s := range cut.Stats().Shapes {
		rows = append(rows, s.Op+" "+s.Mode)
	}
	if want := []string{"GEMM NN"}; !reflect.DeepEqual(rows, want) {
		t.Errorf("cancelled chain left rows %q, want %q", rows, want)
	}
}
