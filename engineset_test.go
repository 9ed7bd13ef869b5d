package iatf

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestEngineSetRouting: a Do routed through a set lands repeatably on
// one shard (the identity's home) and the set surface produces working
// results and per-shard stats.
func TestEngineSetRouting(t *testing.T) {
	set := NewEngineSet(2)
	rng := rand.New(rand.NewSource(40))
	const count = 32
	a := Pack(randBatch[float32](rng, count, 6, 6))
	b := Pack(randBatch[float32](rng, count, 6, 6))
	c := Pack(randBatch[float32](rng, count, 6, 6))
	want := c.Clone()
	if err := GEMM(NoTrans, NoTrans, float32(1), a, b, float32(1), want); err != nil {
		t.Fatal(err)
	}

	req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
	const calls = 5
	for i := 0; i < calls; i++ {
		if err := Do(context.Background(), req, WithEngineSet(set)); err != nil {
			t.Fatal(err)
		}
	}
	st := set.Stats()
	homes := 0
	for _, sh := range st.Shards {
		if sh.Routed == calls {
			homes++
		} else if sh.Routed != 0 {
			t.Errorf("shard %d routed %d of %d calls — identity split across shards", sh.Shard, sh.Routed, calls)
		}
	}
	if homes != 1 {
		t.Errorf("identity has %d home shards, want exactly 1: %+v", homes, st.Shards)
	}
	if st.Aggregate.PlanMisses != 1 {
		t.Errorf("aggregate plan misses = %d, want 1 (one identity, one home)", st.Aggregate.PlanMisses)
	}
}

// TestEngineSetSteadyStateAllocs enforces the sharded warm sync path's
// allocation budget: routing a prepacked warm call through an EngineSet
// must cost the same ≤2 allocations as the solo-engine path — the
// route-hash and shard pick are plain arithmetic.
func TestEngineSetSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const count = 1024
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()
	set := NewEngineSet(2)
	ctx := context.Background()
	req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}

	// Start every shard's dispatcher (and its steal poller) first: the
	// budget must hold in the real serving configuration, where the
	// background pollers are live and must themselves be allocation-free.
	if err := Do(ctx, req, WithEngineSet(set), WithAsync()); err != nil {
		t.Fatal(err)
	}
	// The future resolves before the dispatcher finishes its post-batch
	// bookkeeping; give that one-time tail a moment so it cannot leak
	// into the measured window.
	time.Sleep(5 * time.Millisecond)

	// Options are plain values: building the slice once and reusing it
	// keeps the measured path free of the per-call variadic allocation,
	// the same way a serving loop would hold its options.
	opts := []Option{WithEngineSet(set)}
	call := func() {
		if err := Do(ctx, req, opts...); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm: plan + packed images on the home shard

	before := set.Stats()
	allocs := testing.AllocsPerRun(50, call)
	if allocs > 2 {
		// One retry: the live steal pollers allocate nothing in steady
		// state, but a stray background one-time cost (GC, poller timer)
		// can pollute a single window.
		allocs = testing.AllocsPerRun(50, call)
	}
	after := set.Stats()

	if after.Aggregate.PackCache.Builds != before.Aggregate.PackCache.Builds {
		t.Errorf("warm set calls rebuilt packed images: %d -> %d",
			before.Aggregate.PackCache.Builds, after.Aggregate.PackCache.Builds)
	}
	if after.Aggregate.PlanMisses != before.Aggregate.PlanMisses {
		t.Errorf("warm set calls built plans: misses %d -> %d",
			before.Aggregate.PlanMisses, after.Aggregate.PlanMisses)
	}
	if allocs > 2 {
		t.Errorf("warm sharded GEMM allocates %.0f objects/call, want <= 2", allocs)
	}
}
