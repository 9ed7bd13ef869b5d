package iatf

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestSteadyStateAllocs proves the warm path is plan-construction free:
// after the first call on a shape, repeated calls hit the plan cache (no
// misses) and allocate only a small fixed amount (the plan stack copy and
// pool bookkeeping), independent of batch size.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const count = 1024
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))

	call := func() {
		if err := GEMM(NoTrans, NoTrans, float32(1), a, b, float32(1), c); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm: build + cache the plan

	before := DefaultEngine().Stats()
	allocs := testing.AllocsPerRun(50, call)
	after := DefaultEngine().Stats()

	if after.PlanMisses != before.PlanMisses {
		t.Errorf("warm calls built plans: misses %d -> %d", before.PlanMisses, after.PlanMisses)
	}
	if after.PlanHits <= before.PlanHits {
		t.Errorf("warm calls did not hit the plan cache: hits %d -> %d", before.PlanHits, after.PlanHits)
	}
	// The serial warm path allocates only the pooled packing buffers'
	// bookkeeping and small executor fixtures — a constant, not O(count).
	// Baseline before the engine: 22 allocs and ~45 KB per call.
	if allocs > 12 {
		t.Errorf("warm GEMM allocates %.0f objects/call, want <= 12", allocs)
	}
}

// BenchmarkSteadyStateAllocs measures the warm serial path on the shape
// recorded in EXPERIMENTS.md (f32 8x8x8, count 4096). Before the engine:
// 22 allocs/op, 45224 B/op.
func BenchmarkSteadyStateAllocs(bm *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const count = 4096
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	if err := GEMM(NoTrans, NoTrans, float32(1), a, b, float32(1), c); err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if err := GEMM(NoTrans, NoTrans, float32(1), a, b, float32(1), c); err != nil {
			bm.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateAllocsAuto is the same workload with auto workers
// (the persistent pool splits the batch).
func BenchmarkSteadyStateAllocsAuto(bm *testing.B) {
	rng := rand.New(rand.NewSource(32))
	const count = 4096
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	ctx := context.Background()
	req := gemmReq(NoTrans, NoTrans, float32(1), a, b, float32(1), c)
	opts := []Option{WithWorkers(0)}
	if err := Do(ctx, req, opts...); err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if err := Do(ctx, req, opts...); err != nil {
			bm.Fatal(err)
		}
	}
}

// TestPrepackedSteadyStateAllocs proves the pack-once warm path is
// allocation-free beyond the dispatch fixtures: with both operands
// prepacked and the pack cache warm, a serial call neither packs nor
// touches the buffer pools, leaving only the plan stack copy — the PR 3
// acceptance bound of 2 allocs/call.
func TestPrepackedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const count = 1024
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()
	eng := NewEngine()

	ctx := context.Background()
	req := gemmReq(NoTrans, NoTrans, float32(1), a, b, float32(1), c)
	// A held options slice: spreading it does not allocate, so the
	// measurement sees only the call's own cost.
	opts := []Option{WithEngine(eng)}
	call := func() {
		if err := Do(ctx, req, opts...); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm: build the plan and both packed images

	before := eng.Stats()
	allocs := testing.AllocsPerRun(50, call)
	after := eng.Stats()

	if after.PackCache.Builds != before.PackCache.Builds {
		t.Errorf("warm calls rebuilt packed images: builds %d -> %d",
			before.PackCache.Builds, after.PackCache.Builds)
	}
	if after.PackCache.Hits <= before.PackCache.Hits {
		t.Errorf("warm calls missed the pack cache: hits %d -> %d",
			before.PackCache.Hits, after.PackCache.Hits)
	}
	if allocs > 2 {
		t.Errorf("warm prepacked GEMM allocates %.0f objects/call, want <= 2", allocs)
	}

	// TRSM, TRMM and SYRK keep the same budget on the warm f64 8×8 path
	// (the triangle prepacked, B solved in place): their span and series
	// mode strings come from static tables, never a concatenation.
	tri := Pack(randTriBatch[float64](rng, count, 8))
	tri.Prepack()
	a64 := Pack(randBatch[float64](rng, count, 8, 8))
	b64 := Pack(randBatch[float64](rng, count, 8, 8))
	c64 := Pack(randBatch[float64](rng, count, 8, 8))
	for _, c := range []struct {
		op     string
		req    Request[float64]
		pooled bool // packs into pooled buffers on every call
	}{
		{"TRSM", Request[float64]{Op: OpTRSM, Side: Left, Uplo: Lower, Alpha: 1, A: tri, B: b64}, false},
		{"TRMM", Request[float64]{Op: OpTRMM, Side: Left, Uplo: Upper, TransA: Transpose, Diag: Unit, Alpha: 1, A: tri, B: b64}, false},
		{"SYRK", Request[float64]{Op: OpSYRK, Uplo: Upper, TransA: Transpose, Alpha: 1, Beta: 0, A: a64, C: c64}, true},
	} {
		if c.pooled && raceEnabled {
			continue
		}
		call := func() {
			if err := Do(ctx, c.req, opts...); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if allocs := testing.AllocsPerRun(50, call); allocs > 2 {
			t.Errorf("warm %s allocates %.0f objects/call, want <= 2", c.op, allocs)
		}
	}
}

// TestTenantTracedSteadyStateAllocs proves tenant accounting and trace
// tagging ride the warm path for free: with accounting enabled and the
// request tagged (WithTenant + WithTrace), the forced lifecycle span
// comes from the pool and the ledger records through atomics, so the
// prepacked warm sync Do stays within the same 2-alloc budget as the
// untagged path.
func TestTenantTracedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const count = 1024
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()
	eng := NewEngine()
	eng.SetTenants(map[string]TenantObjective{
		"rt": {Class: 5, Objective: 10 * time.Second, Target: 0.99},
	})

	ctx := context.Background()
	req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
	// Hoisted options: the variadic spread of an existing slice does not
	// allocate, so the measurement sees only the call's own cost.
	opts := []Option{WithEngine(eng), WithTenant("rt"), WithTrace("4bf92f3577b34da6a3ce929d0e0e4736")}
	call := func() {
		if err := Do(ctx, req, opts...); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm: plan, packed images, span pool, tenant series

	before := eng.TenantStats()
	allocs := testing.AllocsPerRun(50, call)
	after := eng.TenantStats()

	if len(before) != 1 || len(after) != 1 || after[0].Requests-before[0].Requests < 50 {
		t.Errorf("tenant ledger did not record the warm calls: %+v -> %+v", before, after)
	}
	if after[0].DeadlineMisses != 0 {
		t.Errorf("warm tagged calls missed their 10s objective: %+v", after[0])
	}
	if allocs > 2 {
		t.Errorf("warm tagged GEMM allocates %.0f objects/call, want <= 2", allocs)
	}
}

// BenchmarkPrepackedSteadyState is BenchmarkSteadyStateAllocs with both
// operands prepacked: the pack phase is gone, only dispatch + kernels
// remain.
func BenchmarkPrepackedSteadyState(bm *testing.B) {
	rng := rand.New(rand.NewSource(34))
	const count = 4096
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	c := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()
	ctx := context.Background()
	req := gemmReq(NoTrans, NoTrans, float32(1), a, b, float32(1), c)
	opts := []Option{WithEngine(NewEngine())}
	if err := Do(ctx, req, opts...); err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if err := Do(ctx, req, opts...); err != nil {
			bm.Fatal(err)
		}
	}
}
