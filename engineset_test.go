package iatf

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
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

// scrape renders one OpenMetrics scrape of e.
func scrape(t *testing.T, e *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// tenantWorkload runs one tenant-tagged GEMM per shape n×n×n, n in ns,
// on e.
func tenantWorkload(t *testing.T, e *Engine, ns ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	for _, n := range ns {
		a := Pack(randBatch[float32](rng, 8, n, n))
		b := Pack(randBatch[float32](rng, 8, n, n))
		c := Pack(randBatch[float32](rng, 8, n, n))
		req := Request[float32]{Op: OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
		if err := Do(context.Background(), req, WithEngine(e), WithTenant("rt")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetOfOneIsSoloEngine: NewEngine is a set of one shard, and
// NewEngineSet(1) is exactly that engine — no shard label anywhere, no
// set-level families, shape and tenant series unattached to a shard.
func TestSetOfOneIsSoloEngine(t *testing.T) {
	for name, e := range map[string]*Engine{
		"NewEngine":       NewEngine(),
		"NewEngineSet(1)": NewEngineSet(1).Engine,
	} {
		e.SetTenants(map[string]TenantObjective{"rt": {Class: 1}})
		tenantWorkload(t, e, 4, 5)
		out := scrape(t, e)
		if strings.Contains(out, "shard=") || strings.Contains(out, "iatf_set_") {
			t.Errorf("%s: scrape carries shard labels or set families", name)
		}
		st := e.Stats()
		if len(st.Shapes) != 2 {
			t.Fatalf("%s: %d shapes, want 2", name, len(st.Shapes))
		}
		for _, sh := range st.Shapes {
			if sh.Shard != -1 {
				t.Errorf("%s: shape %+v carries shard %d, want -1", name, sh.ShapeKey, sh.Shard)
			}
		}
		ts := e.TenantStats()
		if len(ts) != 1 || ts[0].Shard != -1 || ts[0].Requests != 2 {
			t.Errorf("%s: tenant series %+v, want one unattached rt series with 2 requests", name, ts)
		}
	}
}

// TestEngineSetMethodsReachEveryShard: on a two-shard set the scrape is
// per-shard plus aggregate, and a span sink and tenant table installed
// once on the set serve requests homed on either shard.
func TestEngineSetMethodsReachEveryShard(t *testing.T) {
	set := NewEngineSet(2)
	ring := NewSpanRing(64)
	set.SetSpanSink(ring.Add)
	set.SetTenants(map[string]TenantObjective{"rt": {Class: 1}})
	set.SetProfileLabels(true)
	defer set.SetProfileLabels(false)
	// Square f32 GEMMs of order 5, 8 and 9 home on shard 0, 4, 6 and 7
	// on shard 1.
	tenantWorkload(t, set.Engine, 4, 5, 6, 7, 8, 9)

	spanned := map[[3]int]int{}
	for _, sp := range ring.Spans(0) {
		spanned[[3]int{sp.M, sp.N, sp.K}]++
	}
	st := set.Stats()
	for _, sh := range st.Shards {
		if sh.Routed == 0 {
			t.Fatalf("shard %d homed no request; pick shapes that spread", sh.Shard)
		}
		for _, s := range sh.Shapes {
			if spanned[[3]int{s.M, s.N, s.K}] != int(s.Calls) {
				t.Errorf("shard %d: shape %+v ran %d calls but the set's sink saw %d spans",
					sh.Shard, s.ShapeKey, s.Calls, spanned[[3]int{s.M, s.N, s.K}])
			}
		}
		if len(sh.Tenants) != 1 || sh.Tenants[0].Requests != sh.Routed || sh.Tenants[0].Shard != sh.Shard {
			t.Errorf("shard %d: tenant series %+v, want rt with %d requests", sh.Shard, sh.Tenants, sh.Routed)
		}
	}
	if ring.Total() != 6 {
		t.Errorf("sink saw %d spans, want 6", ring.Total())
	}
	out := scrape(t, set.Engine)
	for _, want := range []string{`shard="0"`, `shard="1"`, "iatf_set_shards 2", "iatf_set_routed"} {
		if !strings.Contains(out, want) {
			t.Errorf("two-shard scrape lacks %s", want)
		}
	}
}
