package engine

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/obs"
)

// TestTraceSyncPropagation: a traced sync Run delivers a span carrying
// the request's trace id and origin, and the tags stay out of the plan
// identity (the traced rerun is a plan-cache hit).
func TestTraceSyncPropagation(t *testing.T) {
	e := New(core.DefaultTuning())
	var mu sync.Mutex
	var got []obs.Span
	e.obs.SetSpanSink(func(sp *obs.Span) {
		mu.Lock()
		got = append(got, *sp)
		mu.Unlock()
	})
	rng := rand.New(rand.NewSource(130))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)

	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "aaaabbbb", Origin: "rt"}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("spans = %d, want 2", len(got))
	}
	if got[0].TraceID != "" || got[0].Origin != "" {
		t.Fatalf("untagged span carries trace/origin: %+v", got[0])
	}
	if got[1].TraceID != "aaaabbbb" || got[1].Origin != "rt" {
		t.Fatalf("traced span = trace %q origin %q", got[1].TraceID, got[1].Origin)
	}
	if s := e.Stats(); s.PlanMisses != 1 || s.PlanHits != 1 {
		t.Fatalf("trace tags changed plan identity: hits %d misses %d, want 1/1", s.PlanHits, s.PlanMisses)
	}
}

// TestTenantAccountingPaths drives every resolution class through one
// engine and checks the ledger: objective hits, objective misses, plain
// errors, cancellation misses, and queue-full sheds.
func TestTenantAccountingPaths(t *testing.T) {
	e := New(core.DefaultTuning())
	e.SetTenants(map[string]obs.TenantObjective{
		"hit":  {Class: 1, Objective: 10 * time.Second, Target: 0.99},
		"miss": {Class: 1, Objective: time.Nanosecond, Target: 0.99},
	})
	rng := rand.New(rand.NewSource(132))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)

	// Success within a generous objective → deadline hit.
	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t1", Origin: "hit"}); err != nil {
		t.Fatal(err)
	}
	// Success over an impossible objective → deadline miss.
	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t2", Origin: "miss"}); err != nil {
		t.Fatal(err)
	}
	// Shape error → plain error, not burned.
	bad := randCompact(rng, 8, 5, 5)
	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(bad)), Call{Trace: "t3", Origin: "hit"}); err == nil {
		t.Fatal("mismatched GEMM did not fail")
	}
	// Cancelled while queued → deadline miss.
	entered, gate := holdDispatcher(e)
	f0, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	fut, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t4", Origin: "hit"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	_ = fut.Err()
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	// Admission-control shed (never submitted).
	e.RecordTenantShed("hit")

	byName := map[string]obs.TenantSnapshot{}
	for _, ts := range e.TenantStats() {
		byName[ts.Name] = ts
	}
	hit := byName["hit"]
	if hit.Requests != 4 || hit.DeadlineHits != 1 || hit.DeadlineMisses != 1 ||
		hit.Errors != 1 || hit.Sheds != 1 {
		t.Fatalf("hit series = %+v, want requests 4, hits 1, misses 1, errors 1, sheds 1", hit)
	}
	if hit.Latency.Count != 1 {
		t.Fatalf("hit latency observations = %d, want 1 (only successes observe)", hit.Latency.Count)
	}
	// Window: 2 bad (miss + shed) of 4 → burn = 0.5/0.01 = 50.
	if hit.WindowRequests != 4 || hit.WindowBad != 2 {
		t.Fatalf("hit window = %d/%d, want 4/2", hit.WindowBad, hit.WindowRequests)
	}
	if hit.BurnRate < 49 || hit.BurnRate > 51 {
		t.Fatalf("hit burn rate = %g, want 50", hit.BurnRate)
	}
	miss := byName["miss"]
	if miss.Requests != 1 || miss.DeadlineMisses != 1 || miss.DeadlineHits != 0 {
		t.Fatalf("miss series = %+v, want 1 request, 1 miss", miss)
	}
}

// TestTenantQueueFullShed: a tenant-tagged submission rejected by a full
// queue lands in the ledger as a shed even with no sink installed —
// accounting forces the span.
func TestTenantQueueFullShed(t *testing.T) {
	e := newEngine(core.DefaultTuning(), QueueConfig{Capacity: 1})
	e.SetTenants(map[string]obs.TenantObjective{"rt": {Class: 5, Objective: time.Second, Target: 0.99}})
	rng := rand.New(rand.NewSource(133))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	ctx := context.Background()

	entered, gate := holdDispatcher(e)
	f0, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// Fill the capacity-1 queue, then overflow it with the tagged request.
	f1, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t-full", Origin: "rt"})
	if err == nil {
		t.Fatal("overflow submit did not fail")
	}
	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f1.Err(); err != nil {
		t.Fatal(err)
	}

	ts := e.TenantStats()
	if len(ts) != 1 || ts[0].Name != "rt" {
		t.Fatalf("tenant stats = %+v", ts)
	}
	if ts[0].Requests != 1 || ts[0].Sheds != 1 || ts[0].WindowBad != 1 {
		t.Fatalf("rt series = %+v, want 1 request / 1 shed / 1 window bad", ts[0])
	}
}

// TestTenantSetAggregation: per-shard series merge into one cross-shard
// view — counters sum, histograms merge bucket-wise, burn recomputes
// from the summed window, and shard-affine sheds land somewhere.
func TestTenantSetAggregation(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 3, QueueConfig{})
	s.SetTenants(map[string]obs.TenantObjective{"rt": {Class: 5, Objective: 10 * time.Second, Target: 0.9}})
	rng := rand.New(rand.NewSource(134))

	// Distinct shapes route to distinct shards; all tagged rt.
	shapes := [][3]int{{4, 4, 4}, {6, 5, 7}, {8, 8, 8}, {5, 6, 4}}
	for _, sh := range shapes {
		a, b, c := gemmReqOperands(rng, 8, sh[0], sh[1], sh[2])
		if err := s.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t", Origin: "rt"}); err != nil {
			t.Fatal(err)
		}
	}
	s.RecordTenantShed("rt")

	agg := s.TenantStats()
	if len(agg) != 1 || agg[0].Name != "rt" {
		t.Fatalf("aggregate = %+v", agg)
	}
	rt := agg[0]
	if rt.Shard != -1 {
		t.Fatalf("aggregate shard = %d, want -1", rt.Shard)
	}
	if rt.Requests != uint64(len(shapes))+1 || rt.Sheds != 1 {
		t.Fatalf("aggregate requests/sheds = %d/%d, want %d/1", rt.Requests, rt.Sheds, len(shapes)+1)
	}
	if rt.DeadlineHits != uint64(len(shapes)) {
		t.Fatalf("aggregate hits = %d, want %d", rt.DeadlineHits, len(shapes))
	}
	if rt.Latency.Count != uint64(len(shapes)) {
		t.Fatalf("merged latency count = %d, want %d", rt.Latency.Count, len(shapes))
	}
	if rt.Objective != 10*time.Second || rt.Target != 0.9 || rt.Class != 5 {
		t.Fatalf("aggregate objective lost: %+v", rt)
	}
	// 1 bad of 5 over a 0.1 budget → burn 2.
	if rt.BurnRate < 1.9 || rt.BurnRate > 2.1 {
		t.Fatalf("aggregate burn = %g, want 2", rt.BurnRate)
	}

	// The per-shard view in Stats() carries real shard indices.
	st := s.Stats()
	if len(st.Aggregate.Tenants) != 1 {
		t.Fatalf("set stats aggregate tenants = %+v", st.Aggregate.Tenants)
	}
	perShard := 0
	for _, sh := range st.Shards {
		for _, ten := range sh.Tenants {
			if ten.Name == "rt" && ten.Requests > 0 {
				perShard++
				if ten.Shard < 0 || ten.Shard >= 3 {
					t.Fatalf("shard series carries shard %d", ten.Shard)
				}
			}
		}
	}
	if perShard == 0 {
		t.Fatal("no shard-level rt series with traffic")
	}
}

// TestTenantOpenMetricsFamilies: with accounting enabled the scrape
// carries the iatf_tenant_* families — TYPE declared once per family,
// label values escaped, counters suffixed _total — and still ends with
// # EOF. A tenant name with quotes and backslashes must round-trip
// escaped.
func TestTenantOpenMetricsFamilies(t *testing.T) {
	set := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	e := set.engines[0]
	weird := `ten"ant\x`
	e.SetTenants(map[string]obs.TenantObjective{
		"rt":  {Class: 5, Objective: 10 * time.Second, Target: 0.99},
		weird: {Class: 1},
	})
	rng := rand.New(rand.NewSource(135))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	for _, origin := range []string{"rt", weird} {
		if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Trace: "t", Origin: origin}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := set.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF")
	}
	for _, fam := range []string{
		"iatf_tenant_requests", "iatf_tenant_sheds",
		"iatf_tenant_deadline_hits", "iatf_tenant_deadline_misses",
		"iatf_tenant_slo_objective_seconds", "iatf_tenant_slo_target",
		"iatf_tenant_slo_burn_rate", "iatf_tenant_latency_seconds",
	} {
		if c := strings.Count(out, "# TYPE "+fam+" "); c != 1 {
			t.Fatalf("family %s declared %d times, want 1", fam, c)
		}
	}
	if !strings.Contains(out, `iatf_tenant_requests_total{tenant="rt"} 1`) {
		t.Fatal("rt tenant counter sample missing")
	}
	if !strings.Contains(out, `tenant="ten\"ant\\x"`) {
		t.Fatalf("weird tenant label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `iatf_tenant_latency_seconds_bucket{tenant="rt",le="+Inf"} 1`) {
		t.Fatal("tenant latency histogram missing +Inf bucket")
	}

	// Disabled accounting emits no tenant families.
	e2 := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	if err := e2.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := e2.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "iatf_tenant_") {
		t.Fatal("tenant families present with accounting disabled")
	}
}
