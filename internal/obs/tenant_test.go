package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// finish runs one origin-tagged span through a registry's lifecycle
// with the given outcome; rewinding Start by d makes the span's
// duration ≈ d (FinishSpan stamps End = now).
func finish(r *Registry, origin string, d, deadline time.Duration, err error) {
	sp := r.StartSpan(true)
	sp.Origin = origin
	sp.Deadline = deadline
	sp.Start = sp.Start.Add(-d)
	r.FinishSpan(sp, err, nil)
}

// TestTenantRecordClassification pins the outcome→series mapping:
// success under/over budget, objective fallback, shed sentinels,
// context expiry, and plain errors.
func TestTenantRecordClassification(t *testing.T) {
	shedErr := errors.New("test shed")
	RegisterShedError(shedErr)
	r := NewRegistry()
	r.SetTenants(map[string]TenantObjective{
		"rt": {Class: 5, Objective: 10 * time.Millisecond, Target: 0.99},
	})

	finish(r, "rt", time.Millisecond, 5*time.Millisecond, nil)     // hit vs explicit deadline
	finish(r, "rt", 7*time.Millisecond, 5*time.Millisecond, nil)   // late vs explicit deadline
	finish(r, "rt", time.Millisecond, 0, nil)                      // hit vs objective fallback
	finish(r, "rt", 20*time.Millisecond, 0, nil)                   // late vs objective fallback
	finish(r, "rt", time.Millisecond, 0, shedErr)                  // registered shed
	finish(r, "rt", time.Millisecond, 0, context.DeadlineExceeded) // expiry miss
	finish(r, "rt", time.Millisecond, 0, context.Canceled)         // cancel miss
	finish(r, "rt", time.Millisecond, 0, errors.New("boom"))       // plain error
	finish(r, "untracked", time.Millisecond, 0, nil)               // auto-created, no objective

	snaps := r.TenantSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	rt := snaps[0] // sorted by requests desc
	if rt.Name != "rt" || rt.Requests != 8 {
		t.Fatalf("rt series = %+v", rt)
	}
	if rt.DeadlineHits != 2 || rt.DeadlineMisses != 4 || rt.Sheds != 1 || rt.Errors != 1 {
		t.Fatalf("rt classification: hits %d misses %d sheds %d errors %d, want 2/4/1/1",
			rt.DeadlineHits, rt.DeadlineMisses, rt.Sheds, rt.Errors)
	}
	// Only successes observe latency: 4 of the 8.
	if rt.Latency.Count != 4 {
		t.Fatalf("rt latency count = %d, want 4", rt.Latency.Count)
	}
	// Window: 5 bad (2 late + 1 shed + 2 context) of 8.
	if rt.WindowRequests != 8 || rt.WindowBad != 5 {
		t.Fatalf("rt window = %d/%d, want 5/8", rt.WindowBad, rt.WindowRequests)
	}
	want := (5.0 / 8.0) / 0.01
	if rt.BurnRate < want-1 || rt.BurnRate > want+1 {
		t.Fatalf("rt burn = %g, want %g", rt.BurnRate, want)
	}

	un := snaps[1]
	if un.Name != "untracked" || un.Requests != 1 || un.DeadlineHits != 0 || un.DeadlineMisses != 0 {
		t.Fatalf("untracked series = %+v (objective-less success must count neither hit nor miss)", un)
	}
	if un.BurnRate != 0 {
		t.Fatalf("untracked burn = %g, want 0 (no target)", un.BurnRate)
	}
}

// TestTenantDisabled: without a table, tagged spans record nothing and
// the snapshot surface returns nil; re-enabling starts fresh.
func TestTenantDisabled(t *testing.T) {
	r := NewRegistry()
	if r.TenantsEnabled() {
		t.Fatal("fresh registry has tenants enabled")
	}
	finish(r, "rt", time.Millisecond, 0, nil)
	if got := r.TenantSnapshots(); got != nil {
		t.Fatalf("disabled snapshots = %+v, want nil", got)
	}
	r.RecordTenantShed("rt") // must be a no-op, not a panic

	r.SetTenants(map[string]TenantObjective{})
	finish(r, "rt", time.Millisecond, 0, nil)
	if got := r.TenantSnapshots(); len(got) != 1 || got[0].Requests != 1 {
		t.Fatalf("enabled snapshots = %+v, want one rt request", got)
	}
	r.SetTenants(nil)
	if r.TenantsEnabled() {
		t.Fatal("nil config left tenants enabled")
	}
}

// TestTenantBurnWindow exercises the epoch ring directly: observations
// land in the current bucket, stale epochs are evicted from the sums,
// and a reused ring slot resets before counting.
func TestTenantBurnWindow(t *testing.T) {
	var ts TenantSeries
	base := time.Unix(1_000_000, 0)

	ts.window(base, true)
	ts.window(base, false)
	if req, bad := ts.windowCounts(base); req != 2 || bad != 1 {
		t.Fatalf("window = %d/%d, want 2 requests 1 bad", req, bad)
	}

	// Advance within the window: old bucket still visible.
	later := base.Add((tenantWindowBuckets - 1) * tenantBucketSecs * time.Second)
	ts.window(later, false)
	if req, bad := ts.windowCounts(later); req != 3 || bad != 1 {
		t.Fatalf("mid-window = %d/%d, want 3/1", req, bad)
	}

	// Advance past the window: the base bucket's epoch is stale and must
	// drop out of the sum even though its slot was never rewritten.
	expired := base.Add(tenantWindowBuckets * tenantBucketSecs * time.Second)
	if req, bad := ts.windowCounts(expired); req != 1 || bad != 0 {
		t.Fatalf("expired window = %d/%d, want 1/0", req, bad)
	}

	// A full lap later the base slot is reused: it must reset, not
	// accumulate onto the year-old counts.
	lap := base.Add(tenantWindowBuckets * tenantBucketSecs * time.Second)
	ts.window(lap, true)
	if req, bad := ts.windowCounts(lap); req != 2 || bad != 1 {
		t.Fatalf("lapped window = %d/%d, want 2/1", req, bad)
	}
}

// TestTenantBurnRate pins the gauge math and its guard rails.
func TestTenantBurnRate(t *testing.T) {
	cases := []struct {
		req, bad uint64
		target   float64
		want     float64
	}{
		{0, 0, 0.99, 0},   // no traffic
		{100, 0, 0.99, 0}, // clean window
		{100, 1, 0.99, 1}, // burning exactly at budget
		{100, 2, 0.99, 2},
		{100, 5, 0, 0}, // no target configured
		{100, 5, 1, 0}, // degenerate target
		{10, 10, 0.5, 2},
	}
	for _, tc := range cases {
		got := burnRate(tc.req, tc.bad, tc.target)
		if got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Fatalf("burnRate(%d, %d, %g) = %g, want %g", tc.req, tc.bad, tc.target, got, tc.want)
		}
	}
}

// TestTenantOverflowCap: past maxTenants distinct origins, new names
// fold into the shared overflow series instead of growing the table.
func TestTenantOverflowCap(t *testing.T) {
	r := NewRegistry()
	r.SetTenants(map[string]TenantObjective{})
	for i := 0; i < maxTenants+10; i++ {
		finish(r, fmt.Sprintf("tenant-%d", i), time.Millisecond, 0, nil)
	}
	snaps := r.TenantSnapshots()
	if len(snaps) > maxTenants+1 {
		t.Fatalf("table grew to %d series, cap is %d + overflow", len(snaps), maxTenants)
	}
	var overflow *TenantSnapshot
	for i := range snaps {
		if snaps[i].Name == TenantOverflow {
			overflow = &snaps[i]
		}
	}
	if overflow == nil {
		t.Fatalf("no %s series among %d", TenantOverflow, len(snaps))
	}
	if overflow.Requests < 10 {
		t.Fatalf("overflow requests = %d, want >= 10", overflow.Requests)
	}
}

// TestAggregateTenants: merging shard snapshots sums counters, merges
// histograms bucket-wise, recomputes burn from the combined window, and
// keeps the objective from whichever shard carries it.
func TestAggregateTenants(t *testing.T) {
	var s0, s1 TenantSeries
	s0.lat.Observe(time.Millisecond)
	s0.requests.Store(3)
	s0.hits.Store(2)
	s0.misses.Store(1)
	s1.lat.Observe(4 * time.Millisecond)
	s1.lat.Observe(16 * time.Millisecond)
	s1.requests.Store(2)
	s1.sheds.Store(1)

	now := time.Now()
	obj := TenantObjective{Class: 5, Objective: 10 * time.Millisecond, Target: 0.9}
	a := s0.snapshot("rt", obj, 0, now)
	b := s1.snapshot("rt", TenantObjective{Class: 5}, 1, now)
	a.WindowRequests, a.WindowBad = 3, 1
	b.WindowRequests, b.WindowBad = 2, 1

	merged := AggregateTenants([]TenantSnapshot{a}, []TenantSnapshot{b})
	if len(merged) != 1 {
		t.Fatalf("merged = %d rows, want 1", len(merged))
	}
	m := merged[0]
	if m.Shard != -1 || m.Requests != 5 || m.DeadlineHits != 2 || m.DeadlineMisses != 1 || m.Sheds != 1 {
		t.Fatalf("merged = %+v", m)
	}
	if m.Latency.Count != 3 {
		t.Fatalf("merged latency count = %d, want 3", m.Latency.Count)
	}
	if m.Objective != 10*time.Millisecond || m.Target != 0.9 {
		t.Fatalf("merged objective = %v/%g", m.Objective, m.Target)
	}
	// 2 bad of 5 over a 0.1 budget → burn 4.
	if m.BurnRate < 3.9 || m.BurnRate > 4.1 {
		t.Fatalf("merged burn = %g, want 4", m.BurnRate)
	}

	// Distinct tenants stay distinct rows, sorted by requests.
	c := s0.snapshot("other", TenantObjective{}, 0, now)
	out := AggregateTenants([]TenantSnapshot{a, c}, []TenantSnapshot{b})
	if len(out) != 2 || out[0].Name != "rt" || out[1].Name != "other" {
		t.Fatalf("multi-tenant merge = %+v", out)
	}
}

// TestSpanRingTraceLookup: Trace resolves a request trace id (every
// span carrying it) and numeric span/parent ids.
func TestSpanRingTraceLookup(t *testing.T) {
	ring := NewSpanRing(8)
	parent := &Span{ID: 100, TraceID: "tr-a"}
	childA := &Span{ID: 101, ParentID: 100, TraceID: "tr-a", Origin: "rt"}
	childB := &Span{ID: 102, ParentID: 100}
	other := &Span{ID: 103, TraceID: "tr-c"}
	for _, sp := range []*Span{parent, childA, childB, other} {
		ring.Add(sp)
	}

	got := ring.Trace("tr-a")
	if len(got) != 2 {
		t.Fatalf("Trace(tr-a) = %d spans, want parent + child", len(got))
	}
	ids := map[uint64]bool{got[0].ID: true, got[1].ID: true}
	if !ids[100] || !ids[101] {
		t.Fatalf("Trace(tr-a) ids = %+v, want {100, 101}", ids)
	}

	// A numeric parent id pulls the span and its children.
	if got = ring.Trace("100"); len(got) != 3 {
		t.Fatalf("Trace(100) = %d spans, want parent + 2 children", len(got))
	}
	// Numeric own id.
	if got = ring.Trace("103"); len(got) != 1 || got[0].TraceID != "tr-c" {
		t.Fatalf("Trace(103) = %+v", got)
	}
	if got = ring.Trace("no-such-id"); len(got) != 0 {
		t.Fatalf("Trace(miss) = %+v, want empty", got)
	}
	if got = ring.Trace(""); got != nil {
		t.Fatalf("Trace(\"\") = %+v, want nil", got)
	}
}
