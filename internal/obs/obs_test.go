package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSeriesRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	key := ShapeKey{Op: "GEMM", DType: "s", Mode: "NN", M: 4, N: 4, K: 4}
	s := r.Series(key)
	if r.Series(key) != s {
		t.Fatal("Series must return the same series for the same key")
	}

	s.Plan(CacheMiss)
	s.SetPlan(40, "A+B", 16)
	s.SetWorkers(4)
	// 1 GFLOP in 1 ms = 1000 GFLOPS; best must track the fastest call.
	s.Record(time.Millisecond, 1e9, false)
	s.Plan(CacheHit)
	s.Record(2*time.Millisecond, 1e9, false)
	s.Plan(CacheMiss)
	s.Record(time.Millisecond, 0, true) // failed call: no latency sample

	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d shapes, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.ShapeKey != key {
		t.Errorf("key %+v, want %+v", snap.ShapeKey, key)
	}
	if snap.Calls != 3 || snap.Errors != 1 {
		t.Errorf("calls=%d errors=%d, want 3/1", snap.Calls, snap.Errors)
	}
	if snap.PlanMisses != 2 || snap.PlanHits != 1 {
		t.Errorf("cache outcomes %d/%d, want 2/1", snap.PlanMisses, snap.PlanHits)
	}
	if got := snap.HitRatio(); got != 1.0/3 {
		t.Errorf("hit ratio %v, want 1/3", got)
	}
	if snap.BestGFLOPS != 1000 {
		t.Errorf("best GFLOPS %v, want 1000 (the 1 ms call)", snap.BestGFLOPS)
	}
	// avg over 3 ms of successful wall time with 2 GFLOP total.
	if snap.AvgGFLOPS < 600 || snap.AvgGFLOPS > 700 {
		t.Errorf("avg GFLOPS %v, want ~666", snap.AvgGFLOPS)
	}
	if snap.CeilingGFLOPS != 40 || snap.Pack != "A+B" || snap.GroupsPerBatch != 16 || snap.Workers != 4 {
		t.Errorf("plan decisions %v/%q/%d/%d", snap.CeilingGFLOPS, snap.Pack, snap.GroupsPerBatch, snap.Workers)
	}
	// log2 buckets: the quantile is an upper bound within 2x.
	if snap.P50 < time.Millisecond || snap.P50 > 2*time.Millisecond {
		t.Errorf("p50 %v outside [1ms, 2ms]", snap.P50)
	}
	if snap.P99 < 2*time.Millisecond || snap.P99 > 4*time.Millisecond {
		t.Errorf("p99 %v outside [2ms, 4ms]", snap.P99)
	}
}

func TestQuantileSkew(t *testing.T) {
	var s Series
	for i := 0; i < 99; i++ {
		s.Record(100*time.Microsecond, 0, false)
	}
	s.Record(50*time.Millisecond, 0, false)
	p50, p99 := s.quantile(0.50), s.quantile(0.99)
	if p50 > time.Millisecond {
		t.Errorf("p50 %v pulled up by one outlier", p50)
	}
	if p99 > time.Millisecond {
		t.Errorf("p99 %v must not see the single 1%% outlier at rank 99", p99)
	}
	if p100 := s.quantile(1.0); p100 < 50*time.Millisecond {
		t.Errorf("p100 %v must cover the outlier", p100)
	}
}

func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	hot := r.Series(ShapeKey{Op: "GEMM", DType: "s", Mode: "NN", M: 8, N: 8, K: 8})
	cold := r.Series(ShapeKey{Op: "TRSM", DType: "d", Mode: "LNLN", M: 4, N: 4})
	for i := 0; i < 5; i++ {
		hot.Record(time.Microsecond, 1, false)
	}
	cold.Record(time.Microsecond, 1, false)
	snaps := r.Snapshot()
	if len(snaps) != 2 || snaps[0].Op != "GEMM" || snaps[1].Op != "TRSM" {
		t.Fatalf("snapshot not ordered by calls desc: %+v", snaps)
	}
}

func TestSeriesConcurrent(t *testing.T) {
	r := NewRegistry()
	key := ShapeKey{Op: "GEMM", DType: "s", Mode: "NN", M: 2, N: 2, K: 2}
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.Series(key)
			for i := 0; i < per; i++ {
				s.Plan(CacheHit)
				s.Record(time.Microsecond, 1000, false)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()[0]
	if snap.Calls != goroutines*per || snap.PlanHits != goroutines*per {
		t.Errorf("lost updates: calls=%d hits=%d, want %d", snap.Calls, snap.PlanHits, goroutines*per)
	}
}
