package engine

import (
	"bytes"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/obs"
)

// TestSpanSyncLifecycle: a synchronous Run with an engine sink yields
// one span whose descriptor matches the problem and whose plan, pack and
// compute phases are populated and bounded by the end-to-end duration.
func TestSpanSyncLifecycle(t *testing.T) {
	e := New(core.DefaultTuning())
	var mu sync.Mutex
	var got []obs.Span
	e.obs.SetSpanSink(func(sp *obs.Span) {
		mu.Lock()
		got = append(got, *sp)
		mu.Unlock()
	})
	rng := rand.New(rand.NewSource(90))
	a, b, c := gemmReqOperands(rng, 16, 6, 5, 7)
	a.EnablePrepack()

	for i := 0; i < 2; i++ {
		if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("sink received %d spans, want 2", len(got))
	}
	sp := got[0]
	if sp.Op != "GEMM" || sp.DType != "s" || sp.Mode != "NN" ||
		sp.M != 6 || sp.N != 5 || sp.K != 7 || sp.Count != 16 {
		t.Fatalf("span descriptor = %+v", sp)
	}
	if sp.Workers != 1 || sp.ParentID != 0 {
		t.Fatalf("sync span workers/parent = %d/%d", sp.Workers, sp.ParentID)
	}
	if sp.Phases[obs.PhasePlan] <= 0 || sp.Phases[obs.PhaseCompute] <= 0 {
		t.Fatalf("plan/compute phases not recorded: %v", sp.Phases)
	}
	if sp.Phases[obs.PhaseQueueWait] != 0 || sp.Phases[obs.PhaseFuse] != 0 ||
		sp.Phases[obs.PhaseScatter] != 0 {
		t.Fatalf("sync span has async-only phases: %v", sp.Phases)
	}
	if sp.PhaseTotal() > sp.Duration() {
		t.Fatalf("phase total %v exceeds duration %v", sp.PhaseTotal(), sp.Duration())
	}
	// First call builds A's packed image, second hits it.
	if sp.PrepackBuilds != 1 || sp.PrepackHits != 0 {
		t.Fatalf("cold span prepack = %d hit / %d built, want 0/1", sp.PrepackHits, sp.PrepackBuilds)
	}
	if warm := got[1]; warm.PrepackHits != 1 || warm.PrepackBuilds != 0 {
		t.Fatalf("warm span prepack = %d hit / %d built, want 1/0", warm.PrepackHits, warm.PrepackBuilds)
	}
	if got[1].ID <= got[0].ID {
		t.Fatalf("span IDs not increasing: %d then %d", got[0].ID, got[1].ID)
	}
}

// TestSpanSyncError: a failed request still produces a finished span
// carrying the error.
func TestSpanSyncError(t *testing.T) {
	e := New(core.DefaultTuning())
	var got []obs.Span
	e.obs.SetSpanSink(func(sp *obs.Span) { got = append(got, *sp) })
	rng := rand.New(rand.NewSource(91))
	a, b, _ := gemmReqOperands(rng, 8, 4, 4, 4)
	mismatched := randCompact(rng, 8, 5, 5) // wrong C shape

	if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(mismatched)), Call{}); err == nil {
		t.Fatal("mismatched GEMM did not fail")
	}
	if len(got) != 1 || got[0].Error == "" {
		t.Fatalf("error span not delivered: %+v", got)
	}
}

// TestSpanPerRequestSink: a Call sink forces a span for one call even
// with no engine-level sink installed, and removing nothing afterwards
// keeps the disabled fast path (StartSpan returns nil).
func TestSpanPerRequestSink(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(92))
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)

	var got obs.Span
	err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Sink: func(sp *obs.Span) { got = *sp }})
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != "GEMM" || got.Phases[obs.PhaseCompute] <= 0 {
		t.Fatalf("forced span = %+v", got)
	}
	if e.obs.SpansEnabled() {
		t.Fatal("per-request sink left the engine sink enabled")
	}
}

// TestAsyncSpanQueueWaitStats: queued requests populate the queue-wait
// histogram and move the depth high-water mark; the inline fast path
// does not. Each queued request's span is its own (no parent), carries
// its queue wait, and its phases account for most of its end-to-end
// latency. The span clock is a fake that advances one step per read, so
// the accounting counts clock reads, not how the host scheduled the
// dispatcher.
func TestAsyncSpanQueueWaitStats(t *testing.T) {
	e := New(core.DefaultTuning())
	var reads atomic.Int64
	epoch := time.Now()
	e.obs.SetClock(func() time.Time { return epoch.Add(time.Duration(reads.Add(1)) * time.Microsecond) })
	rng := rand.New(rand.NewSource(94))
	ctx := context.Background()

	// Idle engine: inline execution, nothing queued.
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	fut, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Err(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats().Queue; s.DepthHighWater != 0 || s.Wait.Count != 0 {
		t.Fatalf("inline submit touched queue stats: %+v", s)
	}

	var mu sync.Mutex
	var spans []obs.Span
	e.obs.SetSpanSink(func(sp *obs.Span) {
		mu.Lock()
		spans = append(spans, *sp)
		mu.Unlock()
	})
	entered, gate := holdDispatcher(e)
	f0s, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	const queued = 3
	var futs [queued]*Future
	for i := 0; i < queued; i++ {
		qa, qb, qc := gemmReqOperands(rng, 8, 4, 4, 4)
		if futs[i], err = e.Submit(ctx, one(asyncGEMMDesc, op32(qa), op32(qb), op32(qc)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := f0s.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		if err := futs[i].Err(); err != nil {
			t.Fatal(err)
		}
	}

	s := e.Stats().Queue
	// Pending depth counts the held request (drained into the
	// dispatcher's in-flight batch) alongside the queued requests.
	if s.DepthHighWater != queued+1 {
		t.Fatalf("depth high-water = %d, want %d", s.DepthHighWater, queued+1)
	}
	// The held first request and the three queued requests all waited.
	if s.Wait.Count != queued+1 {
		t.Fatalf("wait histogram count = %d, want %d", s.Wait.Count, queued+1)
	}
	if s.Wait.SumNs == 0 || s.Wait.P99 <= 0 {
		t.Fatalf("wait histogram empty: %+v", s.Wait)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(spans) != queued+1 {
		t.Fatalf("sink received %d spans, want %d", len(spans), queued+1)
	}
	for i, sp := range spans {
		if sp.ParentID != 0 || sp.Op != "GEMM" || sp.Count != 8 {
			t.Fatalf("span %d = %+v, want its own GEMM span", i, sp)
		}
		if sp.Phases[obs.PhaseQueueWait] <= 0 || sp.Phases[obs.PhaseCompute] <= 0 {
			t.Fatalf("span %d has no queue wait or compute: %v", i, sp.Phases)
		}
		if sp.Phases[obs.PhaseFuse] != 0 || sp.Phases[obs.PhaseScatter] != 0 {
			t.Fatalf("span %d has fuse or scatter time: %v", i, sp.Phases)
		}
		// Whatever is unattributed (clock reads outside any phase: submit
		// bookkeeping, span starts and finishes) stays a small slice.
		gap := sp.Duration() - sp.PhaseTotal()
		if gap < 0 || gap > sp.Duration()/2 {
			t.Fatalf("span %d phases %v cover too little of duration %v (gap %v)",
				i, sp.PhaseTotal(), sp.Duration(), gap)
		}
	}
}

// TestAsyncSpanCancelled: a request cancelled in the queue still
// resolves its span, carrying the context error and its queue wait.
func TestAsyncSpanCancelled(t *testing.T) {
	e := New(core.DefaultTuning())
	var mu sync.Mutex
	var spans []obs.Span
	entered, gate := holdDispatcher(e)
	rng := rand.New(rand.NewSource(95))

	a0, b0, c0 := gemmReqOperands(rng, 8, 4, 4, 4)
	f0, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a0), op32(b0), op32(c0)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	a, b, c := gemmReqOperands(rng, 8, 4, 4, 4)
	fut, err := e.Submit(ctx, one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{Sink: func(sp *obs.Span) {
		mu.Lock()
		spans = append(spans, *sp)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	_ = fut.Err()
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(spans) != 1 {
		t.Fatalf("cancelled request delivered %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !strings.Contains(sp.Error, "cancel") {
		t.Fatalf("cancelled span error = %q", sp.Error)
	}
	if sp.Phases[obs.PhaseQueueWait] <= 0 || sp.Phases[obs.PhaseCompute] != 0 {
		t.Fatalf("cancelled span phases = %v, want queue wait only", sp.Phases)
	}
}

// TestOpenMetricsValidity: the exporter's output is structurally valid
// OpenMetrics — every sample belongs to a declared family, counter
// samples use the _total suffix, histogram buckets are cumulative, and
// the exposition ends with # EOF.
func TestOpenMetricsValidity(t *testing.T) {
	set := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	e := set.engines[0]
	rng := rand.New(rand.NewSource(96))
	a, b, c := gemmReqOperands(rng, 16, 8, 8, 8)
	a.EnablePrepack()
	for i := 0; i < 3; i++ {
		if err := e.Run(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	// Drive one queued batch so the wait histogram has samples.
	entered, gate := holdDispatcher(e)
	f0, err := e.Submit(context.Background(), one(asyncGEMMDesc, op32(a), op32(b), op32(c)), Call{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := set.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n...%s", out[len(out)-40:])
	}

	types := map[string]string{} // family -> counter|gauge|histogram
	var bucketCum uint64
	var bucketFamily string
	for ln, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "# EOF" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, name)
			}
			types[name] = kind
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		family, kind := "", ""
		for fam, k := range types {
			var suffixes []string
			switch k {
			case "counter":
				suffixes = []string{"_total"}
			case "histogram":
				suffixes = []string{"_bucket", "_sum", "_count"}
			default:
				suffixes = []string{""}
			}
			for _, suf := range suffixes {
				if name == fam+suf && len(fam) > len(family) {
					family, kind = fam, k
				}
			}
		}
		if family == "" {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, name)
		}
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			if family != bucketFamily {
				bucketFamily, bucketCum = family, 0
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("line %d: unparsable bucket value: %q", ln+1, line)
			}
			if v < bucketCum {
				t.Fatalf("line %d: histogram buckets not cumulative: %q after %d", ln+1, line, bucketCum)
			}
			bucketCum = v
		}
	}
	for _, fam := range []string{
		"iatf_build_info", "iatf_plan_cache_hits", "iatf_queue_submitted",
		"iatf_queue_depth_high_water", "iatf_queue_wait_seconds",
		"iatf_shape_calls", "iatf_shape_ceiling_gflops",
	} {
		if _, ok := types[fam]; !ok {
			t.Fatalf("family %s missing from exposition", fam)
		}
	}
	if !strings.Contains(out, `iatf_shape_calls_total{op="GEMM",dtype="s",mode="NN",shape="8x8x8"}`) {
		t.Fatal("per-shape labeled sample missing")
	}
}
