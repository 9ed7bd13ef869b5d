package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestSpanDisabledFastPath: with no sink installed, StartSpan returns
// nil and Finish/Mark on the nil span are no-ops.
func TestSpanDisabledFastPath(t *testing.T) {
	r := NewRegistry()
	if r.SpansEnabled() {
		t.Fatal("fresh registry reports spans enabled")
	}
	sp := r.StartSpan(false)
	if sp != nil {
		t.Fatalf("StartSpan(false) with no sink = %+v, want nil", sp)
	}
	r.Mark(sp, PhaseCompute, time.Now()) // nil-safe
	sp.Prepack(true)
	r.FinishSpan(sp, errors.New("ignored"), nil)
}

// TestSpanSinkLifecycle: an installed sink receives every finished span
// with descriptor, phases and error intact; removing the sink restores
// the disabled path.
func TestSpanSinkLifecycle(t *testing.T) {
	r := NewRegistry()
	var got []Span
	r.SetSpanSink(func(sp *Span) { got = append(got, *sp) })
	if !r.SpansEnabled() {
		t.Fatal("sink installed but SpansEnabled is false")
	}

	sp := r.StartSpan(false)
	if sp == nil {
		t.Fatal("StartSpan returned nil with a sink installed")
	}
	sp.Op = "GEMM"
	sp.Phases[PhaseCompute] = 3 * time.Millisecond
	sp.Prepack(true)
	sp.Prepack(true)
	sp.Prepack(false)
	r.FinishSpan(sp, errors.New("boom"), nil)

	if len(got) != 1 {
		t.Fatalf("sink received %d spans, want 1", len(got))
	}
	g := got[0]
	if g.Op != "GEMM" || g.Error != "boom" {
		t.Fatalf("span = %+v, want Op=GEMM Error=boom", g)
	}
	if g.PrepackHits != 2 || g.PrepackBuilds != 1 {
		t.Fatalf("prepack hits/builds = %d/%d, want 2/1", g.PrepackHits, g.PrepackBuilds)
	}
	if g.Phases[PhaseCompute] != 3*time.Millisecond {
		t.Fatalf("compute phase = %v", g.Phases[PhaseCompute])
	}
	if g.End.Before(g.Start) {
		t.Fatal("End precedes Start")
	}

	// A per-request extra sink fires alongside the registry sink.
	extra := 0
	sp = r.StartSpan(false)
	r.FinishSpan(sp, nil, func(*Span) { extra++ })
	if extra != 1 || len(got) != 2 {
		t.Fatalf("extra=%d registry=%d, want 1/2", extra, len(got))
	}

	r.SetSpanSink(nil)
	if r.SpansEnabled() {
		t.Fatal("sink removed but SpansEnabled is true")
	}
	if sp := r.StartSpan(false); sp != nil {
		t.Fatal("StartSpan materialized a span after sink removal")
	}
	// force still materializes (the per-request WithSpanSink path).
	if sp := r.StartSpan(true); sp == nil {
		t.Fatal("StartSpan(force) returned nil")
	} else {
		r.FinishSpan(sp, nil, nil)
	}
}

// TestSpanRecycleResetsState: pooled spans must not leak a previous
// request's descriptor or phases into the next one.
func TestSpanRecycleResetsState(t *testing.T) {
	r := NewRegistry()
	r.SetSpanSink(func(*Span) {})
	sp := r.StartSpan(false)
	sp.Op, sp.Error = "GEMM", "stale"
	sp.ParentID = 7
	sp.Phases[PhasePack] = time.Second
	r.FinishSpan(sp, nil, nil)

	// The pool likely hands the same span back; whatever it hands back
	// must be zero apart from ID and Start.
	sp2 := r.StartSpan(false)
	defer r.FinishSpan(sp2, nil, nil)
	if sp2.Op != "" || sp2.Error != "" || sp2.ParentID != 0 || sp2.PhaseTotal() != 0 {
		t.Fatalf("recycled span carries stale state: %+v", sp2)
	}
	if sp2.ID == 0 || !sp2.End.IsZero() {
		t.Fatalf("recycled span not restamped: id=%d end=%v", sp2.ID, sp2.End)
	}
}

// TestSpanRingEviction: the ring keeps the most recent n spans in order
// and counts everything ever added.
func TestSpanRingEviction(t *testing.T) {
	g := NewSpanRing(3)
	for i := uint64(1); i <= 5; i++ {
		g.Add(&Span{ID: i})
	}
	if g.Total() != 5 {
		t.Fatalf("Total = %d, want 5", g.Total())
	}
	ids := func(spans []Span) []uint64 {
		out := make([]uint64, len(spans))
		for i, sp := range spans {
			out[i] = sp.ID
		}
		return out
	}
	if got := ids(g.Spans(0)); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("Spans(0) = %v, want [3 4 5]", got)
	}
	if got := ids(g.Spans(2)); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Spans(2) = %v, want [4 5]", got)
	}
	if got := ids(g.Spans(10)); len(got) != 3 {
		t.Fatalf("Spans(10) = %v, want all 3 retained", got)
	}
}

// TestWriteChromeTrace: the exporter emits valid JSON with one metadata
// and one enclosing complete event per span, nested phase slices, and
// epoch-relative microsecond timestamps.
func TestWriteChromeTrace(t *testing.T) {
	base := time.Now()
	parent := Span{
		ID: 10, Op: "GEMM", DType: "s", Mode: "NN", M: 8, N: 8, K: 8,
		Count: 64, Workers: 1,
		Start: base, End: base.Add(10 * time.Millisecond),
	}
	parent.Phases[PhasePlan] = time.Millisecond
	parent.Phases[PhaseCompute] = 7 * time.Millisecond
	child := Span{
		ID: 11, ParentID: 10, Op: "GEMM", DType: "s", Mode: "NN",
		M: 8, N: 8, K: 8, Count: 32,
		Start: base.Add(-2 * time.Millisecond), End: base.Add(10 * time.Millisecond),
		Error: `bad "quote"`,
	}
	child.Phases[PhaseQueueWait] = 2 * time.Millisecond

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Span{parent, child}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata + 2 enclosing + 2 parent phases + 1 child phase.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("event count = %d, want 7", len(doc.TraceEvents))
	}
	var meta, complete, phases int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event name = %q", ev.Name)
			}
		case "X":
			if ev.Name == PhasePlan.String() || ev.Name == PhaseCompute.String() ||
				ev.Name == PhaseQueueWait.String() {
				phases++
			} else {
				complete++
				if ev.TID == parent.ID {
					// Child started 2ms before parent: parent's epoch-relative
					// start is +2000µs, duration 10000µs.
					if ev.TS != 2000 || ev.Dur != 10000 {
						t.Fatalf("parent event ts/dur = %v/%v, want 2000/10000", ev.TS, ev.Dur)
					}
					if ev.Name != "GEMM s NN 8x8x8 ×64" {
						t.Fatalf("parent label = %q, want its descriptor", ev.Name)
					}
				}
				if ev.TID == child.ID {
					if ev.Args["parent"] != float64(parent.ID) {
						t.Fatalf("child args missing parent link: %v", ev.Args)
					}
					if ev.Args["error"] != `bad "quote"` {
						t.Fatalf("child error arg = %v", ev.Args["error"])
					}
				}
			}
		default:
			t.Fatalf("unexpected phase type %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 2 || phases != 3 {
		t.Fatalf("meta/complete/phases = %d/%d/%d, want 2/2/3", meta, complete, phases)
	}
}

// TestRegistryReset: Reset drops every series, and a shape recorded
// after it starts from zero.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	key := ShapeKey{Op: "GEMM", DType: "s", Mode: "NN", M: 4, N: 4, K: 4}
	s := r.Series(key)
	s.Plan(CacheMiss)
	s.Record(time.Millisecond, 1e9, false)
	s.Record(time.Millisecond, 1e9, false)
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Calls != 2 || snap[0].PlanMisses != 1 {
		t.Fatalf("snapshot = %+v, want 2 calls / 1 miss", snap)
	}

	r.Reset()
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after Reset = %+v, want empty", snap)
	}
	s = r.Series(key)
	s.Record(time.Millisecond, 1e9, false)
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Calls != 1 || snap[0].PlanMisses != 0 {
		t.Fatalf("post-Reset snapshot = %+v, want 1 call / 0 misses", snap)
	}
}

// TestHistObserve: the log2 histogram buckets, counts and quantiles are
// coherent and the snapshot truncates trailing empty buckets.
func TestHistObserve(t *testing.T) {
	var h Hist
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	h.Observe(100 * time.Microsecond)

	s := h.Snapshot()
	if s.Count != 11 {
		t.Fatalf("count = %d, want 11", s.Count)
	}
	if want := uint64(10*100 + 100_000); s.SumNs != want {
		t.Fatalf("sum = %d, want %d", s.SumNs, want)
	}
	if s.P50 > time.Microsecond {
		t.Fatalf("P50 = %v, want ~128ns bucket", s.P50)
	}
	if s.P99 < 50*time.Microsecond {
		t.Fatalf("P99 = %v, want the 100µs sample's bucket", s.P99)
	}
	var total uint64
	for i, b := range s.Buckets {
		total += b.Count
		if i > 0 && b.UpperNs != 2*s.Buckets[i-1].UpperNs {
			t.Fatalf("bucket bounds not log2: %v", s.Buckets)
		}
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Count == 0 {
		t.Fatal("snapshot retains trailing empty buckets")
	}
}
