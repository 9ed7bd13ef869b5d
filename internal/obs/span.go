// Request-lifecycle spans: with the per-shape series, a span is the one
// per-call record, answering "where did this request's time go". Every
// request — sync or async — can carry a Span recording monotonic phase
// durations from submission to completion: queue wait, plan lookup,
// prepacked-operand resolution and native compute. A chain's stages
// each get a child span linked to the chain's span via ParentID.
//
// Spans are pooled and only materialized when a sink is installed: with
// no sink the per-request cost is one atomic pointer load. Sinks receive
// the span synchronously after the request resolves and must copy it if
// they retain it — the span returns to the pool when the sink returns
// (SpanRing does exactly that).

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phase indexes one slice of a request's lifetime in Span.Phases.
type Phase int

// The request lifecycle phases, in submission order.
const (
	// PhaseQueueWait: from submission until the request starts
	// executing (zero on the sync and idle-inline paths).
	PhaseQueueWait Phase = iota
	// PhaseFuse always reads 0: requests are never merged. It keeps its
	// index so readers that copy phases by position stay aligned.
	PhaseFuse
	// PhasePlan: plan-cache lookup (or build, on a cold shape).
	PhasePlan
	// PhasePack: prepacked-operand cache resolution — lookups plus any
	// packed-image builds (zero when no operand opted into Prepack).
	PhasePack
	// PhaseCompute: the native per-super-batch kernel execution.
	PhaseCompute
	// PhaseScatter always reads 0, like PhaseFuse, and for the same
	// reason keeps its index.
	PhaseScatter

	// PhaseCount is the number of phases (the length of Span.Phases).
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"queue_wait", "fuse", "plan", "pack", "compute", "scatter",
}

// String returns the snake_case phase name used by the exporters.
func (p Phase) String() string {
	if p < 0 || p >= PhaseCount {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Span is the lifecycle record of one request. IDs are unique per
// process; a chain's per-stage child spans name the chain's span in
// ParentID. All timestamps come from the monotonic clock.
type Span struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`

	// TraceID is the end-to-end request correlation id (the W3C
	// traceparent trace-id on requests entering through the serving
	// tier), threaded from Do/Submit so an HTTP access-log line and the
	// engine span it caused share one id. Empty on untraced requests.
	TraceID string `json:"trace_id,omitempty"`
	// Origin is the tenant (or other caller identity) the request was
	// submitted on behalf of; it keys the per-tenant SLO accounting.
	Origin string `json:"origin,omitempty"`
	// Deadline is the request's end-to-end budget (ctx deadline minus
	// submission time); 0 = no deadline. Tenant accounting classifies a
	// completed request as a deadline hit or miss against it.
	Deadline time.Duration `json:"deadline_ns,omitempty"`

	Op    string `json:"op"`
	DType string `json:"dtype,omitempty"`
	Mode  string `json:"mode,omitempty"`
	M     int    `json:"m,omitempty"`
	N     int    `json:"n,omitempty"`
	K     int    `json:"k,omitempty"`
	Count int    `json:"count,omitempty"`

	Workers int `json:"workers,omitempty"`

	// Prepack cache interactions of this dispatch.
	PrepackHits   int `json:"prepack_hits,omitempty"`
	PrepackBuilds int `json:"prepack_builds,omitempty"`

	Start  time.Time                 `json:"start"`
	End    time.Time                 `json:"end"`
	Phases [PhaseCount]time.Duration `json:"phases"`

	Error string `json:"error,omitempty"`
}

// SetClock replaces the clock span timestamps read — Start, End, every
// Mark and the engine's queue stamps — so a test can make phases
// deterministic. Call it before the registry records anything.
func (r *Registry) SetClock(now func() time.Time) { r.now = now }

// Now reads the span clock.
func (r *Registry) Now() time.Time { return r.now() }

// Mark adds the time elapsed since `since` to sp's phase p. Nil-safe, so
// call sites can thread an optional span without branching.
func (r *Registry) Mark(sp *Span, p Phase, since time.Time) {
	if sp == nil {
		return
	}
	sp.Phases[p] += r.now().Sub(since)
}

// Prepack records one prepacked-operand cache interaction: a hit on the
// existing packed image or a build of a fresh one. Nil-safe.
func (sp *Span) Prepack(hit bool) {
	if sp == nil {
		return
	}
	if hit {
		sp.PrepackHits++
	} else {
		sp.PrepackBuilds++
	}
}

// Duration returns the span's end-to-end wall time.
func (sp *Span) Duration() time.Duration { return sp.End.Sub(sp.Start) }

// PhaseTotal returns the sum of all recorded phase durations; the
// difference to Duration is unattributed dispatch overhead.
func (sp *Span) PhaseTotal() time.Duration {
	var t time.Duration
	for _, d := range sp.Phases {
		t += d
	}
	return t
}

// SpanFunc receives completed spans. It runs synchronously on the
// resolving goroutine; the span is recycled when it returns, so retain a
// copy (*sp), never the pointer.
type SpanFunc func(*Span)

type spanCfg struct{ fn SpanFunc }

var (
	spanIDs  atomic.Uint64
	spanPool = sync.Pool{New: func() any { return new(Span) }}
)

// SetSpanSink installs the registry's span sink. With a sink installed
// every request materializes a span; fn == nil removes the sink and
// restores the one-atomic-load disabled cost.
func (r *Registry) SetSpanSink(fn SpanFunc) {
	if fn == nil {
		r.spans.Store(nil)
		return
	}
	r.spans.Store(&spanCfg{fn: fn})
}

// SpansEnabled reports whether a span sink is installed (one atomic
// load).
func (r *Registry) SpansEnabled() bool { return r.spans.Load() != nil }

// StartSpan returns a pooled span stamped with a fresh ID and Start, or
// nil when no sink is installed and force is false — the disabled fast
// path is the single atomic load of the sink pointer.
func (r *Registry) StartSpan(force bool) *Span {
	if !force && r.spans.Load() == nil {
		return nil
	}
	sp := spanPool.Get().(*Span)
	*sp = Span{ID: spanIDs.Add(1), Start: r.now()}
	return sp
}

// FinishSpan stamps the span's end, records err, delivers it to the
// registry sink and the optional per-request extra sink, and recycles
// it. Nil-safe.
func (r *Registry) FinishSpan(sp *Span, err error, extra SpanFunc) {
	if sp == nil {
		return
	}
	sp.End = r.now()
	if err != nil {
		sp.Error = err.Error()
	}
	if sp.Origin != "" {
		if tt := r.tenants.Load(); tt != nil {
			tt.record(sp, err)
		}
	}
	if cfg := r.spans.Load(); cfg != nil {
		cfg.fn(sp)
	}
	if extra != nil {
		extra(sp)
	}
	spanPool.Put(sp)
}

// SpanRing is a fixed-capacity ring of completed spans — the capture
// sink behind live monitoring surfaces (`/trace?n=K`). Add copies the
// span, so it is safe to install directly as a SpanFunc.
type SpanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  uint64 // total spans ever added
	total uint64
}

// NewSpanRing returns a ring holding the most recent n spans (n < 1 is
// clamped to 1).
func NewSpanRing(n int) *SpanRing {
	if n < 1 {
		n = 1
	}
	return &SpanRing{buf: make([]Span, n)}
}

// Add copies sp into the ring, evicting the oldest entry when full.
// Safe for concurrent use; usable directly as a SpanFunc.
func (g *SpanRing) Add(sp *Span) {
	g.mu.Lock()
	g.buf[g.next%uint64(len(g.buf))] = *sp
	g.next++
	g.total++
	g.mu.Unlock()
}

// Total returns the number of spans ever added.
func (g *SpanRing) Total() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// Spans returns up to n of the most recent spans, oldest first. n <= 0
// returns everything retained.
func (g *SpanRing) Spans(n int) []Span {
	g.mu.Lock()
	defer g.mu.Unlock()
	held := int(g.next)
	if held > len(g.buf) {
		held = len(g.buf)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Span, 0, n)
	for i := int(g.next) - n; i < int(g.next); i++ {
		out = append(out, g.buf[uint64(i)%uint64(len(g.buf))])
	}
	return out
}

// Trace returns every retained span belonging to one request trace,
// oldest first: spans whose TraceID matches id and — when id parses as a
// span number — the span with that ID plus its children. Empty when
// nothing matches.
func (g *SpanRing) Trace(id string) []Span {
	if id == "" {
		return nil
	}
	num, numErr := strconv.ParseUint(id, 10, 64)
	g.mu.Lock()
	defer g.mu.Unlock()
	held := int(g.next)
	if held > len(g.buf) {
		held = len(g.buf)
	}
	var out []Span
	for i := int(g.next) - held; i < int(g.next); i++ {
		sp := &g.buf[uint64(i)%uint64(len(g.buf))]
		if sp.TraceID == id || numErr == nil && (sp.ID == num || sp.ParentID == num) {
			out = append(out, *sp)
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event JSON object (the subset of the
// trace-event format about:tracing and Perfetto load).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanLabel renders the human-readable descriptor shown as the span's
// track name in the trace viewer.
func spanLabel(sp *Span) string {
	label := sp.Op
	if sp.DType != "" {
		label += " " + sp.DType
	}
	if sp.Mode != "" {
		label += " " + sp.Mode
	}
	if sp.M > 0 {
		label += fmt.Sprintf(" %dx%d", sp.M, sp.N)
		if sp.K > 0 {
			label += fmt.Sprintf("x%d", sp.K)
		}
	}
	if sp.Count > 0 {
		label += fmt.Sprintf(" ×%d", sp.Count)
	}
	return label
}

// WriteChromeTrace encodes spans as Chrome trace-event JSON, loadable in
// about:tracing or Perfetto. Each span becomes one thread track: an
// enclosing complete event for the whole request plus one nested event
// per non-zero phase, laid out sequentially from the span's start.
// Timestamps are relative to the earliest span in the set.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var epoch time.Time
	for i := range spans {
		if epoch.IsZero() || spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]chromeEvent, 0, 3*len(spans))
	for i := range spans {
		sp := &spans[i]
		args := map[string]any{
			"id": sp.ID, "count": sp.Count, "workers": sp.Workers,
		}
		if sp.ParentID != 0 {
			args["parent"] = sp.ParentID
		}
		if sp.PrepackHits > 0 || sp.PrepackBuilds > 0 {
			args["prepack_hits"] = sp.PrepackHits
			args["prepack_builds"] = sp.PrepackBuilds
		}
		if sp.TraceID != "" {
			args["trace"] = sp.TraceID
		}
		if sp.Origin != "" {
			args["tenant"] = sp.Origin
		}
		if sp.Error != "" {
			args["error"] = sp.Error
		}
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: sp.ID,
				Args: map[string]any{"name": spanLabel(sp)}},
			chromeEvent{Name: spanLabel(sp), Cat: sp.Op, Ph: "X",
				TS: us(sp.Start.Sub(epoch)), Dur: us(sp.Duration()),
				PID: 1, TID: sp.ID, Args: args})
		cursor := sp.Start.Sub(epoch)
		for p := Phase(0); p < PhaseCount; p++ {
			d := sp.Phases[p]
			if d <= 0 {
				continue
			}
			events = append(events, chromeEvent{Name: p.String(), Cat: sp.Op,
				Ph: "X", TS: us(cursor), Dur: us(d), PID: 1, TID: sp.ID})
			cursor += d
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}
