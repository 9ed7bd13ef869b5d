// Public monitoring surface: request-lifecycle spans, the OpenMetrics
// exporter and the Chrome trace-event exporter. A span is the one
// per-call record: it answers "where did this request's time go" —
// queue wait, plan lookup, prepack resolution, compute — for every
// request, sync or async, with a chain's stage spans linked to the
// chain's span via ParentID. With no sink installed the whole subsystem
// costs one atomic load per call.

package iatf

import (
	"io"
	"net/http"

	"iatf/internal/engine"
	"iatf/internal/obs"
)

// Span is the lifecycle record of one request: identity and problem
// descriptor, monotonic start/end, per-phase durations (Span.Phases,
// indexed by the Phase* constants) and the prepack-cache interactions of
// the dispatch. Sinks receive spans synchronously and must copy them if
// they retain them — the span is recycled when the sink returns.
type Span = obs.Span

// SpanPhase indexes one slice of a request's lifetime in Span.Phases.
type SpanPhase = obs.Phase

// The request lifecycle phases, in submission order.
const (
	// PhaseQueueWait: submission until the request starts executing
	// (zero on the sync and idle-inline paths).
	PhaseQueueWait = obs.PhaseQueueWait
	// PhaseFuse always reads 0: requests are never merged. It keeps its
	// index so readers that copy phases by position stay aligned.
	PhaseFuse = obs.PhaseFuse
	// PhasePlan: plan-cache lookup (or build, on a cold shape).
	PhasePlan = obs.PhasePlan
	// PhasePack: prepacked-operand cache resolution.
	PhasePack = obs.PhasePack
	// PhaseCompute: the native kernel execution.
	PhaseCompute = obs.PhaseCompute
	// PhaseScatter always reads 0, like PhaseFuse.
	PhaseScatter = obs.PhaseScatter
)

// SpanRing is a fixed-capacity ring of completed spans, safe for
// concurrent use and installable directly as a span sink:
//
//	ring := iatf.NewSpanRing(256)
//	eng.SetSpanSink(ring.Add)
//	...
//	iatf.WriteChromeTrace(w, ring.Spans(64))
type SpanRing = obs.SpanRing

// NewSpanRing returns a ring retaining the most recent n spans.
func NewSpanRing(n int) *SpanRing { return obs.NewSpanRing(n) }

// WriteChromeTrace encodes spans as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev: one thread track per span
// with nested per-phase slices.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return obs.WriteChromeTrace(w, spans)
}

// SetSpanSink installs an engine-level span sink: every request on this
// engine materializes a lifecycle span and fn receives it when the
// request resolves. fn runs synchronously on the resolving goroutine —
// keep it cheap or hand off — and must copy the span if it retains it.
// fn == nil removes the sink and restores the one-atomic-load disabled
// cost.
func (e *Engine) SetSpanSink(fn func(*Span)) {
	var sink obs.SpanFunc
	if fn != nil {
		sink = obs.SpanFunc(fn)
	}
	for i := 0; i < e.inner.Shards(); i++ {
		e.inner.Obs(i).SetSpanSink(sink)
	}
}

// QueueStats returns only the submission-queue slice of the engine's
// Stats — depth, capacity, the depth high-water mark, the queue-wait
// histogram, and the EDF/window configuration. Unlike Stats it snapshots
// no shape series or cache maps, so a serving tier can afford to consult
// it on every admission decision (internal/serve predicts a new request's
// queue wait from exactly this view). An EngineSet sums its shards.
func (e *Engine) QueueStats() QueueStats { return e.inner.QueueStats() }

// WriteMetrics renders one scrape of the engine's state — build info,
// plan/pack-cache and queue counters (incl. the depth high-water mark
// and the queue-wait histogram), buffer/worker-pool activity, and the
// per-shape achieved-vs-ceiling series — as OpenMetrics text. On an
// EngineSet every family carries unlabeled aggregate samples plus one
// shard="k" sample per shard, and the iatf_set_* routing families join
// them.
func (e *Engine) WriteMetrics(w io.Writer) error { return e.inner.WriteOpenMetrics(w) }

// MetricsHandler returns an http.Handler serving WriteMetrics with the
// OpenMetrics content type, mountable at /metrics for Prometheus-style
// scraping.
func (e *Engine) MetricsHandler() http.Handler { return e.inner.MetricsHandler() }

// SetProfileLabels enables pprof goroutine labels ({op, dtype, shape})
// around compute on this engine, so CPU profiles attribute kernel
// samples to problem shapes. Off by default: label construction
// allocates per dispatch.
func (e *Engine) SetProfileLabels(on bool) { e.inner.SetProfileLabels(on) }

// ResetShapeStats zeroes the engine's per-shape series and the
// submission queue's rolling window (the depth high-water mark and the
// queue-wait histogram) — the counters otherwise grow unboundedly in a
// long-running process.
func (e *Engine) ResetShapeStats() { e.inner.ResetShapeStats() }

// TenantObjective is one tenant's serving contract: the EDF dispatch
// class, the per-request latency objective (the deadline-miss bar when a
// request carries no context deadline), and the SLO attainment target
// the burn rate is computed against (e.g. 0.99). The zero value means
// "tracked, no SLO".
type TenantObjective = obs.TenantObjective

// TenantStats is a point-in-time view of one tenant's SLO series:
// requests/errors/sheds, deadline hits vs misses, the latency histogram
// with p50/p99, and the sliding-window burn rate (window bad-request
// fraction over the SLO error budget; >1 means the objective fails if
// the window's rate holds).
type TenantStats = obs.TenantSnapshot

// SetTenants installs per-tenant SLO objectives and enables tenant
// accounting on this engine: every request tagged with WithTenant is
// classified into its tenant's series, on every resolution path — sync,
// async, expiry in the queue, queue-full rejection. Origins
// not in cfg are tracked with a zero objective; nil disables accounting
// (tagged requests then cost one atomic load).
func (e *Engine) SetTenants(cfg map[string]TenantObjective) { e.inner.SetTenants(cfg) }

// TenantStats returns the engine's per-tenant SLO series, ordered by
// request count (nil when accounting is disabled). An EngineSet merges
// its shards' series by tenant.
func (e *Engine) TenantStats() []TenantStats { return e.inner.TenantStats() }

// RecordTenantShed accounts one admission-control shed for a tenant — a
// request a serving tier rejected before submitting it — on the
// tenant's name-affine shard. No-op when accounting is disabled.
func (e *Engine) RecordTenantShed(name string) { e.inner.RecordTenantShed(name) }

// BuildInfo identifies the running module build (module path, version,
// Go toolchain, GOMAXPROCS, SIMD backend) — metrics dumps carry it so
// they are self-describing.
type BuildInfo = engine.BuildInfo

// Build returns the running build's identity.
func Build() BuildInfo { return engine.Build() }
