// OpenMetrics export: a dependency-free text encoder over the engine's
// Stats and the per-shape observability registry, so a Prometheus (or any
// OpenMetrics-compatible) scraper can watch the serving engine without
// the process linking a metrics library. One scrape = one Stats snapshot
// rendered as families: engine-level counters and gauges (plan cache,
// pack cache, submission queue incl. the depth high-water mark and the
// queue-wait histogram, buffer pools, worker pool) plus
// per-shape series labeled {op, dtype, mode, shape} with achieved-vs-
// ceiling GFLOPS — the paper's predicted-vs-achieved methodology as a
// live surface.

package engine

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"iatf/internal/kernels"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// BuildInfo identifies the running module build — exported metrics dumps
// carry it so they are self-describing.
type BuildInfo struct {
	Module     string `json:"module"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SIMDBackend names the vector model the kernels execute on
	// (the portable 128-bit NEON emulation in this reproduction).
	SIMDBackend string `json:"simd_backend"`
	// GEMMKernel names the generated machine code this process runs
	// (kernels.Backend, picked once from CPUID): "amd64-sse2" runs the
	// GEMM main kernels (s/d 4×4, c/z 3×2), the TRMM triangle for M ≤ 4
	// and the TRMM 4×4 rectangle as SSE2; "amd64-avx" runs the s/d GEMM
	// 4×4 on 256-bit AVX registers and the rest as SSE2; "purego" runs
	// every kernel in Go.
	GEMMKernel string `json:"gemm_kernel"`
}

// Build returns the running build's identity.
func Build() BuildInfo {
	bi := BuildInfo{
		Module:      "iatf",
		Version:     "(devel)",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SIMDBackend: fmt.Sprintf("portable-neon%d", vec.Width*8),
		GEMMKernel:  kernels.Backend,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Path != "" {
			bi.Module = info.Main.Path
		}
		if info.Main.Version != "" {
			bi.Version = info.Main.Version
		}
	}
	return bi
}

// omWriter accumulates OpenMetrics text, remembering the first write
// error so call sites stay linear.
type omWriter struct {
	w   io.Writer
	err error
}

func (o *omWriter) printf(format string, args ...any) {
	if o.err != nil {
		return
	}
	_, o.err = fmt.Fprintf(o.w, format, args...)
}

// family emits the TYPE line of a metric family.
func (o *omWriter) family(name, kind string) { o.printf("# TYPE %s %s\n", name, kind) }

// counter emits one counter sample; per OpenMetrics the sample name is
// the family name plus the _total suffix.
func (o *omWriter) counter(name, labels string, v uint64) {
	o.printf("%s_total%s %d\n", name, labels, v)
}

func (o *omWriter) gauge(name, labels string, v float64) {
	o.printf("%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// metricsEntry is one stats source of a scrape: shard is the shard
// label value ("" = unlabeled — a set of one, or the aggregate samples
// of a larger set's scrape).
type metricsEntry struct {
	shard string
	st    Stats
}

// lbl renders the entry's engine-level label set ("" or {shard="k"}).
func (m metricsEntry) lbl() string {
	if m.shard == "" {
		return ""
	}
	return labelSet("shard", m.shard)
}

// frag renders the entry's bare label fragment ("" or shard="k").
func (m metricsEntry) frag() string {
	if m.shard == "" {
		return ""
	}
	return labelFrag("shard", m.shard)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelFrag renders a bare k="v",... fragment from alternating key/value
// pairs (no braces — composable into larger label sets).
func labelFrag(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteString(`"`)
	}
	return b.String()
}

// labelSet renders a {k="v",...} label set from alternating key/value
// pairs.
func labelSet(kv ...string) string {
	return "{" + labelFrag(kv...) + "}"
}

// histogram emits one labeled obs.HistSnapshot sample set of a
// cumulative OpenMetrics histogram in seconds (the snapshot's buckets
// are log2 nanoseconds). extra is a comma-joined label fragment
// (`shard="0"`) merged into each bucket's le label; the TYPE line is the
// caller's job so several labeled sample sets can share one family.
func (o *omWriter) histogram(name, extra string, h obs.HistSnapshot) {
	sep := ""
	if extra != "" {
		sep = extra + ","
	}
	cum := uint64(0)
	for _, b := range h.Buckets {
		cum += b.Count
		le := strconv.FormatFloat(float64(b.UpperNs)/1e9, 'g', -1, 64)
		o.printf("%s_bucket{%sle=\"%s\"} %d\n", name, sep, le, cum)
	}
	o.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, h.Count)
	if extra != "" {
		extra = "{" + extra + "}"
	}
	o.printf("%s_sum%s %s\n", name, extra, strconv.FormatFloat(float64(h.SumNs)/1e9, 'g', -1, 64))
	o.printf("%s_count%s %d\n", name, extra, h.Count)
}

// WriteOpenMetrics renders one scrape of the set as OpenMetrics text
// (terminated by the mandatory # EOF). A set of one renders its shard's
// state unlabeled. A larger set's families carry the aggregate as
// unlabeled samples plus one shard="k" sample per shard, and the
// iatf_set_* routing families join them, so dashboards graph either
// view from the same scrape without client-side summing. TYPE lines are
// emitted once per family (a valid exposition — concatenating
// per-engine dumps would not be).
func (s *Set) WriteOpenMetrics(w io.Writer) error {
	st := s.Stats()
	if len(st.Shards) == 1 {
		return writeOpenMetrics(w, []metricsEntry{{st: st.Aggregate}}, nil)
	}
	entries := make([]metricsEntry, 0, len(st.Shards)+1)
	entries = append(entries, metricsEntry{st: st.Aggregate})
	for i := range st.Shards {
		entries = append(entries, metricsEntry{shard: strconv.Itoa(st.Shards[i].Shard), st: st.Shards[i].Stats})
	}
	return writeOpenMetrics(w, entries, &st)
}

// writeOpenMetrics is the shared encoder: one TYPE line per family, one
// sample per entry (labeled with the entry's shard when set). set, when
// non-nil, adds the set-level routing/stealing families.
func writeOpenMetrics(w io.Writer, entries []metricsEntry, set *SetStats) error {
	o := &omWriter{w: w}

	bi := Build()
	o.family("iatf_build_info", "gauge")
	o.gauge("iatf_build_info", labelSet(
		"module", bi.Module, "version", bi.Version,
		"go_version", bi.GoVersion, "simd", bi.SIMDBackend, "gemm_kernel", bi.GEMMKernel), 1)
	o.family("iatf_gomaxprocs", "gauge")
	o.gauge("iatf_gomaxprocs", "", float64(bi.GOMAXPROCS))

	counterFams := []struct {
		name string
		get  func(st *Stats) uint64
	}{
		{"iatf_plan_cache_hits", func(st *Stats) uint64 { return st.PlanHits }},
		{"iatf_plan_cache_misses", func(st *Stats) uint64 { return st.PlanMisses }},
		{"iatf_plan_cache_evictions", func(st *Stats) uint64 { return st.PlanEvictions }},
		{"iatf_pack_cache_hits", func(st *Stats) uint64 { return st.PackCache.Hits }},
		{"iatf_pack_cache_builds", func(st *Stats) uint64 { return st.PackCache.Builds }},
		{"iatf_pack_cache_evictions", func(st *Stats) uint64 { return st.PackCache.Evictions }},
		{"iatf_pack_cache_stale", func(st *Stats) uint64 { return st.PackCache.Stale }},
		{"iatf_queue_submitted", func(st *Stats) uint64 { return st.Queue.Submitted }},
		{"iatf_queue_inline", func(st *Stats) uint64 { return st.Queue.Inline }},
		{"iatf_queue_dispatches", func(st *Stats) uint64 { return st.Queue.Dispatches }},
		{"iatf_queue_cancelled", func(st *Stats) uint64 { return st.Queue.Cancelled }},
		{"iatf_queue_rejected", func(st *Stats) uint64 { return st.Queue.Rejected }},
		{"iatf_queue_stolen_batches", func(st *Stats) uint64 { return st.Queue.StolenBatches }},
		{"iatf_queue_stolen_requests", func(st *Stats) uint64 { return st.Queue.StolenReqs }},
		{"iatf_chain_runs", func(st *Stats) uint64 { return st.Chain.Runs }},
		{"iatf_chain_plan_hits", func(st *Stats) uint64 { return st.Chain.PlanHits }},
		{"iatf_chain_plan_misses", func(st *Stats) uint64 { return st.Chain.PlanMisses }},
		{"iatf_chain_scatter_elided", func(st *Stats) uint64 { return st.Chain.ScatterElided }},
		{"iatf_chain_pack_elided", func(st *Stats) uint64 { return st.Chain.PackElided }},
		{"iatf_bufpool_gets", func(st *Stats) uint64 { return st.Buffers.Gets }},
		{"iatf_bufpool_reuses", func(st *Stats) uint64 { return st.Buffers.Reuses }},
		{"iatf_bufpool_allocs", func(st *Stats) uint64 { return st.Buffers.Allocs }},
		{"iatf_bufpool_puts", func(st *Stats) uint64 { return st.Buffers.Puts }},
		{"iatf_bufpool_oversize", func(st *Stats) uint64 { return st.Buffers.Oversize }},
		{"iatf_bufpool_double_puts", func(st *Stats) uint64 { return st.Buffers.DoublePuts }},
		{"iatf_sched_resizes", func(st *Stats) uint64 { return st.Sched.Resizes }},
		{"iatf_sched_parallel_calls", func(st *Stats) uint64 { return st.Sched.ParallelCalls }},
		{"iatf_sched_inline_calls", func(st *Stats) uint64 { return st.Sched.InlineCalls }},
		{"iatf_sched_chunks", func(st *Stats) uint64 { return st.Sched.Chunks }},
		{"iatf_sched_pool_shares", func(st *Stats) uint64 { return st.Sched.PoolShares }},
		{"iatf_sched_overflow_runs", func(st *Stats) uint64 { return st.Sched.OverflowRuns }},
	}
	for _, f := range counterFams {
		o.family(f.name, "counter")
		for i := range entries {
			o.counter(f.name, entries[i].lbl(), f.get(&entries[i].st))
		}
	}

	gaugeFams := []struct {
		name string
		get  func(st *Stats) float64
	}{
		{"iatf_plan_cache_entries", func(st *Stats) float64 { return float64(st.PlanEntries) }},
		{"iatf_pack_cache_entries", func(st *Stats) float64 { return float64(st.PackCache.Entries) }},
		{"iatf_queue_depth", func(st *Stats) float64 { return float64(st.Queue.Depth) }},
		{"iatf_queue_capacity", func(st *Stats) float64 { return float64(st.Queue.Capacity) }},
		{"iatf_queue_depth_high_water", func(st *Stats) float64 { return float64(st.Queue.DepthHighWater) }},
		{"iatf_queue_edf", func(st *Stats) float64 {
			if st.Queue.EDF {
				return 1
			}
			return 0
		}},
		{"iatf_queue_batch_window_seconds", func(st *Stats) float64 { return st.Queue.Window.Seconds() }},
		{"iatf_bufpool_in_use", func(st *Stats) float64 { return float64(st.Buffers.InUse) }},
		{"iatf_sched_workers", func(st *Stats) float64 { return float64(st.Sched.Workers) }},
	}
	for _, f := range gaugeFams {
		o.family(f.name, "gauge")
		for i := range entries {
			o.gauge(f.name, entries[i].lbl(), f.get(&entries[i].st))
		}
	}

	o.family("iatf_queue_wait_seconds", "histogram")
	for i := range entries {
		o.histogram("iatf_queue_wait_seconds", entries[i].frag(), entries[i].st.Queue.Wait)
	}

	if set != nil {
		o.family("iatf_set_shards", "gauge")
		o.gauge("iatf_set_shards", "", float64(len(set.Shards)))
		o.family("iatf_set_fallbacks", "counter")
		o.counter("iatf_set_fallbacks", "", set.Fallbacks)
		o.family("iatf_set_fallback_rejects", "counter")
		o.counter("iatf_set_fallback_rejects", "", set.FallbackRejects)
		o.family("iatf_set_routed", "counter")
		for i := range set.Shards {
			o.counter("iatf_set_routed", labelSet("shard", strconv.Itoa(set.Shards[i].Shard)), set.Shards[i].Routed)
		}
	}

	// Per-shape series: counters and the achieved-vs-ceiling view, one
	// sample per (entry, shape) under shared families. Shard-labeled
	// entries merge shard into the shape label set; the aggregate's
	// merged shapes stay unlabeled.
	type shapeRef struct {
		labels string
		snap   *obs.ShapeSnapshot
	}
	var shapes []shapeRef
	for ei := range entries {
		en := &entries[ei]
		for si := range en.st.Shapes {
			sn := &en.st.Shapes[si]
			shape := fmt.Sprintf("%dx%d", sn.M, sn.N)
			if sn.K > 0 {
				shape += fmt.Sprintf("x%d", sn.K)
			}
			frag := labelFrag("op", sn.Op, "dtype", sn.DType, "mode", sn.Mode, "shape", shape)
			if ef := en.frag(); ef != "" {
				frag = ef + "," + frag
			}
			shapes = append(shapes, shapeRef{labels: "{" + frag + "}", snap: sn})
		}
	}
	shapeCounters := []struct {
		name string
		get  func(s *obs.ShapeSnapshot) uint64
	}{
		{"iatf_shape_calls", func(s *obs.ShapeSnapshot) uint64 { return s.Calls }},
		{"iatf_shape_errors", func(s *obs.ShapeSnapshot) uint64 { return s.Errors }},
		{"iatf_shape_plan_hits", func(s *obs.ShapeSnapshot) uint64 { return s.PlanHits }},
		{"iatf_shape_plan_misses", func(s *obs.ShapeSnapshot) uint64 { return s.PlanMisses }},
		{"iatf_shape_prepack_hits", func(s *obs.ShapeSnapshot) uint64 { return s.PrepackHits }},
		{"iatf_shape_prepack_builds", func(s *obs.ShapeSnapshot) uint64 { return s.PrepackBuilds }},
	}
	for _, c := range shapeCounters {
		o.family(c.name, "counter")
		for _, sr := range shapes {
			o.counter(c.name, sr.labels, c.get(sr.snap))
		}
	}
	shapeGauges := []struct {
		name string
		get  func(s *obs.ShapeSnapshot) float64
	}{
		{"iatf_shape_latency_p50_seconds", func(s *obs.ShapeSnapshot) float64 { return s.P50.Seconds() }},
		{"iatf_shape_latency_p99_seconds", func(s *obs.ShapeSnapshot) float64 { return s.P99.Seconds() }},
		{"iatf_shape_avg_gflops", func(s *obs.ShapeSnapshot) float64 { return s.AvgGFLOPS }},
		{"iatf_shape_best_gflops", func(s *obs.ShapeSnapshot) float64 { return s.BestGFLOPS }},
		{"iatf_shape_ceiling_gflops", func(s *obs.ShapeSnapshot) float64 { return s.CeilingGFLOPS }},
		{"iatf_shape_workers", func(s *obs.ShapeSnapshot) float64 { return float64(s.Workers) }},
		{"iatf_shape_groups_per_batch", func(s *obs.ShapeSnapshot) float64 { return float64(s.GroupsPerBatch) }},
	}
	for _, g := range shapeGauges {
		o.family(g.name, "gauge")
		for _, sr := range shapes {
			o.gauge(g.name, sr.labels, g.get(sr.snap))
		}
	}

	// Per-tenant SLO series, labeled {tenant} (plus shard on shard
	// entries). Families are emitted only when some entry carries tenant
	// accounting, so scrapes of engines without tenants stay unchanged.
	type tenantRef struct {
		labels string
		frag   string
		snap   *obs.TenantSnapshot
	}
	var tenants []tenantRef
	for ei := range entries {
		en := &entries[ei]
		for ti := range en.st.Tenants {
			tn := &en.st.Tenants[ti]
			frag := labelFrag("tenant", tn.Name)
			if ef := en.frag(); ef != "" {
				frag = ef + "," + frag
			}
			tenants = append(tenants, tenantRef{labels: "{" + frag + "}", frag: frag, snap: tn})
		}
	}
	if len(tenants) > 0 {
		tenantCounters := []struct {
			name string
			get  func(t *obs.TenantSnapshot) uint64
		}{
			{"iatf_tenant_requests", func(t *obs.TenantSnapshot) uint64 { return t.Requests }},
			{"iatf_tenant_errors", func(t *obs.TenantSnapshot) uint64 { return t.Errors }},
			{"iatf_tenant_sheds", func(t *obs.TenantSnapshot) uint64 { return t.Sheds }},
			{"iatf_tenant_deadline_hits", func(t *obs.TenantSnapshot) uint64 { return t.DeadlineHits }},
			{"iatf_tenant_deadline_misses", func(t *obs.TenantSnapshot) uint64 { return t.DeadlineMisses }},
		}
		for _, c := range tenantCounters {
			o.family(c.name, "counter")
			for _, tr := range tenants {
				o.counter(c.name, tr.labels, c.get(tr.snap))
			}
		}
		tenantGauges := []struct {
			name string
			get  func(t *obs.TenantSnapshot) float64
		}{
			{"iatf_tenant_class", func(t *obs.TenantSnapshot) float64 { return float64(t.Class) }},
			{"iatf_tenant_slo_objective_seconds", func(t *obs.TenantSnapshot) float64 { return t.Objective.Seconds() }},
			{"iatf_tenant_slo_target", func(t *obs.TenantSnapshot) float64 { return t.Target }},
			{"iatf_tenant_slo_burn_rate", func(t *obs.TenantSnapshot) float64 { return t.BurnRate }},
			{"iatf_tenant_window_requests", func(t *obs.TenantSnapshot) float64 { return float64(t.WindowRequests) }},
			{"iatf_tenant_window_bad", func(t *obs.TenantSnapshot) float64 { return float64(t.WindowBad) }},
		}
		for _, g := range tenantGauges {
			o.family(g.name, "gauge")
			for _, tr := range tenants {
				o.gauge(g.name, tr.labels, g.get(tr.snap))
			}
		}
		o.family("iatf_tenant_latency_seconds", "histogram")
		for _, tr := range tenants {
			o.histogram("iatf_tenant_latency_seconds", tr.frag, tr.snap.Latency)
		}
	}

	o.printf("# EOF\n")
	return o.err
}

// MetricsHandler returns an http.Handler serving WriteOpenMetrics with
// the OpenMetrics content type — mountable at /metrics.
func (s *Set) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		// Headers are already out on error; nothing recoverable mid-stream.
		_ = s.WriteOpenMetrics(w)
	})
}
