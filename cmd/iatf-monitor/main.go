// Command iatf-monitor is the live monitoring surface of the serving
// engine: a small admin HTTP server exposing
//
//	/metrics      OpenMetrics text for Prometheus-style scraping
//	/debug/vars   expvar JSON (engine stats published as "iatf.engine")
//	/debug/pprof  the standard pprof profiles; with -labels, CPU samples
//	              carry {op, dtype, shape} labels
//	/trace?n=K    the K most recent request spans as Chrome trace-event
//	              JSON (load in chrome://tracing or ui.perfetto.dev)
//	/trace?id=X   only the spans belonging to trace/span id X
//	/spans?n=K    the same spans as plain JSON (?id= works here too)
//	/tenants      per-tenant SLO series as JSON (requests, sheds,
//	              deadline hits/misses, latency quantiles, burn rate)
//
// With -demo the process drives a continuous mixed workload through the
// monitored engine so every surface has live traffic — the demo requests
// are tagged with rt/batch tenants and carry trace ids, so /tenants and
// /trace?id= have data out of the box; without it, the server monitors
// whatever workload the embedding process runs (this command is then
// mostly a reference for wiring the handlers into your own server).
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iatf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iatf-monitor: ")
	var (
		addr    = flag.String("addr", "localhost:9090", "listen address")
		demo    = flag.Bool("demo", false, "drive a continuous demo workload so every surface has traffic")
		ring    = flag.Int("ring", 512, "spans retained for /trace and /spans")
		labels  = flag.Bool("labels", false, "apply pprof labels (op/dtype/shape) around compute")
		once    = flag.Bool("once", false, "with -demo: run one workload round, print the surfaces, exit (smoke test)")
		shards  = flag.Int("shards", 0, "serve a sharded EngineSet of N shards instead of the default engine")
		tenants = tenantFlag{}
	)
	flag.Var(tenants, "tenant", "tenant SLO spec name=class[:objective_ms[:target]] (repeatable; default rt/batch demo objectives)")
	flag.Parse()

	// Accounting is always on: with no -tenant flags the demo classes
	// get sensible default objectives so the burn-rate surfaces are live.
	if len(tenants) == 0 {
		tenants["rt"] = iatf.TenantObjective{Class: 5, Objective: 50 * time.Millisecond, Target: 0.99}
		tenants["batch"] = iatf.TenantObjective{Class: -1}
	}

	// Sharded mode covers the whole set on every surface: spans from
	// every shard land in one ring, /metrics carries per-shard +
	// aggregate families, and expvar publishes the aggregate stats.
	eng := iatf.DefaultEngine()
	if *shards > 0 {
		eng = iatf.NewEngineSet(*shards).Engine
	}
	spans := iatf.NewSpanRing(*ring)
	eng.SetSpanSink(spans.Add)
	eng.SetProfileLabels(*labels)
	eng.SetTenants(tenants)
	expvar.Publish("iatf.engine", expvar.Func(func() any { return eng.Stats() }))

	if *demo {
		if *once {
			demoRound(eng)
			smoke(eng, spans)
			return
		}
		go func() {
			for {
				demoRound(eng)
				time.Sleep(200 * time.Millisecond)
			}
		}()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "iatf-monitor — %+v\n\n", iatf.Build())
		fmt.Fprintln(w, "/metrics      OpenMetrics scrape")
		fmt.Fprintln(w, "/debug/vars   expvar JSON")
		fmt.Fprintln(w, "/debug/pprof  pprof profiles")
		fmt.Fprintln(w, "/trace?n=K    Chrome trace-event JSON of recent spans (?id=X filters one trace)")
		fmt.Fprintln(w, "/spans?n=K    recent spans as JSON (?id=X filters one trace)")
		fmt.Fprintln(w, "/tenants      per-tenant SLO series as JSON")
	})
	mux.Handle("/metrics", eng.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := iatf.WriteChromeTrace(w, querySpans(spans, r)); err != nil {
			log.Printf("/trace: %v", err)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(querySpans(spans, r)); err != nil {
			log.Printf("/spans: %v", err)
		}
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ts := eng.TenantStats()
		if ts == nil {
			ts = []iatf.TenantStats{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ts); err != nil {
			log.Printf("/tenants: %v", err)
		}
	})

	log.Printf("listening on http://%s (demo=%v, labels=%v, ring=%d, shards=%d)", *addr, *demo, *labels, *ring, *shards)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// queryN parses the ?n= span-count parameter; 0 means everything
// retained.
func queryN(r *http.Request) int {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// querySpans resolves a /trace or /spans request: ?id=X returns every
// retained span belonging to that trace (request trace id, span id, or
// a chain's parent span id), else the most recent ?n= spans.
func querySpans(spans *iatf.SpanRing, r *http.Request) []iatf.Span {
	if id := r.URL.Query().Get("id"); id != "" {
		return spans.Trace(id)
	}
	return spans.Spans(queryN(r))
}

// tenantFlag accumulates repeated -tenant name=class[:objective_ms[:target]]
// specs (iatf.ParseTenantSpec syntax).
type tenantFlag map[string]iatf.TenantObjective

func (t tenantFlag) String() string {
	parts := make([]string, 0, len(t))
	for k, v := range t {
		parts = append(parts, fmt.Sprintf("%s=%d:%g:%g", k, v.Class,
			float64(v.Objective)/float64(time.Millisecond), v.Target))
	}
	return strings.Join(parts, ",")
}

func (t tenantFlag) Set(s string) error {
	name, obj, err := iatf.ParseTenantSpec(s)
	if err != nil {
		return err
	}
	t[name] = obj
	return nil
}

// demoTrace counts demo requests so each carries a distinct, greppable
// 32-hex trace id ("00000000000000000000000000000001", ...) — /trace?id=
// then resolves any of them.
var demoTrace atomic.Uint64

func nextTrace() string {
	return fmt.Sprintf("%032x", demoTrace.Add(1))
}

// demoRound runs one burst of mixed traffic: a few sync GEMMs with
// prepacked operands and a triangular solve as tenant "rt" (with a
// 50 ms deadline so deadline accounting is live), and a concurrent
// async burst as tenant "batch" that exercises the queue.
// Every request runs on eng and carries a trace id.
func demoRound(eng *iatf.Engine) {
	rt := func() []iatf.Option {
		return []iatf.Option{iatf.WithEngine(eng), iatf.WithTenant("rt"), iatf.WithTrace(nextTrace())}
	}
	rtCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	const count = 4096
	a := iatf.Pack(iatf.NewBatch[float32](count, 8, 8))
	b := iatf.Pack(iatf.NewBatch[float32](count, 8, 8))
	c := iatf.Pack(iatf.NewBatch[float32](count, 8, 8))
	a.Prepack()
	b.Prepack()
	greq := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
	for i := 0; i < 4; i++ {
		if err := iatf.Do(rtCtx, greq, append(rt(), iatf.WithWorkers(0))...); err != nil {
			log.Fatal(err)
		}
	}

	tri := iatf.NewBatch[float32](count, 8, 8)
	for mi := 0; mi < count; mi++ {
		for i := 0; i < 8; i++ {
			tri.Set(mi, i, i, 2)
		}
	}
	ct, cb := iatf.Pack(tri), iatf.Pack(iatf.NewBatch[float32](count, 8, 4))
	treq := iatf.Request[float32]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Lower,
		TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: ct, B: cb}
	if err := iatf.Do(rtCtx, treq, rt()...); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ga := iatf.Pack(iatf.NewBatch[float32](count/4, 6, 6))
		gb := iatf.Pack(iatf.NewBatch[float32](count/4, 6, 6))
		gc := iatf.Pack(iatf.NewBatch[float32](count/4, 6, 6))
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: ga, B: gb, C: gc}
			for i := 0; i < 8; i++ {
				if err := iatf.Do(context.Background(), req, iatf.WithEngine(eng), iatf.WithAsync(),
					iatf.WithTenant("batch"), iatf.WithTrace(nextTrace())); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
}

// smoke prints each surface once to stdout — the -demo -once form used
// as a no-network sanity check. It fails when a demo tenant saw no
// request or the first demo trace left no span.
func smoke(eng *iatf.Engine, spans *iatf.SpanRing) {
	fmt.Printf("# build: %+v\n", iatf.Build())
	if err := eng.WriteMetrics(log.Writer()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# spans captured: %d (ring %d)\n", spans.Total(), len(spans.Spans(0)))
	if err := iatf.WriteChromeTrace(log.Writer(), spans.Spans(8)); err != nil {
		log.Fatal(err)
	}
	requests := map[string]uint64{}
	for _, t := range eng.TenantStats() {
		fmt.Printf("# tenant %s: requests=%d sheds=%d hits=%d misses=%d p99=%v burn=%.3f\n",
			t.Name, t.Requests, t.Sheds, t.DeadlineHits, t.DeadlineMisses,
			time.Duration(t.Latency.P99), t.BurnRate)
		requests[t.Name] = t.Requests
	}
	for _, name := range []string{"rt", "batch"} {
		if requests[name] == 0 {
			log.Fatalf("demo tenant %s: no requests recorded", name)
		}
	}
	if id := fmt.Sprintf("%032x", uint64(1)); len(spans.Trace(id)) == 0 {
		log.Fatalf("trace lookup: no spans for demo trace %s", id)
	}
}
