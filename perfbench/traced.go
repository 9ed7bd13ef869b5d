package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/serve"
)

// snapshot is the counters a traced phase takes deltas of.
type snapshot struct {
	eng   iatf.EngineStats
	srv   serve.Stats
	mem   runtime.MemStats
	memo  uint64
	pipe  core.PipelineStats
	ctxSw int64
}

func takeSnapshot(w workload) snapshot {
	var s snapshot
	switch x := w.(type) {
	case *compactBatch:
		s.eng = x.eng.Stats()
	case *serveSmall:
		s.eng = x.front.eng.Stats()
		s.srv = x.front.srv.Stats()
	case *queueFused:
		s.eng = x.set.Stats().Aggregate
	}
	runtime.ReadMemStats(&s.mem)
	s.memo = kernelMemoMisses()
	s.pipe = core.PipelineSnapshot()
	s.ctxSw = ctxSwitches()
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced runs the workload untraced and then traced, each for half of
// the measured time, and returns the per-layer metrics and the traced
// phase.
func runTraced(ctx context.Context, cfg config, w workload, setupWall float64, setupMisses uint64) (metrics, *phase, error) {
	m := metrics{}
	half := cfg.seconds / 2
	runtime.GC()
	untraced := w.measure(ctx, half, nil)
	ue2e, urep := untraced.endToEnd(0, 0)

	tr := newTracer()
	if s, ok := w.(*serveSmall); ok {
		// The access log and the handler middleware are fixed when a
		// server is built: restart it traced, warm, for the traced phase.
		s.close()
		if err := s.setup(ctx, tr); err != nil {
			return nil, nil, fmt.Errorf("traced restart: %w", err)
		}
		for pi := range s.first {
			if !bytes.Equal(s.first[pi], s.reqs[pi][0].want) {
				untraced.fail(fmt.Errorf("%s: traced restart: wrong first result", serveSmallCatalog[pi].name()), true)
			}
		}
		tr.reset()
	}
	runtime.GC()
	s0 := takeSnapshot(w)
	traced := w.measure(ctx, half, tr)
	s1 := takeSnapshot(w)
	te2e, trep := traced.endToEnd(0, 0)
	for k, v := range trep {
		te2e[k], ue2e[k] = v, urep[k]
	}
	ops := float64(max(traced.attempted, 1))

	for _, k := range []string{"throughput_gflops", "ops_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_op", "ok_ratio"} {
		m.set("traced."+k, te2e[k].Value, te2e[k].Unit)
		m.set("tracing.overhead."+k, te2e[k].Value-ue2e[k].Value, te2e[k].Unit)
	}

	// Counter deltas over the traced phase.
	e0, e1 := s0.eng, s1.eng
	lookups := float64(e1.PlanHits + e1.PlanMisses + e1.Chain.PlanHits + e1.Chain.PlanMisses -
		e0.PlanHits - e0.PlanMisses - e0.Chain.PlanHits - e0.Chain.PlanMisses)
	m.set("engine.plan_hit_ratio", ratio(float64(e1.PlanHits+e1.Chain.PlanHits-e0.PlanHits-e0.Chain.PlanHits), lookups), "ratio")
	m.set("engine.pack_cache_hit_ratio", ratio(float64(e1.PackCache.Hits-e0.PackCache.Hits),
		float64(e1.PackCache.Hits+e1.PackCache.Builds-e0.PackCache.Hits-e0.PackCache.Builds)), "ratio")
	sub := float64(e1.Queue.Submitted - e0.Queue.Submitted)
	m.set("engine.inline_ratio", ratio(float64(e1.Queue.Inline-e0.Queue.Inline), sub), "ratio")
	m.set("engine.coalesced_ratio", ratio(float64(e1.Queue.Coalesced-e0.Queue.Coalesced), sub), "ratio")
	m.set("engine.max_fused", float64(e1.Queue.MaxFused), "count")
	m.set("engine.set_stolen_ratio", ratio(float64(e1.Queue.StolenReqs-e0.Queue.StolenReqs), sub), "ratio")
	m.set("engine.chain_elided_per_chain", ratio(float64(e1.Chain.ScatterElided+e1.Chain.PackElided-e0.Chain.ScatterElided-e0.Chain.PackElided),
		float64(e1.Chain.Runs-e0.Chain.Runs)), "count")
	execCalls := float64(e1.Sched.InlineCalls + e1.Sched.ParallelCalls - e0.Sched.InlineCalls - e0.Sched.ParallelCalls)
	m.set("core.pipeline_stall_ratio", ratio(float64(s1.pipe.Stalls-s0.pipe.Stalls), float64(s1.pipe.Chunks-s0.pipe.Chunks)), "ratio")
	m.set("core.pipeline_fallback_ratio", ratio(float64(s1.pipe.Fallbacks-s0.pipe.Fallbacks), execCalls), "ratio")
	m.set("sched.parallel_calls_per_op", float64(e1.Sched.ParallelCalls-e0.Sched.ParallelCalls)/ops, "count")
	m.set("bufpool.reuse_ratio", ratio(float64(e1.Buffers.Reuses-e0.Buffers.Reuses), float64(e1.Buffers.Gets-e0.Buffers.Gets)), "ratio")
	reqs := float64(s1.srv.Admitted + s1.srv.Shed + s1.srv.QueueFull + s1.srv.Errors - s0.srv.Admitted - s0.srv.Shed - s0.srv.QueueFull - s0.srv.Errors)
	m.set("serve.shed_ratio", ratio(float64(s1.srv.Shed+s1.srv.QueueFull-s0.srv.Shed-s0.srv.QueueFull), reqs), "ratio")
	m.set("serve.expired_ratio", ratio(float64(s1.srv.Expired-s0.srv.Expired), reqs), "ratio")
	m.set("kopt.memo_misses", float64(setupMisses), "count")
	m.set("kopt.memo_misses_measured", float64(s1.memo-s0.memo), "count")
	m.set("runtime.alloc_bytes_per_op", float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc)/ops, "B")
	m.set("runtime.allocs_per_op", float64(s1.mem.Mallocs-s0.mem.Mallocs)/ops, "count")
	m.set("runtime.gc_per_kop", float64(s1.mem.NumGC-s1.mem.NumForcedGC-s0.mem.NumGC+s0.mem.NumForcedGC)/ops*1000, "count")
	m.set("runtime.gc_pause_ms", float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs)/1e6, "ms")
	m.set("host.steal_pct", traced.clock.steal, "%")
	m.set("host.ctx_switches_per_op", float64(s1.ctxSw-s0.ctxSw)/ops, "count")
	m.set("host.setup_wall_s", setupWall, "s")
	late := 0.0
	if len(traced.lateMs) > 0 {
		late = quantile(traced.lateMs, 0.99)
	}
	m.set("host.generator_late_ms_p99", late, "ms")

	spanMetrics(tr, m)
	if err := layerMetrics(ctx, w, m); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := tr.writeChrome(traceFile(cfg)); err != nil {
		return nil, nil, fmt.Errorf("chrome trace: %w", err)
	}
	// The result line counts the ops of both halves.
	traced.attempted += untraced.attempted
	traced.failed += untraced.failed
	traced.wrong += untraced.wrong
	if traced.firstErr == nil {
		traced.firstErr = untraced.firstErr
	}
	return m, traced, nil
}

// opTrace is one op's spans: the benchmark's outermost span (root), the
// layer call inside it (mid: iatf.Do, or serve.handler), and the engine
// span with its phases.
type opTrace struct {
	root, mid, eng time.Duration
	hasMid, hasEng bool
	phases         [6]time.Duration
}

// spanMetrics computes self time per layer (a span's duration minus its
// child spans) and the engine phase quantiles.
func spanMetrics(tr *tracer, m metrics) {
	// A handler's access-log line can land after its client has its
	// response.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type key struct {
		op  int
		key string
	}
	ops := map[key]*opTrace{}
	get := func(k key) *opTrace {
		o := ops[k]
		if o == nil {
			o = &opTrace{}
			ops[k] = o
		}
		return o
	}
	var handler, wire []float64
	for _, s := range tr.spans {
		o := get(key{s.op, s.key})
		d := s.end.Sub(s.start)
		switch {
		case s.name == "serve.handler":
			o.mid += d
			o.hasMid = true
			handler = append(handler, float64(d)/1e6)
		case s.parent == 0:
			o.root += d
		default:
			o.mid += d
			o.hasMid = true
		}
	}
	phaseUs := make([][]float64, 6)
	var queueMs []float64
	for _, e := range tr.engine {
		o := get(key{e.op, e.key})
		o.eng += e.dur()
		o.hasEng = true
		for i, p := range e.phases {
			o.phases[i] += p
			phaseUs[i] = append(phaseUs[i], float64(p)/1e3)
		}
		queueMs = append(queueMs, float64(e.phases[0])/1e6)
	}
	var total, bench, mid, other float64
	var phase [6]float64
	var handlerSum, wireSum float64
	for _, o := range ops {
		if o.root == 0 || !o.hasEng {
			continue
		}
		total += float64(o.root)
		inner := o.eng
		if o.hasMid {
			inner = o.mid
			mid += float64(o.mid - o.eng)
		}
		bench += float64(o.root - inner)
		var ph time.Duration
		for i, p := range o.phases {
			phase[i] += float64(p)
			ph += p
		}
		other += float64(o.eng - ph)
		if o.hasMid && len(handler) > 0 {
			wire = append(wire, float64(o.mid-o.eng)/1e6)
			handlerSum += float64(o.mid)
			wireSum += float64(o.mid - o.eng)
		}
	}
	midName := "self.iatf_share"
	if len(handler) > 0 {
		midName = "self.serve_share"
		m.set("self.iatf_share", 0, "ratio")
	} else {
		m.set("self.serve_share", 0, "ratio")
	}
	m.set("self.bench_share", ratio(bench, total), "ratio")
	m.set(midName, ratio(mid, total), "ratio")
	for i, name := range []string{"engine.queue_wait", "engine.fuse", "engine.plan", "engine.pack", "core.compute", "engine.scatter"} {
		m.set("self."+name+"_share", ratio(phase[i], total), "ratio")
	}
	m.set("self.engine.other_share", ratio(other, total), "ratio")

	p50 := func(i int) float64 { return quantile(phaseUs[i], 0.5) }
	m.set("engine.phase.queue_wait_us_p50", p50(0), "us")
	m.set("engine.phase.plan_us_p50", p50(2), "us")
	m.set("engine.phase.pack_us_p50", p50(3), "us")
	m.set("engine.phase.compute_us_p50", p50(4), "us")
	m.set("engine.phase.scatter_us_p50", p50(5), "us")
	m.set("engine.queue_wait_ms_p50", quantile(queueMs, 0.5), "ms")
	m.set("engine.queue_wait_ms_p99", tailQuantile(queueMs, 0.99), "ms")
	m.set("serve.handler_ms_p50", quantile(handler, 0.5), "ms")
	m.set("serve.wire_ms_p50", quantile(wire, 0.5), "ms")
	m.set("serve.wire_share", ratio(wireSum, handlerSum), "ratio")
}

// layerMetrics times single layers directly: the microkernels against
// the running host's multiply-add peak, the core executor and a naive baseline
// for every compact-batch call, cold plan builds, the layout
// conversions, and the workload's representative problem at each depth
// from microkernel to loopback HTTP.
func layerMetrics(ctx context.Context, w workload, m metrics) error {
	rng := rand.New(rand.NewSource(7))
	peak := fmaPeak()
	m.set("host.fma_peak_gflops", peak, "GFLOP/s")
	kr := kernelRates()
	for _, name := range sortedKeys(kr) {
		m.set("kernels.gflops."+name, kr[name], "GFLOP/s")
		m.set("kernels.peak_frac."+name, ratio(kr[name], peak), "ratio")
	}
	for _, p := range compactBatchCalls {
		call, err := newCoreCase(p, rng)
		if err != nil {
			return err
		}
		var runErr error
		d := timePerCall(func() { keep(&runErr, call()) })
		if runErr != nil {
			return runErr
		}
		m.set("core.exec_gflops."+p.name(), gflopsOf(p.flops(), d), "GFLOP/s")
		m.set("baseline.naive_gflops."+p.name(), naiveRate(p, rng), "GFLOP/s")
	}
	planMs, err := coldPlanMs(w.problems())
	if err != nil {
		return err
	}
	m.set("core.plan_build_ms", planMs, "ms")
	pack, unpack := packRates(serveSmallCatalog, rng)
	m.set("layout.pack_gbps", pack, "GB/s")
	m.set("layout.unpack_gbps", unpack, "GB/s")

	wf, err := waterfall(ctx, w.representative(), rng)
	if err != nil {
		return err
	}
	for _, depth := range []string{"kernel", "core", "do", "submit", "set", "http"} {
		m.set("waterfall."+depth+"_us", wf[depth], "us")
	}
	m.set("engine.dispatch_us", wf["do"]-wf["core"], "us")
	return nil
}

// waterfall times one problem (a real GEMM) at six depths: microkernel,
// core executor, warm sync Do, Submit, EngineSet and a loopback POST. A is
// prepacked at every in-process depth, as the workloads' steady state has
// it.
func waterfall(ctx context.Context, p problem, rng *rand.Rand) (map[string]float64, error) {
	core, err := newCoreCase(p, rng)
	if err != nil {
		return nil, err
	}
	var runErr error
	fns := []func(){kernelLoop(p, rng), func() { keep(&runErr, core()) }}
	var api []func()
	var stop func()
	if p.dt == 's' {
		api, stop, err = waterfallAPI[float32](ctx, p, rng, &runErr)
	} else {
		api, stop, err = waterfallAPI[float64](ctx, p, rng, &runErr)
	}
	if err != nil {
		return nil, err
	}
	defer stop()
	ds := timeCalls(append(fns, api...)...)
	if runErr != nil {
		return nil, runErr
	}
	out := map[string]float64{}
	for i, depth := range []string{"kernel", "core", "do", "submit", "set", "http"} {
		out[depth] = float64(ds[i]) / 1e3
	}
	return out, nil
}

func keep(dst *error, err error) {
	if err != nil && *dst == nil {
		*dst = err
	}
}

// waterfallAPI returns p as a warm sync Do, a Submit, an EngineSet Submit
// and a loopback POST, and the func that stops the server.
func waterfallAPI[T float32 | float64](ctx context.Context, p problem, rng *rand.Rand, runErr *error) ([]func(), func(), error) {
	ar, ac := p.aDims()
	br, bc := p.bDims()
	cr, cc := p.cDims()
	a := toCompact(randVals[T](rng, p.count*ar*ac), p.count, ar, ac)
	prepack(a)
	req := gemmReq(false, false, T(1), a, toCompact(randVals[T](rng, p.count*br*bc), p.count, br, bc),
		T(0), toCompact(randVals[T](rng, p.count*cr*cc), p.count, cr, cc))
	eng, _ := newEngineTarget()
	set, _ := newSetTarget(defaultShards())
	submitWait := func(t target) func() {
		return func() {
			f, err := submit(ctx, t, req, nil)
			if err == nil {
				err = wait(ctx, f)
			}
			keep(runErr, err)
		}
	}
	front, err := startFront(nil, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	body := makeServeReq[T](rng, p).body
	var buf bytes.Buffer
	return []func(){
		func() { keep(runErr, do(ctx, eng, req, nil)) },
		submitWait(eng),
		submitWait(set),
		func() {
			_, _, err := front.post(ctx, body, -1, &buf)
			keep(runErr, err)
		},
	}, front.stop, nil
}

// footprints reports each compact-batch call's operand footprint as a
// share of the 4 MiB L2, on its own output line.
func footprints() map[string]float64 {
	out := map[string]float64{}
	for _, p := range compactBatchCalls {
		out[p.name()] = float64(p.footprintBytes()) / (4 << 20)
	}
	return out
}
