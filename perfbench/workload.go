package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one seeded traffic pattern. newWorkload generates every
// input from the seed; setup runs from engine construction until each
// distinct problem has returned its first result (the caller times it);
// verify then checks those first results against the oracle; measure
// drives the measured phase.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	verify() error
	measure(ctx context.Context, seconds float64, tr *tracer) *phase
	problems() []problem
	// representative is the problem the traced run's waterfall times at
	// every depth.
	representative() problem
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "compact-batch":
		return newCompactBatch(seed), nil
	case "serve-small":
		return newServeSmall(seed), nil
	case "queue-fused":
		return newQueueFused(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want compact-batch, serve-small or queue-fused)", name)
}

// opRec is one op of a measured phase: how long it took, its useful work
// and whether it succeeded.
type opRec struct {
	lat   time.Duration
	flops float64
	ok    bool
}

// phase is the outcome of one measured phase.
type phase struct {
	clock     phaseClock
	ops       []opRec
	attempted int
	failed    int
	wrong     int
	firstErr  error
	lateMs    []float64 // open-loop generator lateness
}

func (p *phase) fail(err error, wrong bool) {
	p.failed++
	if wrong {
		p.wrong++
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds per-goroutine phases into p.
func (p *phase) merge(o *phase) {
	p.ops = append(p.ops, o.ops...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// latencies returns the per-op latencies in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = float64(o.lat) / 1e6
	}
	return out
}

// endToEnd returns the end-to-end metrics of one phase, which
// BENCHMARK.json gates, and beside them the wall-clock speed, which is
// reported but not gated: between runs of unchanged code, hypervisor
// steal moved it by more than 0.25, the widest bound BENCHMARK.json takes,
// while the process CPU the gated cost counts never includes steal (see
// NOTES.md).
func (p *phase) endToEnd(setupS, memMiB float64) (gated, reported metrics) {
	okOps, flops := 0.0, 0.0
	for _, o := range p.ops {
		if o.ok {
			okOps++
			flops += o.flops
		}
	}
	attempted := float64(max(p.attempted, 1))
	wall := p.clock.wall.Seconds()
	lat := p.latencies()
	gated = metrics{}
	gated.set("setup_s", setupS, "s")
	gated.set("cpu_ms_per_op", float64(p.clock.cpu)/1e6/attempted, "ms")
	gated.set("ok_ratio", float64(p.attempted-p.failed)/attempted, "ratio")
	gated.set("mem_peak_mb", memMiB, "MiB")
	reported = metrics{}
	reported.set("throughput_gflops", flops/wall/1e9, "GFLOP/s")
	reported.set("ops_per_s", okOps/wall, "1/s")
	reported.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	reported.set("latency_p99_ms", tailQuantile(lat, 0.99), "ms")
	reported.set("host.steal_pct", p.clock.steal, "%")
	reported.set("host.stolen_active_pct", 100*p.clock.stolen, "%")
	return gated, reported
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
