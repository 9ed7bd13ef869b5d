// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one seeded workload in a fresh process on private
// engines, checks every result, and prints one JSON line of metrics:
//
//	perfbench -workload compact-batch -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run; with
// -trace 1 it runs the workload untraced and then traced, and prints the
// per-layer metrics, the tracing overhead and a Chrome trace file. See
// NOTES.md for the workloads, the metric definitions and the noise
// evidence behind the bounds. run.py builds it and is the entry point.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many extra cold processes each untraced run sets up
// in; setup_s is the median over them and the run's own set-up.
const setupProbes = 4

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	probe    bool
	self     string // this binary, for set-up probes ("" = none)
	// tamper, when set, corrupts results of the measured phase (tests).
	tamper func(workload)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "compact-batch, serve-small or queue-fused")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".", "where the traced run writes its Chrome trace")
	flag.BoolVar(&cfg.probe, "setup-probe", false, "set up once, print the set-up CPU seconds and exit")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.self, _ = os.Executable()
	os.Exit(run(cfg, os.Stdout))
}

// run executes one invocation and returns the exit code: 0 when every
// checked result was correct, 1 on a wrong result, 2 when the run could
// not be carried out.
func run(cfg config, stdout io.Writer) int {
	ctx := context.Background()
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	runtime.GC()
	memo0 := kernelMemoMisses()
	wall0, cpu0 := time.Now(), cpuNow()
	if err := w.setup(ctx, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 2
	}
	setupCPU, setupWall := (cpuNow() - cpu0).Seconds(), time.Since(wall0).Seconds()
	setupMisses := kernelMemoMisses() - memo0
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong result at set-up:", err)
		return 1
	}
	if cfg.probe {
		fmt.Fprintf(stdout, "%.6f\n", setupCPU)
		return 0
	}
	if cfg.tamper != nil {
		cfg.tamper(w)
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	json.NewEncoder(out).Encode(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(),
	})

	var res result
	var ph *phase
	if cfg.trace {
		var lm metrics
		if lm, ph, err = runTraced(ctx, cfg, w, setupWall, setupMisses); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 2
		}
		res.Metrics = lm
		json.NewEncoder(out).Encode(map[string]any{
			"host.steal_pct": ph.clock.steal, "ctx_switches": ph.clock.ctxSw, "gc_count": ph.clock.gcs,
			"compact_batch_l2_share": footprints(), "chrome_trace": traceFile(cfg),
		})
	} else {
		samples := []float64{setupCPU}
		for i := 0; i < setupProbes && cfg.self != ""; i++ {
			s, err := probeSetup(ctx, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
				return 2
			}
			samples = append(samples, s)
		}
		peak := fmaPeak()
		runtime.GC()
		ph = w.measure(ctx, cfg.seconds, nil)
		var reported metrics
		res.Metrics, reported = ph.endToEnd(median(samples), peakRSSMiB())
		json.NewEncoder(out).Encode(map[string]any{
			"reported": reported, "ctx_switches": ph.clock.ctxSw, "gc_count": ph.clock.gcs,
			"host.fma_peak_gflops": peak, "setup_cpu_samples_s": samples, "setup_wall_s": setupWall,
		})
	}
	res.Attempted, res.Failed, res.Correct = ph.attempted, ph.failed, ph.wrong == 0
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", ph.firstErr)
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// probeSetup sets the workload up in a fresh process of this binary and
// returns its set-up CPU seconds, so setup_s is a median over cold
// processes rather than one sample.
func probeSetup(ctx context.Context, cfg config) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.self, "-setup-probe", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
}
