// Command iatf-info inspects the install-time artifacts and run-time
// decisions of the framework: the Table 1 kernel registry, the Table 2
// machine models, the Figure 4 tiling comparison, CMAR analysis (Eq. 2/3)
// and concrete execution-plan decisions for a given problem.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/ktmpl"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iatf-info: ")
	var (
		kernelsF  = flag.Bool("kernels", false, "print the Table 1 kernel registry")
		machinesF = flag.Bool("machines", false, "print the Table 2 machine models")
		cmarF     = flag.Bool("cmar", false, "print the CMAR kernel-size analysis (Eq. 2/3)")
		tilingF   = flag.Int("tiling", 0, "print the Figure 4 tiling comparison for an N×N SGEMM")
		planM     = flag.Int("m", 0, "with -plan*: matrix rows")
		planN     = flag.Int("n", 0, "with -plan*: matrix cols")
		planK     = flag.Int("k", 0, "with -plan-gemm: reduction length")
		planType  = flag.String("type", "s", "with -plan*: data type")
		planGEMM  = flag.Bool("plan-gemm", false, "print the execution-plan decisions for a GEMM problem")
		planTRSM  = flag.Bool("plan-trsm", false, "print the execution-plan decisions for a TRSM problem")
		planTRMM  = flag.Bool("plan-trmm", false, "print the execution-plan decisions for a TRMM problem (extension)")
		tuneF     = flag.Bool("tune", false, "empirically autotune the GEMM tiling for -m/-n/-k on the cycle model")
		engineF   = flag.Bool("engine", false, "run a demo workload through the default engine and print its counters")
		jsonF     = flag.Bool("json", false, "with -engine: emit the snapshot as JSON instead of a table")
		metricsF  = flag.Bool("metrics", false, "run the demo workload and emit the engine state as OpenMetrics text")
		tenantsF  = flag.Bool("tenants", false, "run a tenant-tagged demo workload and print the per-tenant SLO table")
		shardsF   = flag.Int("shards", 0, "with -engine/-metrics: route the demo through a sharded EngineSet of N shards")
		count     = flag.Int("count", 16384, "batch size for plan queries")
	)
	flag.Parse()

	any := false
	if *kernelsF {
		printKernels()
		any = true
	}
	if *machinesF {
		printMachines()
		any = true
	}
	if *cmarF {
		printCMAR()
		any = true
	}
	if *tilingF > 0 {
		printTiling(*tilingF)
		any = true
	}
	if *planGEMM || *planTRSM || *planTRMM || *tuneF {
		dt, err := vec.ParseDType(*planType)
		if err != nil {
			log.Fatal(err)
		}
		if *planGEMM {
			printGEMMPlan(dt, *planM, *planN, *planK, *count)
		}
		if *planTRSM {
			printTRSMPlan(dt, *planM, *planN, *count)
		}
		if *planTRMM {
			printTRMMPlan(dt, *planM, *planN, *count)
		}
		if *tuneF {
			printTune(dt, *planM, *planN, *planK, *count)
		}
		any = true
	}
	// The -engine and -metrics demos run on one engine: the default one,
	// or a set of -shards shards, whose per-shard table -engine prints.
	eng := iatf.DefaultEngine()
	var set *iatf.EngineSet
	if *shardsF > 0 {
		set = iatf.NewEngineSet(*shardsF)
		eng = set.Engine
	}
	if *engineF || *metricsF {
		demoWorkload(eng)
	}
	if *engineF {
		if set != nil {
			printEngineSet(set.Stats(), *jsonF)
		} else {
			printEngine(eng, *jsonF)
		}
		any = true
	}
	if *metricsF {
		if err := eng.WriteMetrics(os.Stdout); err != nil {
			log.Fatal(err)
		}
		any = true
	}
	if *tenantsF {
		printTenants(*jsonF)
		any = true
	}
	if !any {
		printKernels()
		fmt.Println()
		printMachines()
	}
}

// demoWorkload drives eng with a mixed workload covering all four
// engine ops — repeated GEMM, TRSM, TRMM and SYRK on a handful of
// shapes — plus a batched factorization, a chain and an async
// submission burst, so every counter surface has traffic (and, on a
// set, several identities spread over the shards). Shared by -engine
// and -metrics.
func demoWorkload(eng *iatf.Engine) {
	const count = 16384
	ctx := context.Background()
	do := func(req iatf.Request[float32], workers int) {
		if err := iatf.Do(ctx, req, iatf.WithEngine(eng), iatf.WithWorkers(workers)); err != nil {
			log.Fatal(err)
		}
	}
	gemm := func(m, n, k int, prepack bool) {
		a := iatf.NewBatch[float32](count, m, k)
		b := iatf.NewBatch[float32](count, k, n)
		c := iatf.NewBatch[float32](count, m, n)
		for mi := 0; mi < count; mi++ {
			for i := 0; i < m; i++ {
				for j := 0; j < k && j < m; j++ {
					a.Set(mi, i, j, float32(i+j+1))
				}
			}
		}
		ca, cb, cc := iatf.Pack(a), iatf.Pack(b), iatf.Pack(c)
		if prepack {
			// A and B are reused across every call: opt into packed-operand
			// reuse so the pack cache shows up in the counters.
			ca.Prepack()
			cb.Prepack()
		}
		// Auto workers (GOMAXPROCS), then an explicit 2-worker pass so the
		// persistent pool shows up in the counters even on one CPU.
		req := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: ca, B: cb, C: cc}
		for _, w := range []int{0, 0, 0, 0, 0, 0, 0, 2} {
			do(req, w)
		}
	}
	diagBatch := func(m int) *iatf.Compact[float32] {
		a := iatf.NewBatch[float32](count, m, m)
		for mi := 0; mi < count; mi++ {
			for i := 0; i < m; i++ {
				a.Set(mi, i, i, 2)
			}
		}
		return iatf.Pack(a)
	}
	tri := func(solve bool, m, n int) {
		ca := diagBatch(m)
		ca.Prepack() // the triangle is reused across calls
		cb := iatf.Pack(iatf.NewBatch[float32](count, m, n))
		req := iatf.Request[float32]{Op: iatf.OpTRMM, Side: iatf.Left, Uplo: iatf.Lower,
			TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: ca, B: cb}
		if solve {
			req.Op = iatf.OpTRSM
		}
		for _, w := range []int{0, 0, 0, 0, 0, 0, 0, 2} {
			do(req, w)
		}
	}
	syrk := func(n, k int) {
		ca := iatf.Pack(iatf.NewBatch[float32](count, n, k))
		cc := iatf.Pack(iatf.NewBatch[float32](count, n, n))
		req := iatf.Request[float32]{Op: iatf.OpSYRK, Uplo: iatf.Lower, Alpha: 1, Beta: 1, A: ca, C: cc}
		for _, w := range []int{0, 0, 0, 2} {
			do(req, w)
		}
	}
	// Batched factorization through the factor dispatch path: LU shows up
	// in the plan cache and the per-shape series like the level-3 ops.
	factor := func(n int) {
		a := iatf.NewBatch[float32](count, n, n)
		for mi := 0; mi < count; mi++ {
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					a.Set(mi, i, j, 1)
				}
				a.Set(mi, i, i, float32(n+1))
			}
		}
		ca := iatf.Pack(a)
		for i := 0; i < 4; i++ {
			if _, err := iatf.LU(ca, iatf.WithEngine(eng)); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Async burst: 8 concurrent submitters of one problem through the
	// request API's queue, so the queue counters move under load.
	burst := func(m int) {
		const submitters = 8
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(submitters))
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			a := iatf.Pack(iatf.NewBatch[float32](count/8, m, m))
			b := iatf.Pack(iatf.NewBatch[float32](count/8, m, m))
			c := iatf.Pack(iatf.NewBatch[float32](count/8, m, m))
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
				for i := 0; i < 16; i++ {
					if err := iatf.Do(ctx, req, iatf.WithEngine(eng), iatf.WithAsync()); err != nil {
						log.Fatal(err)
					}
				}
			}()
		}
		wg.Wait()
	}
	// Chained dispatch: a TRMM→TRSM pair over one B, iterated so the
	// chain counters move.
	chain := func(m, n int) {
		ca := diagBatch(m)
		cb := iatf.Pack(iatf.NewBatch[float32](count, m, n))
		for i := 0; i < 4; i++ {
			err := iatf.Chain(ctx, []iatf.Stage[float32]{
				iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, ca, cb),
				iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, ca, cb),
			}, iatf.WithEngine(eng))
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	gemm(8, 8, 8, true)
	gemm(8, 8, 8, true)  // same shape: pure plan- and pack-cache hits
	gemm(6, 5, 7, false) // pack-per-call: A and B packed on every call
	tri(true, 8, 4)
	tri(true, 8, 4)
	tri(false, 8, 4)
	syrk(8, 6)
	factor(8)
	chain(8, 4)
	burst(8)
}

// printEngine prints the engine counters after the demo workload plus
// the per-shape observability table. The snapshot is also published as
// the expvar "iatf.engine", so a process embedding the library can
// expose the same view over /debug/vars.
func printEngine(eng *iatf.Engine, asJSON bool) {
	expvar.Publish("iatf.engine", expvar.Func(func() any { return eng.Stats() }))
	s := eng.Stats()
	if asJSON {
		// The JSON form leads with the build identity so exported dumps
		// are self-describing.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			BuildInfo iatf.BuildInfo   `json:"build_info"`
			Stats     iatf.EngineStats `json:"stats"`
		}{iatf.Build(), s}); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println("# Default engine after a mixed GEMM/TRSM/TRMM/SYRK demo workload")
	fmt.Println(generatedKernels())
	fmt.Println("plan cache:")
	fmt.Printf("  hits %d, misses %d, evictions %d, entries %d\n",
		s.PlanHits, s.PlanMisses, s.PlanEvictions, s.PlanEntries)
	fmt.Println("packing-buffer pools:")
	fmt.Printf("  gets %d (reused %d, allocated %d, oversize %d), puts %d\n",
		s.Buffers.Gets, s.Buffers.Reuses, s.Buffers.Allocs, s.Buffers.Oversize, s.Buffers.Puts)
	for _, cl := range s.Buffers.Classes {
		fmt.Printf("    class %7d elems: gets %d, reused %d, puts %d\n",
			cl.SizeElems, cl.Gets, cl.Reuses, cl.Puts)
	}
	fmt.Println("persistent worker pool:")
	fmt.Printf("  workers %d (resizes %d), parallel calls %d, inline calls %d, chunks %d, pool shares %d, overflow runs %d\n",
		s.Sched.Workers, s.Sched.Resizes, s.Sched.ParallelCalls, s.Sched.InlineCalls,
		s.Sched.Chunks, s.Sched.PoolShares, s.Sched.OverflowRuns)
	fmt.Println("packed-operand cache:")
	fmt.Printf("  hits %d, builds %d, evictions %d, stale %d, entries %d\n",
		s.PackCache.Hits, s.PackCache.Builds, s.PackCache.Evictions,
		s.PackCache.Stale, s.PackCache.Entries)
	fmt.Println("chain dispatch:")
	fmt.Printf("  runs %d, plan hits %d, misses %d\n", s.Chain.Runs, s.Chain.PlanHits, s.Chain.PlanMisses)
	fmt.Println("async submission queue:")
	fmt.Printf("  submitted %d (inline %d), dispatches %d\n",
		s.Queue.Submitted, s.Queue.Inline, s.Queue.Dispatches)
	fmt.Printf("  cancelled %d, rejected %d, depth %d (high-water %d) / capacity %d\n",
		s.Queue.Cancelled, s.Queue.Rejected, s.Queue.Depth, s.Queue.DepthHighWater, s.Queue.Capacity)
	order := "fifo"
	if s.Queue.EDF {
		order = "edf"
	}
	fmt.Printf("  order %s, batch window %v, wait p99 %v\n",
		order, s.Queue.Window, s.Queue.Wait.P99)

	fmt.Println("per-shape series (by call count):")
	fmt.Printf("  %-5s %-2s %-4s %-11s %6s %9s %9s %7s %7s %7s %5s %-6s %4s %3s\n",
		"op", "dt", "mode", "shape", "calls", "p50", "p99",
		"avgGF", "bestGF", "ceilGF", "hit%", "pack", "gpb", "wrk")
	for _, sh := range s.Shapes {
		shape := fmt.Sprintf("%dx%d", sh.M, sh.N)
		if sh.K > 0 {
			shape += fmt.Sprintf("x%d", sh.K)
		}
		fmt.Printf("  %-5s %-2s %-4s %-11s %6d %9v %9v %7.1f %7.1f %7.1f %5.1f %-6s %4d %3d\n",
			sh.Op, sh.DType, sh.Mode, shape, sh.Calls, sh.P50, sh.P99,
			sh.AvgGFLOPS, sh.BestGFLOPS, sh.CeilingGFLOPS, 100*sh.HitRatio(),
			sh.Pack, sh.GroupsPerBatch, sh.Workers)
	}
}

// printTenants drives a tenant-tagged workload through a private engine
// and prints the resulting per-tenant SLO table: "rt" carries a generous
// objective (every request hits), "slow" an intentionally impossible one
// (every request misses, so the burn-rate gauge is visibly non-zero),
// and "batch" no objective at all (tracked, never burned).
func printTenants(asJSON bool) {
	eng := iatf.NewEngine()
	eng.SetTenants(map[string]iatf.TenantObjective{
		"rt":    {Class: 5, Objective: 10 * time.Second, Target: 0.99},
		"slow":  {Class: 0, Objective: time.Nanosecond, Target: 0.999},
		"batch": {Class: -1},
	})

	const count = 4096
	ctx := context.Background()
	run := func(tenant string, m, n int, calls int) {
		a := iatf.Pack(iatf.NewBatch[float32](count, m, n))
		b := iatf.Pack(iatf.NewBatch[float32](count, n, m))
		c := iatf.Pack(iatf.NewBatch[float32](count, m, m))
		req := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
		for i := 0; i < calls; i++ {
			trace := fmt.Sprintf("%016x%016x", len(tenant), i)
			if err := iatf.Do(ctx, req, iatf.WithEngine(eng),
				iatf.WithTenant(tenant), iatf.WithTrace(trace)); err != nil {
				log.Fatal(err)
			}
		}
	}
	run("rt", 8, 8, 16)
	run("slow", 8, 8, 8)
	run("batch", 6, 5, 32)

	ts := eng.TenantStats()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			BuildInfo iatf.BuildInfo     `json:"build_info"`
			Tenants   []iatf.TenantStats `json:"tenants"`
		}{iatf.Build(), ts}); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println("# Per-tenant SLO series after a tagged demo workload")
	fmt.Printf("%-8s %5s %12s %7s %8s %6s %5s %6s %6s %10s %10s %6s\n",
		"tenant", "class", "objective", "target", "requests", "errors", "sheds", "hits", "misses", "p50", "p99", "burn")
	for _, t := range ts {
		obj := "-"
		if t.Objective > 0 {
			obj = t.Objective.String()
		}
		fmt.Printf("%-8s %5d %12s %7.3f %8d %6d %5d %6d %6d %10v %10v %6.2f\n",
			t.Name, t.Class, obj, t.Target, t.Requests, t.Errors, t.Sheds,
			t.DeadlineHits, t.DeadlineMisses,
			time.Duration(t.Latency.P50), time.Duration(t.Latency.P99), t.BurnRate)
	}
}

func printKernels() {
	fmt.Println("# Generated kernel registry (paper Table 1)")
	fmt.Printf("%-8s %-12s %-10s %s\n", "type", "routine", "main", "all sizes")
	for _, dt := range vec.DTypes {
		main := ktmpl.MainGEMMKernel(dt)
		fmt.Printf("%-8s %-12s %dx%-8d", dt.String()+"gemm", "GEMM", main.MC, main.NC)
		for _, s := range ktmpl.GEMMKernelSizes(dt) {
			fmt.Printf(" %dx%d", s.MC, s.NC)
		}
		fmt.Println()
	}
	for _, dt := range vec.DTypes {
		main := ktmpl.MainTRSMKernel(dt)
		fmt.Printf("%-8s %-12s %dx%-8d", dt.String()+"trsm", "TRSM-rect", main.MC, main.NC)
		for _, s := range ktmpl.TRSMRectSizes(dt) {
			fmt.Printf(" %dx%d", s.MC, s.NC)
		}
		fmt.Printf("   (triangular: M ≤ %d register-resident)\n", ktmpl.MaxTriM(dt))
	}
}

func printMachines() {
	fmt.Println("# Machine models (paper Table 2)")
	for _, p := range []machine.Profile{machine.Kunpeng920(), machine.XeonGold6240(), machine.Graviton2()} {
		fmt.Printf("%s:\n", p.Name)
		fmt.Printf("  freq %.1f GHz, SIMD %d bits\n", p.FreqGHz, p.VectorBits)
		fmt.Printf("  peak FP64 %.1f GFLOPS, FP32 %.1f GFLOPS\n",
			p.PeakGFLOPS(vec.D), p.PeakGFLOPS(vec.S))
		fmt.Printf("  issue: %d mem, %d FP32 / %d FP64 ports", p.MemPorts, p.FPPorts32, p.FPPorts64)
		if p.GroupWidth > 0 {
			fmt.Printf(" (coupled: mem+FP ≤ %d per cycle)", p.GroupWidth)
		}
		fmt.Println()
		for _, l := range p.Cache.Levels {
			fmt.Printf("  %s: %d KB, %d-way, %d B lines, %d cycles\n",
				l.Name, l.SizeBytes>>10, l.Ways, l.LineBytes, l.HitCycles)
		}
		fmt.Printf("  memory: %d cycles, %d prefetch streams\n", p.Cache.MemoryCycles, p.Cache.StreamSlots)
	}
}

func printCMAR() {
	fmt.Println("# CMAR kernel-size analysis (Eq. 2/3, 32 vector registers)")
	for _, dt := range []vec.DType{vec.D, vec.Z} {
		kind := "real"
		if dt.IsComplex() {
			kind = "complex"
		}
		fmt.Printf("%s (%s): mc x nc -> registers, CMAR\n", dt, kind)
		for mcv := 1; mcv <= 6; mcv++ {
			for ncv := 1; ncv <= 6; ncv++ {
				regs := ktmpl.RegistersNeeded(dt, mcv, ncv)
				if regs > 32 {
					continue
				}
				fmt.Printf("  %dx%d -> %2d regs, CMAR %.3f\n", mcv, ncv, regs, ktmpl.CMAR(dt, mcv, ncv))
			}
		}
		mc, nc := ktmpl.OptimalKernel(dt)
		fmt.Printf("  optimal: %dx%d\n", mc, nc)
	}
}

func printTiling(n int) {
	fmt.Printf("# Tiling of a %dx%d SGEMM C matrix (paper Figure 4)\n", n, n)
	// Traditional: M-vectorized 12-row and 4-row strips, 8/4-wide tiles.
	fmt.Println("traditional (per-matrix, M-vectorized):")
	tradM := ktmpl.SplitDim(n, []int{12, 8, 4, 2, 1})
	tradN := ktmpl.SplitDim(n, []int{8, 4, 2, 1})
	fmt.Printf("  row strips %v × col tiles %v = %d kernels, %d full-SIMD\n",
		tradM, tradN, len(tradM)*len(tradN), countFull(tradM, 4)*len(tradN))
	fmt.Println("compact (SIMD-friendly layout):")
	cm := ktmpl.SplitDim(n, ktmpl.MTiles(vec.S))
	cn := ktmpl.SplitDim(n, ktmpl.NTiles(vec.S))
	fmt.Printf("  row tiles %v × col tiles %v = %d kernels, all full-SIMD\n",
		cm, cn, len(cm)*len(cn))
}

func countFull(tiles []int, vl int) int {
	c := 0
	for _, t := range tiles {
		if t%vl == 0 {
			c++
		}
	}
	return c
}

func printGEMMPlan(dt vec.DType, m, n, k, count int) {
	if m < 1 || n < 1 || k < 1 {
		log.Fatal("-plan-gemm requires -m, -n, -k")
	}
	p := core.GEMMProblem{DT: dt, M: m, N: n, K: k, Alpha: 1, Beta: 1, Count: count}
	pl, err := core.NewGEMMPlan(p, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Execution plan: %sgemm %dx%dx%d, batch %d\n", dt, m, n, k, count)
	fmt.Printf("  M tiles: %v\n", pl.MTiles)
	fmt.Printf("  N tiles: %v\n", pl.NTiles)
	fmt.Printf("  pack A: %v (no-packing fast path when false)\n", pl.PackA)
	ldbk, ldbc := pl.BStrides(pl.NTiles[0])
	fmt.Printf("  pack B: %v (read in place: block (l, j) at l·%d + j·%d blocks)\n", pl.PackB, ldbk, ldbc)
	fmt.Printf("  super-batch: %d interleave groups (%d matrices)\n",
		pl.GroupsPerBatch, pl.GroupsPerBatch*dt.Pack())
	ins, err := pl.Instructions()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  kernel instructions per group: %d\n", ins)
}

func printTRMMPlan(dt vec.DType, m, n, count int) {
	if m < 1 || n < 1 {
		log.Fatal("-plan-trmm requires -m, -n")
	}
	p := core.TRMMProblem{DT: dt, M: m, N: n, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: count}
	pl, err := core.NewTRMMPlan(p, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Execution plan: %strmm LNLN %dx%d, batch %d (extension)\n", dt, m, n, count)
	fmt.Printf("  panels: %v\n", pl.Panels)
	fmt.Printf("  column tiles: %v\n", pl.ColTiles)
	printTriB(&pl.TriGeom)
	fmt.Printf("  super-batch: %d interleave groups\n", pl.GroupsPerBatch)
}

// printTriB prints where a triangular plan's native kernels read B in
// place, as -plan-gemm prints B's strides.
func printTriB(g *core.TriGeom) {
	o, rs, cs := g.BStrides()
	fmt.Printf("  B read in place: block (i, j) at %d + i·%d + j·%d blocks (reverse: %v, transpose: %v)\n",
		o, rs, cs, g.ReverseB, g.TransposeB)
}

func printTune(dt vec.DType, m, n, k, count int) {
	if m < 1 || n < 1 || k < 1 {
		log.Fatal("-tune requires -m, -n, -k")
	}
	p := core.GEMMProblem{DT: dt, M: m, N: n, K: k, Alpha: 1, Beta: 1, Count: count}
	pl, err := core.AutotuneGEMM(p, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	def, err := core.NewGEMMPlan(p, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Autotuned plan: %sgemm %dx%dx%d\n", dt, m, n, k)
	fmt.Printf("  analytic tiling:  M %v × N %v\n", def.MTiles, def.NTiles)
	fmt.Printf("  empirical tiling: M %v × N %v\n", pl.MTiles, pl.NTiles)
}

func printTRSMPlan(dt vec.DType, m, n, count int) {
	if m < 1 || n < 1 {
		log.Fatal("-plan-trsm requires -m, -n")
	}
	p := core.TRSMProblem{DT: dt, M: m, N: n, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: count}
	pl, err := core.NewTRSMPlan(p, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Execution plan: %strsm LNLN %dx%d, batch %d\n", dt, m, n, count)
	fmt.Printf("  panels: %v (register-resident triangle ≤ %d)\n", pl.Panels, ktmpl.MaxTriM(dt))
	fmt.Printf("  column tiles: %v\n", pl.ColTiles)
	printTriB(&pl.TriGeom)
	fmt.Printf("  super-batch: %d interleave groups\n", pl.GroupsPerBatch)
}

// printEngineSet prints a set's per-shard table after the demo workload
// plus the cross-shard aggregate. The JSON form nests the full SetStats:
// a shards array and an aggregate block, led by the build identity.
func printEngineSet(st iatf.EngineSetStats, asJSON bool) {

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			BuildInfo iatf.BuildInfo      `json:"build_info"`
			Set       iatf.EngineSetStats `json:"set"`
		}{iatf.Build(), st}); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("# EngineSet of %d shards after the mixed demo workload\n", len(st.Shards))
	fmt.Println(generatedKernels())
	fmt.Printf("routing: fallbacks %d (rejected %d)\n", st.Fallbacks, st.FallbackRejects)
	fmt.Printf("%-5s %8s %8s %8s %8s %8s %8s %8s %8s %6s\n",
		"shard", "routed", "planHit", "planMiss", "submit", "inline", "dispatch", "stolenB", "stolenR", "shapes")
	for _, sh := range st.Shards {
		fmt.Printf("%-5d %8d %8d %8d %8d %8d %8d %8d %8d %6d\n",
			sh.Shard, sh.Routed, sh.PlanHits, sh.PlanMisses,
			sh.Queue.Submitted, sh.Queue.Inline, sh.Queue.Dispatches,
			sh.Queue.StolenBatches, sh.Queue.StolenReqs, len(sh.Shapes))
	}
	ag := st.Aggregate
	fmt.Println("aggregate:")
	fmt.Printf("  plan cache: hits %d, misses %d, entries %d\n",
		ag.PlanHits, ag.PlanMisses, ag.PlanEntries)
	fmt.Printf("  queue: submitted %d (inline %d), dispatches %d, stolen %d/%d, rejected %d\n",
		ag.Queue.Submitted, ag.Queue.Inline, ag.Queue.Dispatches,
		ag.Queue.StolenBatches, ag.Queue.StolenReqs, ag.Queue.Rejected)
	fmt.Printf("  buffers: gets %d (reused %d), sched parallel calls %d\n",
		ag.Buffers.Gets, ag.Buffers.Reuses, ag.Sched.ParallelCalls)
	fmt.Println("  merged per-shape series (by call count):")
	for _, sh := range ag.Shapes {
		shape := fmt.Sprintf("%dx%d", sh.M, sh.N)
		if sh.K > 0 {
			shape += fmt.Sprintf("x%d", sh.K)
		}
		fmt.Printf("    %-5s %-2s %-4s %-11s calls %6d  p50 %9v  avgGF %7.1f\n",
			sh.Op, sh.DType, sh.Mode, shape, sh.Calls, sh.P50, sh.AvgGFLOPS)
	}
}

// generatedKernels describes the generated machine code this process
// runs (iatf.Build().GEMMKernel) and which of its kernels use 256-bit
// registers.
func generatedKernels() string {
	b := iatf.Build().GEMMKernel
	if b == "amd64-avx" {
		b += " (256-bit AVX: s/d GEMM 4×4; SSE2: the rest)"
	}
	return "generated kernels (GEMM 4×4 and 3×2, TRMM triangle M ≤ 4, TRMM 4×4 rectangle): " + b
}
