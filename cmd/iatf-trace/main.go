// Command iatf-trace renders the cycle-by-cycle issue timeline of a
// generated kernel on the Kunpeng 920 pipeline model — making the effect
// of the kernel optimizer (Figure 5) directly visible: the raw kernel
// shows serialized load bursts and stalled multiply blocks, the optimized
// kernel shows one memory and one calculation instruction retiring per
// cycle.
//
// With -engine it instead traces one batched GEMM through the run-time
// engine. It prints the command queue of the call's plan — packing
// kernels chosen by the Pack Selector, the tile/kernel sequence, the
// Batch Counter's super-batch size and the worker split — followed by
// the request's lifecycle span (where the dispatch's time went, phase by
// phase). -chrome FILE additionally writes the span as Chrome
// trace-event JSON for chrome://tracing.
//
// Usage:
//
//	iatf-trace -type d -mc 4 -nc 4 -k 4            # optimized kernel
//	iatf-trace -type d -mc 4 -nc 4 -k 4 -raw       # unoptimized
//	iatf-trace -cycles 40                          # limit rows
//	iatf-trace -engine -m 8 -n 8 -k 8 -count 4096  # engine command queue
//	iatf-trace -engine -chrome trace.json          # + trace-event dump
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"iatf"
	"iatf/internal/asm"
	"iatf/internal/core"
	"iatf/internal/kopt"
	"iatf/internal/ktmpl"
	"iatf/internal/machine"
	"iatf/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iatf-trace: ")
	var (
		dtype   = flag.String("type", "d", "data type: s, d, c, z")
		mc      = flag.Int("mc", 4, "kernel rows")
		nc      = flag.Int("nc", 4, "kernel columns")
		k       = flag.Int("k", 4, "reduction length")
		raw     = flag.Bool("raw", false, "trace the unoptimized kernel")
		cycles  = flag.Int("cycles", 64, "maximum cycles to print")
		engineF = flag.Bool("engine", false, "trace one engine dispatch instead of a kernel pipeline")
		mF      = flag.Int("m", 8, "with -engine: GEMM rows")
		nF      = flag.Int("n", 8, "with -engine: GEMM cols")
		countF  = flag.Int("count", 4096, "with -engine: batch size")
		chrome  = flag.String("chrome", "", "with -engine: also write the span as Chrome trace-event JSON to this file")
	)
	flag.Parse()

	dt, err := vec.ParseDType(*dtype)
	if err != nil {
		log.Fatal(err)
	}
	if *engineF {
		traceEngine(*mF, *nF, *k, *countF, *chrome)
		return
	}
	spec := ktmpl.GEMMSpec{DT: dt, MC: *mc, NC: *nc, K: *k, StrideC: *mc}
	prog, err := ktmpl.GenGEMM(spec)
	if err != nil {
		log.Fatal(err)
	}
	if !*raw {
		prog = kopt.Optimize(prog, kopt.Options{
			Prof: machine.Kunpeng920(), ElemBytes: dt.ElemBytes(), Prefetch: true})
	}

	// Execute on the VM with a synthetic arena, tracing issues.
	bl := dt.Pack()
	if dt.IsComplex() {
		bl *= 2
	}
	lenA := *k * *mc * bl
	lenB := *k * *nc * bl
	lenC := *nc * *mc * bl
	sim := machine.NewSim(machine.Kunpeng920(), dt.ElemBytes())

	type slotEv struct {
		text string
		mem  bool
	}
	events := map[int64][]slotEv{}
	syn := asm.SyntaxFor(dt.ElemBytes())
	sim.OnIssue = func(cycle int64, in asm.Instr, lat int) {
		txt := syn.Format(in)
		if i := strings.Index(txt, "//"); i >= 0 {
			txt = strings.TrimSpace(txt[:i])
		}
		events[cycle] = append(events[cycle], slotEv{text: txt, mem: in.Op.IsMem()})
	}

	// Warm-up pass: run once untraced so the trace shows the steady
	// state (L1-resident packed operands, as in the paper's measurement).
	warm := true
	run := func(mem64 bool) error {
		trace := func(in asm.Instr, addr int) {
			if !warm {
				sim.Exec(in, addr)
			} else {
				// Warm the cache without recording issue events.
				saved := sim.OnIssue
				sim.OnIssue = nil
				sim.Exec(in, addr)
				sim.OnIssue = saved
			}
		}
		if mem64 {
			vm := &asm.VM[float64]{Mem: make([]float64, lenA+lenB+lenC+2)}
			for i := range vm.Mem {
				vm.Mem[i] = 0.5
			}
			vm.P[asm.PB] = lenA
			vm.P[asm.PC] = lenA + lenB
			vm.P[asm.PAlpha] = lenA + lenB + lenC
			vm.Trace = trace
			return vm.Run(prog)
		}
		vm := &asm.VM[float32]{Mem: make([]float32, lenA+lenB+lenC+2)}
		for i := range vm.Mem {
			vm.Mem[i] = 0.5
		}
		vm.P[asm.PB] = lenA
		vm.P[asm.PC] = lenA + lenB
		vm.P[asm.PAlpha] = lenA + lenB + lenC
		vm.Trace = trace
		return vm.Run(prog)
	}
	if err := run(dt.ElemBytes() == 8); err != nil {
		log.Fatal(err)
	}
	warm = false
	sim.Reset() // keep the cache, clear the pipeline and statistics
	if err := run(dt.ElemBytes() == 8); err != nil {
		log.Fatal(err)
	}

	kind := "optimized"
	if *raw {
		kind = "raw"
	}
	fmt.Printf("# %sgemm %dx%d K=%d (%s): %d instructions in %d cycles\n",
		dt, *mc, *nc, *k, kind, sim.Instrs, sim.Cycles())
	fmt.Printf("%6s  %-42s %-42s %s\n", "cycle", "memory pipe", "fp pipe(s)", "other")
	last := sim.Cycles()
	if int64(*cycles) < last {
		last = int64(*cycles)
	}
	for c := int64(0); c <= last; c++ {
		evs := events[c]
		if len(evs) == 0 {
			continue
		}
		var mem, fp, other []string
		for _, e := range evs {
			switch {
			case e.mem:
				mem = append(mem, e.text)
			case strings.HasPrefix(e.text, "f") || strings.HasPrefix(e.text, "movi") || strings.HasPrefix(e.text, "mov "):
				fp = append(fp, e.text)
			default:
				other = append(other, e.text)
			}
		}
		fmt.Printf("%6d  %-42s %-42s %s\n", c,
			strings.Join(mem, "; "), strings.Join(fp, "; "), strings.Join(other, "; "))
	}
	if last < sim.Cycles() {
		fmt.Printf("... (%d more cycles)\n", sim.Cycles()-last)
	}
}

// traceEngine runs one batched GEMM on a private engine and prints the
// command queue of its plan, then the request's lifecycle span. The
// queue is a pure function of the plan, which is built here the way the
// engine builds it: for the count's power-of-two bucket, with unit
// scalars. The plan outcome comes from the call's per-shape row.
// chromeFile != "" additionally writes the span as Chrome trace-event
// JSON.
func traceEngine(m, n, k, count int, chromeFile string) {
	a := iatf.NewBatch[float32](count, m, k)
	b := iatf.NewBatch[float32](count, k, n)
	c := iatf.NewBatch[float32](count, m, n)
	for mi := 0; mi < count; mi++ {
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				a.Set(mi, i, j, float32(i+j+1))
			}
		}
	}
	ca, cb, cc := iatf.Pack(a), iatf.Pack(b), iatf.Pack(c)

	eng := iatf.NewEngine()
	var sp iatf.Span
	got := false
	err := iatf.Do(context.Background(), iatf.Request[float32]{
		Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: ca, B: cb, C: cc,
	}, iatf.WithEngine(eng), iatf.WithSpanSink(func(s *iatf.Span) { sp, got = *s, true }))
	if err != nil {
		log.Fatal(err)
	}
	if !got {
		log.Fatal("span sink did not fire")
	}
	shapes := eng.Stats().Shapes
	if len(shapes) != 1 {
		log.Fatalf("%d per-shape rows after one call, want 1", len(shapes))
	}
	row := shapes[0]

	bucket := 1
	for bucket < count {
		bucket <<= 1
	}
	pl, err := core.NewGEMMPlan(core.GEMMProblem{
		DT: vec.S, M: m, N: n, K: k, Alpha: 1, Beta: 1, Count: bucket,
	}, core.DefaultTuning())
	if err != nil {
		log.Fatal(err)
	}
	groups := (count + vec.S.Pack() - 1) / vec.S.Pack()
	chunks := (groups + pl.GroupsPerBatch - 1) / pl.GroupsPerBatch

	fmt.Printf("# Engine dispatch: %s %s %s, %dx%dx%d, batch %d (plan %s)\n",
		row.DType, row.Op, row.Mode, row.M, row.N, row.K, count, planOutcome(row))
	fmt.Printf("# worker split: %d interleave groups in %d super-batch chunks of %d, %d workers\n",
		groups, chunks, pl.GroupsPerBatch, min(row.Workers, chunks))
	fmt.Printf("%4s  %-10s %-14s %s\n", "#", "stage", "kernel", "detail")
	for i, cmd := range gemmQueue(pl) {
		fmt.Printf("%4d  %-10s %-14s %s\n", i, cmd.stage, cmd.kernel, cmd.detail)
	}

	fmt.Printf("\n# Lifecycle span %d: end-to-end %v (prepack %d hit / %d built)\n",
		sp.ID, sp.Duration(), sp.PrepackHits, sp.PrepackBuilds)
	for p := iatf.PhaseQueueWait; p < iatf.SpanPhase(len(sp.Phases)); p++ {
		if d := sp.Phases[p]; d > 0 {
			fmt.Printf("%12s  %v\n", p, d)
		}
	}
	if unattr := sp.Duration() - sp.PhaseTotal(); unattr > 0 {
		fmt.Printf("%12s  %v\n", "(dispatch)", unattr)
	}

	if chromeFile != "" {
		f, err := os.Create(chromeFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := iatf.WriteChromeTrace(f, []iatf.Span{sp}); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote %s — open in chrome://tracing or ui.perfetto.dev\n", chromeFile)
	}
}

// planOutcome names how the call got its plan: the one plan counter its
// shape row moved on a fresh engine.
func planOutcome(row iatf.ShapeStats) string {
	if row.PlanMisses > 0 {
		return "miss"
	}
	return "hit"
}

// command is one entry of a rendered command queue.
type command struct{ stage, kernel, detail string }

// gemmQueue renders the command queue of one interleave group in the
// native executor's order: how A is packed (or its no-packing fast path
// of §4.4) and how the kernels read B (in place, through its strides),
// then one kernel call per M tile, N tile and K chunk. The plan carries
// unit scalars, so no beta scaling appears.
func gemmQueue(pl *core.GEMMPlan) []command {
	p := pl.P
	q := []command{{"pack", "none", "A no-packing fast path (§4.4): native order already is the row panel"}}
	if pl.PackA {
		q[0] = command{"pack", "npackA", fmt.Sprintf("A row panels (N-shape), M tiles %v, K=%d", pl.MTiles, p.K)}
	}
	if pl.PackB {
		q = append(q, command{"pack", "npackB", fmt.Sprintf("B column panels (Z-shape), N tiles %v, K=%d", pl.NTiles, p.K)})
	} else {
		ldbk, ldbc := pl.BStrides(pl.NTiles[0])
		q = append(q, command{"pack", "none", fmt.Sprintf("B read in place (§4.4): block (l, j) at l·%d + j·%d blocks", ldbk, ldbc)})
	}
	i0 := 0
	for _, mc := range pl.MTiles {
		j0 := 0
		for _, nc := range pl.NTiles {
			kOff := 0
			for _, kc := range pl.KChunks {
				q = append(q, command{"compute", fmt.Sprintf("%sgemm_%dx%d", p.DT, mc, nc),
					fmt.Sprintf("C[%d:%d,%d:%d] += op(A)·op(B), k=%d:%d", i0, i0+mc, j0, j0+nc, kOff, kOff+kc)})
				kOff += kc
			}
			j0 += nc
		}
		i0 += mc
	}
	return q
}
