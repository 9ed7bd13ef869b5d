package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/kopt"
	"iatf/internal/vec"
)

// Wall-clock mode: unlike the figure tables (cycle models), -wallclock
// times the real native execution path through the public API, pairing
// every shape with a pack-per-call and a prepacked (Prepack, warm
// packed-operand cache) variant — the reuse-heavy serving pattern the
// pack-once optimization targets. -json additionally writes the rows to
// BENCH_wallclock.json so the perf trajectory is machine-readable
// across PRs.

const wallclockFile = "BENCH_wallclock.json"

// wcResult is one benchmark row of BENCH_wallclock.json.
type wcResult struct {
	Op      string  `json:"op"`
	DType   string  `json:"dtype"`
	Shape   string  `json:"shape"`
	Count   int     `json:"count"`
	Variant string  `json:"variant"` // "pack-per-call"/"prepacked", or "unchained"/"chained" on chain rows
	Calls   int     `json:"calls"`
	NsOp    float64 `json:"ns_op"`
	GFLOPS  float64 `json:"gflops"`
	Speedup float64 `json:"speedup,omitempty"` // vs pack-per-call, on prepacked rows
}

// wcScalar converts a float64 to any supported scalar type.
func wcScalar[T iatf.Scalar](x float64) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(x)).(T)
	case float64:
		return any(x).(T)
	case complex64:
		return any(complex(float32(x), 0)).(T)
	default:
		return any(complex(x, 0)).(T)
	}
}

// wcFill writes a deterministic pseudo-random pattern in (-0.5, 0.5).
func wcFill[T iatf.Scalar](data []T, seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range data {
		s = s*6364136223846793005 + 1442695040888963407
		data[i] = wcScalar[T](float64(s>>11)/float64(1<<53) - 0.5)
	}
}

// wcTriBatch builds a well-conditioned lower-triangular batch: unit-size
// diagonal and small off-diagonal entries, so repeated solves/multiplies
// in the timed loop stay O(1) instead of drifting into denormals.
func wcTriBatch[T iatf.Scalar](count, n int) *iatf.Batch[T] {
	b := iatf.NewBatch[T](count, n, n)
	data := b.Data()
	wcFill(data, 42)
	for m := 0; m < count; m++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				switch {
				case i == j:
					b.Set(m, i, j, T(1))
				case i > j:
					b.Set(m, i, j, b.At(m, i, j)*T(0.01))
				default:
					b.Set(m, i, j, 0)
				}
			}
		}
	}
	return b
}

// wcTime warms the call up and then times `calls` invocations, split
// into a few equal chunks; the reported ns/op is the best chunk's rate.
// The work is deterministic and noise (GC pauses, scheduler stalls on a
// shared host) is strictly additive, so the fastest chunk estimates the
// uncontended rate — one mean over all calls lets a single ~100ms stall
// shift a mid-size row by 25%+ and flake the benchdiff gate.
func wcTime(calls int, call func() error) (float64, error) {
	for i := 0; i < 8; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	const chunks = 4
	per := (calls + chunks - 1) / chunks
	best := math.Inf(1)
	for c := 0; c < chunks; c++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			if err := call(); err != nil {
				return 0, err
			}
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	return best, nil
}

// wcOn is the call options of a timed row: eng, auto workers.
func wcOn(eng *iatf.Engine) []iatf.Option {
	return []iatf.Option{iatf.WithEngine(eng), iatf.WithWorkers(0)}
}

// wcTri is a Left, NonUnit, alpha = 1 triangular request: TRSM or TRMM
// of B by the uplo triangle of A, op(A) per ta.
func wcTri[T iatf.Scalar](op iatf.Op, uplo iatf.Uplo, ta iatf.Trans, a, b *iatf.Compact[T]) iatf.Request[T] {
	return iatf.Request[T]{Op: op, Side: iatf.Left, Uplo: uplo, TransA: ta, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}
}

func wcGEMM[T iatf.Scalar](dt vec.DType, n, count, calls int, prepack bool) (float64, float64, error) {
	ab := iatf.NewBatch[T](count, n, n)
	bb := iatf.NewBatch[T](count, n, n)
	wcFill(ab.Data(), 1)
	wcFill(bb.Data(), 2)
	a, b, c := iatf.Pack(ab), iatf.Pack(bb), iatf.Pack(iatf.NewBatch[T](count, n, n))
	opts := wcOn(iatf.NewEngine())
	if prepack {
		a.Prepack()
		b.Prepack()
	}
	req := iatf.Request[T]{Op: iatf.OpGEMM, Alpha: 1, A: a, B: b, C: c}
	nsOp, err := wcTime(calls, func() error { return iatf.Do(context.Background(), req, opts...) })
	if err != nil {
		return 0, 0, err
	}
	flops := core.GEMMProblem{DT: dt, M: n, N: n, K: n, Count: count}.FLOPs()
	return nsOp, flops / nsOp, nil
}

func wcTRSM[T iatf.Scalar](dt vec.DType, n, count, calls int, prepack bool) (float64, float64, error) {
	a := iatf.Pack(wcTriBatch[T](count, n))
	bb := iatf.NewBatch[T](count, n, n)
	wcFill(bb.Data(), 3)
	b := iatf.Pack(bb)
	opts := wcOn(iatf.NewEngine())
	if prepack {
		a.Prepack()
	}
	req := wcTri[T](iatf.OpTRSM, iatf.Lower, iatf.NoTrans, a, b)
	nsOp, err := wcTime(calls, func() error { return iatf.Do(context.Background(), req, opts...) })
	if err != nil {
		return 0, 0, err
	}
	flops := core.TRSMProblem{DT: dt, M: n, N: n, Count: count}.FLOPs()
	return nsOp, flops / nsOp, nil
}

func wcTRMM[T iatf.Scalar](dt vec.DType, n, count, calls int, prepack bool) (float64, float64, error) {
	a := iatf.Pack(wcTriBatch[T](count, n))
	bb := iatf.NewBatch[T](count, n, n)
	wcFill(bb.Data(), 4)
	b := iatf.Pack(bb)
	opts := wcOn(iatf.NewEngine())
	if prepack {
		a.Prepack()
	}
	req := wcTri[T](iatf.OpTRMM, iatf.Lower, iatf.NoTrans, a, b)
	nsOp, err := wcTime(calls, func() error { return iatf.Do(context.Background(), req, opts...) })
	if err != nil {
		return 0, 0, err
	}
	flops := core.TRMMProblem{DT: dt, M: n, N: n, Count: count}.FLOPs()
	return nsOp, flops / nsOp, nil
}

// wcTriBatchU is the upper-triangular mirror of wcTriBatch: unit-size
// diagonal, small entries above it, zeros below.
func wcTriBatchU[T iatf.Scalar](count, n int) *iatf.Batch[T] {
	b := iatf.NewBatch[T](count, n, n)
	wcFill(b.Data(), 43)
	for m := 0; m < count; m++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				switch {
				case i == j:
					b.Set(m, i, j, T(1))
				case i < j:
					b.Set(m, i, j, b.At(m, i, j)*T(0.01))
				default:
					b.Set(m, i, j, 0)
				}
			}
		}
	}
	return b
}

// wcChainMulSolve times TRMM(Left,Upper) then TRSM(Left,Upper) over the
// same B as two separate engine calls ("unchained") or as one iatf.Chain
// ("chained"): both stages read B in place, and the chain auto-prepacks
// U, which neither stage writes. U⁻¹(U·B) = B exactly, so the timed loop
// is stable. Both variants take the same options (wcOn), so the row
// compares the two at one worker count.
func wcChainMulSolve(n, count, calls int, chained bool) (float64, float64, error) {
	a := iatf.Pack(wcTriBatchU[float64](count, n))
	bb := iatf.NewBatch[float64](count, n, n)
	wcFill(bb.Data(), 5)
	b := iatf.Pack(bb)
	eng := iatf.NewEngine()
	ctx, opts := context.Background(), wcOn(eng)
	mul := wcTri[float64](iatf.OpTRMM, iatf.Upper, iatf.NoTrans, a, b)
	solve := wcTri[float64](iatf.OpTRSM, iatf.Upper, iatf.NoTrans, a, b)
	call := func() error {
		if err := iatf.Do(ctx, mul, opts...); err != nil {
			return err
		}
		return iatf.Do(ctx, solve, opts...)
	}
	if chained {
		stages := []iatf.Stage[float64]{
			iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
			iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
		}
		call = func() error { return iatf.Chain(ctx, stages, opts...) }
	}
	nsOp, err := wcTime(calls, call)
	if err != nil {
		return 0, 0, err
	}
	flops := core.TRMMProblem{DT: vec.D, M: n, N: n, Count: count}.FLOPs() +
		core.TRSMProblem{DT: vec.D, M: n, N: n, Count: count}.FLOPs()
	return nsOp, flops / nsOp, nil
}

// wcChainSolve times the forward/backward solve pair — TRSM with L then
// TRSM with Lᵀ, the CholeskySolve shape. The chain's win is recognizing
// L as chain-invariant (read by both stages, written by neither) and
// auto-prepacking its triangle image. Like wcChainMulSolve, both
// variants take the same options.
func wcChainSolve(n, count, calls int, chained bool) (float64, float64, error) {
	a := iatf.Pack(wcTriBatch[float64](count, n))
	bb := iatf.NewBatch[float64](count, n, n)
	wcFill(bb.Data(), 6)
	b := iatf.Pack(bb)
	eng := iatf.NewEngine()
	ctx, opts := context.Background(), wcOn(eng)
	fwd := wcTri[float64](iatf.OpTRSM, iatf.Lower, iatf.NoTrans, a, b)
	bwd := wcTri[float64](iatf.OpTRSM, iatf.Lower, iatf.Transpose, a, b)
	call := func() error {
		if err := iatf.Do(ctx, fwd, opts...); err != nil {
			return err
		}
		return iatf.Do(ctx, bwd, opts...)
	}
	if chained {
		stages := []iatf.Stage[float64]{
			iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, a, b),
			iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.Transpose, iatf.NonUnit, 1, a, b),
		}
		call = func() error { return iatf.Chain(ctx, stages, opts...) }
	}
	nsOp, err := wcTime(calls, call)
	if err != nil {
		return 0, 0, err
	}
	flops := 2 * core.TRSMProblem{DT: vec.D, M: n, N: n, Count: count}.FLOPs()
	return nsOp, flops / nsOp, nil
}

// runWallclock runs every (op, dtype, shape) pair in both variants and
// prints the comparison; writeJSON additionally writes the rows to
// outFile (BENCH_wallclock.json by default).
func runWallclock(writeJSON bool, outFile string, count, calls, maxSize int) {
	type benchFn func(prepack bool) (float64, float64, error)
	type benchCase struct {
		op, dtype, shape string
		fn               benchFn
	}
	var sizes []int
	for n := 4; n <= maxSize; n *= 2 {
		sizes = append(sizes, n)
	}
	var cases []benchCase
	for _, n := range sizes {
		n := n
		shape := fmt.Sprintf("%dx%d", n, n)
		cases = append(cases,
			benchCase{"GEMM", "s", shape, func(p bool) (float64, float64, error) {
				return wcGEMM[float32](vec.S, n, count, calls, p)
			}},
			benchCase{"GEMM", "d", shape, func(p bool) (float64, float64, error) {
				return wcGEMM[float64](vec.D, n, count, calls, p)
			}},
			benchCase{"TRSM", "s", shape, func(p bool) (float64, float64, error) {
				return wcTRSM[float32](vec.S, n, count, calls, p)
			}},
			benchCase{"TRSM", "d", shape, func(p bool) (float64, float64, error) {
				return wcTRSM[float64](vec.D, n, count, calls, p)
			}},
			benchCase{"TRMM", "s", shape, func(p bool) (float64, float64, error) {
				return wcTRMM[float32](vec.S, n, count, calls, p)
			}},
			benchCase{"TRMM", "d", shape, func(p bool) (float64, float64, error) {
				return wcTRMM[float64](vec.D, n, count, calls, p)
			}},
		)
	}

	fmt.Printf("# Wall-clock, native path, count=%d, %d warm calls per variant\n", count, calls)
	fmt.Printf("%-5s %-3s %-8s %14s %10s %14s %10s %8s\n",
		"op", "dt", "shape", "pack ns/op", "GFLOPS", "prepack ns/op", "GFLOPS", "speedup")
	var rows []wcResult
	for _, bc := range cases {
		nsPack, gfPack, err := bc.fn(false)
		check(err)
		nsPre, gfPre, err := bc.fn(true)
		check(err)
		speedup := nsPack / nsPre
		fmt.Printf("%-5s %-3s %-8s %14.0f %10.3f %14.0f %10.3f %7.2fx\n",
			bc.op, bc.dtype, bc.shape, nsPack, gfPack, nsPre, gfPre, speedup)
		rows = append(rows,
			wcResult{Op: bc.op, DType: bc.dtype, Shape: bc.shape, Count: count,
				Variant: "pack-per-call", Calls: calls, NsOp: math.Round(nsPack), GFLOPS: gfPack},
			wcResult{Op: bc.op, DType: bc.dtype, Shape: bc.shape, Count: count,
				Variant: "prepacked", Calls: calls, NsOp: math.Round(nsPre), GFLOPS: gfPre,
				Speedup: math.Round(speedup*100) / 100})
	}
	// Cross-op chains: the same stages issued as separate calls vs one
	// iatf.Chain, so chain auto-prepack shows up in the committed perf
	// trajectory (and benchdiff gates it).
	type chainFn func(chained bool) (float64, float64, error)
	type chainCase struct {
		op, shape string
		fn        chainFn
	}
	var chains []chainCase
	for _, n := range sizes {
		n := n
		shape := fmt.Sprintf("%dx%d", n, n)
		chains = append(chains,
			chainCase{"TRMM+TRSM", shape, func(c bool) (float64, float64, error) {
				return wcChainMulSolve(n, count, calls, c)
			}},
			chainCase{"TRSM+TRSM", shape, func(c bool) (float64, float64, error) {
				return wcChainSolve(n, count, calls, c)
			}},
		)
	}
	fmt.Printf("\n# Cross-op chains: separate calls vs one iatf.Chain (auto-prepack)\n")
	fmt.Printf("%-10s %-3s %-8s %14s %10s %14s %10s %8s\n",
		"chain", "dt", "shape", "unchain ns/op", "GFLOPS", "chain ns/op", "GFLOPS", "speedup")
	for _, cc := range chains {
		nsUn, gfUn, err := cc.fn(false)
		check(err)
		nsCh, gfCh, err := cc.fn(true)
		check(err)
		speedup := nsUn / nsCh
		fmt.Printf("%-10s %-3s %-8s %14.0f %10.3f %14.0f %10.3f %7.2fx\n",
			cc.op, "d", cc.shape, nsUn, gfUn, nsCh, gfCh, speedup)
		rows = append(rows,
			wcResult{Op: cc.op, DType: "d", Shape: cc.shape, Count: count,
				Variant: "unchained", Calls: calls, NsOp: math.Round(nsUn), GFLOPS: gfUn},
			wcResult{Op: cc.op, DType: "d", Shape: cc.shape, Count: count,
				Variant: "chained", Calls: calls, NsOp: math.Round(nsCh), GFLOPS: gfCh,
				Speedup: math.Round(speedup*100) / 100})
	}

	// Cold-start: the very first call of a fresh engine with an empty
	// process-wide kernel memo — plan construction, packing and compute
	// on the critical path, and no kernel generation, kept honest by the
	// benchdiff gate.
	rows = append(rows, runWallclockColdStart(sizes)...)

	if writeJSON {
		mergeWallclock(outFile, rows)
	}
}

// wcColdCount is the batch size of the cold-start rows: deliberately
// small, so the measurement is dominated by the first call's fixed
// costs (engine construction, plan geometry, buffer-pool misses) rather
// than by executing a large batch — the "first request into a fresh
// replica" latency.
const wcColdCount = 16

// wcColdFirstCall times one cold start end to end: construct a fresh
// engine and issue the first dgemm call. The process-wide kernel memo is
// swapped for an empty one around the measurement — the in-process
// equivalent of a brand-new process — so a plan path that generated
// kernels again would show here.
func wcColdFirstCall(n int) (float64, error) {
	ab := iatf.NewBatch[float64](wcColdCount, n, n)
	bb := iatf.NewBatch[float64](wcColdCount, n, n)
	wcFill(ab.Data(), 7)
	wcFill(bb.Data(), 8)
	a, b, c := iatf.Pack(ab), iatf.Pack(bb), iatf.Pack(iatf.NewBatch[float64](wcColdCount, n, n))

	old := core.SwapKernelMemo(kopt.NewMemo())
	defer core.SwapKernelMemo(old)
	start := time.Now()
	eng := iatf.NewEngine()
	req := iatf.Request[float64]{Op: iatf.OpGEMM, Alpha: 1, A: a, B: b, C: c}
	if err := iatf.Do(context.Background(), req, wcOn(eng)...); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()), nil
}

// runWallclockColdStart produces the cold-start rows: for each size, the
// best over several repetitions of the first-call wall time on a fresh
// engine.
func runWallclockColdStart(sizes []int) []wcResult {
	const reps = 5
	fmt.Printf("\n# Cold start: first dgemm call on a fresh engine, empty kernel memo, count=%d (best of %d)\n",
		wcColdCount, reps)
	fmt.Printf("%-5s %-3s %-8s %14s\n", "op", "dt", "shape", "cold ns")
	var rows []wcResult
	for _, n := range sizes {
		// Min over repetitions, not median: the work is deterministic
		// and every noise source (GC pause, scheduler preemption) is
		// additive, so the minimum is the stable estimator — one-shot
		// latencies would otherwise swing run to run and flake the
		// benchdiff gate.
		ns := math.Inf(1)
		for i := 0; i < reps; i++ {
			runtime.GC()
			v, err := wcColdFirstCall(n)
			check(err)
			ns = math.Min(ns, v)
		}
		shape := fmt.Sprintf("%dx%d", n, n)
		flops := core.GEMMProblem{DT: vec.D, M: n, N: n, K: n, Count: wcColdCount}.FLOPs()
		fmt.Printf("%-5s %-3s %-8s %14.0f\n", "GEMM", "d", shape, ns)
		rows = append(rows, wcResult{Op: "GEMM", DType: "d", Shape: shape, Count: wcColdCount,
			Variant: "cold-start", Calls: reps, NsOp: math.Round(ns), GFLOPS: flops / ns})
	}
	return rows
}

// mergeWallclock writes rows into outFile, replacing rows with the same
// (op, dtype, shape, variant) key and keeping everything else — so the
// pairwise table and the sharded scaling rows coexist in one file across
// separate runs.
func mergeWallclock(outFile string, rows []wcResult) {
	key := func(r wcResult) string { return r.Op + "|" + r.DType + "|" + r.Shape + "|" + r.Variant }
	fresh := make(map[string]wcResult, len(rows))
	for _, r := range rows {
		fresh[key(r)] = r
	}
	var out []wcResult
	if data, err := os.ReadFile(outFile); err == nil {
		var old []wcResult
		if err := json.Unmarshal(data, &old); err == nil {
			for _, r := range old {
				if _, replaced := fresh[key(r)]; !replaced {
					out = append(out, r)
				}
			}
		}
	}
	out = append(out, rows...)
	f, err := os.Create(outFile)
	check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check(enc.Encode(out))
	check(f.Close())
	fmt.Printf("\nwrote %s (%d rows, %d updated)\n", outFile, len(out), len(rows))
}

// wcMixed drives a mixed-traffic serving workload — concurrent
// submitters of several distinct problem identities — through an
// EngineSet of the given shard count, and returns the mean wall-clock
// per request and the aggregate GFLOPS. shards == 1 is the single-
// dispatcher baseline the scaling rows are normalized against.
func wcMixed(shards, count, callsPerSubmitter int) (float64, float64, error) {
	set := iatf.NewEngineSet(shards)
	shapes := [][3]int{{8, 8, 8}, {6, 5, 7}, {12, 12, 4}, {4, 16, 8}, {16, 4, 4}, {8, 12, 12}, {10, 10, 10}, {4, 4, 12}}
	const submitters = 8
	type job struct {
		req   iatf.Request[float32]
		flops float64
	}
	jobs := make([]job, submitters)
	for g := range jobs {
		m, n, k := shapes[g%len(shapes)][0], shapes[g%len(shapes)][1], shapes[g%len(shapes)][2]
		ab := iatf.NewBatch[float32](count, m, k)
		bb := iatf.NewBatch[float32](count, k, n)
		wcFill(ab.Data(), uint64(g)+1)
		wcFill(bb.Data(), uint64(g)+100)
		a, b, c := iatf.Pack(ab), iatf.Pack(bb), iatf.Pack(iatf.NewBatch[float32](count, m, n))
		jobs[g] = job{
			req:   iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 0, A: a, B: b, C: c},
			flops: core.GEMMProblem{DT: vec.S, M: m, N: n, K: k, Count: count}.FLOPs(),
		}
	}
	ctx := context.Background()
	run := func(calls int) error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for g := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if err := iatf.Do(ctx, j.req, iatf.WithEngine(set.Engine), iatf.WithAsync()); err != nil {
						errs <- err
						return
					}
				}
			}(jobs[g])
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	// Warm every identity's plan and route before timing.
	if err := run(4); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := run(callsPerSubmitter); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	totalCalls := submitters * callsPerSubmitter
	var totalFlops float64
	for _, j := range jobs {
		totalFlops += j.flops * float64(callsPerSubmitter)
	}
	nsOp := float64(wall.Nanoseconds()) / float64(totalCalls)
	return nsOp, totalFlops / float64(wall.Nanoseconds()), nil
}

// runWallclockShards is the sharded mixed-traffic scaling benchmark:
// one row per shard count, speedup normalized to the single-shard
// baseline, merged into the wallclock JSON next to the pairwise rows.
func runWallclockShards(shardCounts []int, writeJSON bool, outFile string, count, calls int) {
	fmt.Printf("# Sharded mixed-traffic scaling: 8 submitters x 8 GEMM identities, count=%d, %d calls each\n", count, calls)
	fmt.Printf("%-8s %14s %10s %8s\n", "shards", "ns/req", "GFLOPS", "scaling")
	var rows []wcResult
	var baseNs float64
	for _, n := range shardCounts {
		nsOp, gf, err := wcMixed(n, count, calls)
		check(err)
		if baseNs == 0 {
			baseNs = nsOp
		}
		scaling := baseNs / nsOp
		fmt.Printf("%-8d %14.0f %10.3f %7.2fx\n", n, nsOp, gf, scaling)
		rows = append(rows, wcResult{
			Op: "MIXED", DType: "s", Shape: "mixed-8", Count: count,
			Variant: fmt.Sprintf("shards-%d", n), Calls: calls,
			NsOp: math.Round(nsOp), GFLOPS: gf,
			Speedup: math.Round(scaling*100) / 100,
		})
	}
	if writeJSON {
		mergeWallclock(outFile, rows)
	}
}

// loadWallclock reads one wallclock JSON file into a row map keyed by
// op|dtype|shape|variant.
func loadWallclock(path string) (map[string]wcResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []wcResult
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]wcResult, len(rows))
	for _, r := range rows {
		m[r.Op+"|"+r.DType+"|"+r.Shape+"|"+r.Variant] = r
	}
	return m, nil
}

// runBenchDiff joins two wallclock JSON files on (op, dtype, shape,
// variant), prints the per-row ns_op delta, and exits nonzero when any
// row regresses by more than maxRegress percent — the perf gate behind
// `make benchdiff`. Rows present on only one side are reported but never
// fail the gate (shape sets may differ across configurations).
func runBenchDiff(basePath, newPath string, maxRegress float64) {
	base, err := loadWallclock(basePath)
	check(err)
	cand, err := loadWallclock(newPath)
	check(err)

	keys := make([]string, 0, len(base))
	for k := range base {
		if _, ok := cand[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	fmt.Printf("# Wallclock diff: base=%s new=%s (fail > +%.0f%% ns/op)\n",
		basePath, newPath, maxRegress)
	fmt.Printf("%-5s %-3s %-8s %-14s %14s %14s %9s\n",
		"op", "dt", "shape", "variant", "base ns/op", "new ns/op", "delta")
	var failed []string
	for _, k := range keys {
		b, n := base[k], cand[k]
		// Compare per-matrix time so runs with different -wcount still
		// line up (identical counts reduce to the plain ns_op ratio).
		bPer := b.NsOp / float64(b.Count)
		nPer := n.NsOp / float64(n.Count)
		delta := (nPer - bPer) / bPer * 100
		mark := ""
		if b.Count != n.Count {
			mark = fmt.Sprintf("  (count %d vs %d, per-matrix)", b.Count, n.Count)
		}
		if delta > maxRegress {
			mark += "  << REGRESSION"
			failed = append(failed, fmt.Sprintf("%s %s %s %s %+.1f%%",
				b.Op, b.DType, b.Shape, b.Variant, delta))
		}
		fmt.Printf("%-5s %-3s %-8s %-14s %14.0f %14.0f %+8.1f%%%s\n",
			b.Op, b.DType, b.Shape, b.Variant, b.NsOp, n.NsOp, delta, mark)
	}
	for k, r := range base {
		if _, ok := cand[k]; !ok {
			fmt.Printf("# only in base: %s %s %s %s\n", r.Op, r.DType, r.Shape, r.Variant)
		}
	}
	for k, r := range cand {
		if _, ok := base[k]; !ok {
			fmt.Printf("# only in new:  %s %s %s %s\n", r.Op, r.DType, r.Shape, r.Variant)
		}
	}
	if len(keys) == 0 {
		check(fmt.Errorf("no common rows between %s and %s", basePath, newPath))
	}
	if len(failed) > 0 {
		fmt.Printf("\n%d row(s) regressed beyond %.0f%%:\n", len(failed), maxRegress)
		for _, f := range failed {
			fmt.Println("  " + f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nOK: %d rows compared, none beyond +%.0f%%\n", len(keys), maxRegress)
}
