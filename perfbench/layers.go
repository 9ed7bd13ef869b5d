package main

// layers.go times single layers from outside, through their exported
// functions: the microkernels, the core executor and planner, the kernel
// memo, the compact layout conversions and a naive baseline. Only the
// traced run uses it; the untraced workloads reach the library through
// adapter.go alone.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iatf/internal/core"
	"iatf/internal/kernels"
	"iatf/internal/kopt"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

func kernelMemoMisses() uint64 {
	_, misses, _ := core.KernelMemoStats()
	return misses
}

// minRepeat and repeats follow the repeat/min-time idiom: each repeat
// runs enough calls to last minRepeat, and the fastest repeat is kept —
// the one other tenants of the host disturbed least.
const (
	minRepeat = 20 * time.Millisecond
	repeats   = 7
)

// timeCalls returns each fn's time per call. The repeats of the fns are
// interleaved, so a slow spell of the host falls on all of them alike.
func timeCalls(fns ...func()) []time.Duration {
	ns := make([]int, len(fns))
	for i, fn := range fns {
		n := 1
		for {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				fn()
			}
			if d := time.Since(t0); d >= minRepeat || n >= 1<<24 {
				break
			}
			n *= 2
		}
		ns[i] = n
	}
	best := make([]time.Duration, len(fns))
	for r := 0; r < repeats; r++ {
		for i, fn := range fns {
			t0 := time.Now()
			for k := 0; k < ns[i]; k++ {
				fn()
			}
			if d := time.Since(t0) / time.Duration(ns[i]); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

func timePerCall(fn func()) time.Duration { return timeCalls(fn)[0] }

func gflopsOf(flops float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return flops / d.Seconds() / 1e9
}

// fmaPeak measures the running host's scalar-Go multiply-add peak with eight
// independent dependency chains — the ceiling the kernels are judged
// against, measured on the host that ran them.
func fmaPeak() float64 {
	const iters = 1 << 16
	var sink float64
	d := timePerCall(func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		const m, c = 0.999999, 1e-7
		for i := 0; i < iters; i++ {
			a0 = a0*m + c
			a1 = a1*m + c
			a2 = a2*m + c
			a3 = a3*m + c
			a4 = a4*m + c
			a5 = a5*m + c
			a6 = a6*m + c
			a7 = a7*m + c
		}
		sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	if sink == 0 {
		return 0
	}
	return gflopsOf(2*8*iters, d)
}

// kernelRates times the Table 1 main kernels on L1-resident packed data.
func kernelRates() map[string]float64 {
	const k = 16
	rng := rand.New(rand.NewSource(1))
	out := map[string]float64{}
	{
		pa, pb, c := randReal[float32](rng, 4*k*4), randReal[float32](rng, k*4*4), make([]float32, 16*4)
		d := timePerCall(func() { kernels.GEMM(pa, pb, c, 4, 4, k, 4, 4, 1, true) })
		out["gemm4x4_s"] = gflopsOf(2*4*4*k*4, d)
	}
	{
		pa, pb, c := randReal[float64](rng, 4*k*2), randReal[float64](rng, k*4*2), make([]float64, 16*2)
		d := timePerCall(func() { kernels.GEMM(pa, pb, c, 4, 4, k, 4, 2, 1, true) })
		out["gemm4x4_d"] = gflopsOf(2*4*4*k*2, d)
	}
	{
		// complex128 blocks: P = 2 matrices, real and imaginary planes.
		pa, pb, c := randReal[float64](rng, 3*k*4), randReal[float64](rng, k*2*4), make([]float64, 3*2*4)
		d := timePerCall(func() { kernels.GEMMCplx(pa, pb, c, 3, 2, k, 3, 2, 1, 0, true) })
		out["gemm3x2_z"] = gflopsOf(8*3*2*k*2, d)
	}
	{
		// Register-resident 4×4 triangle: identity diagonal (stored as
		// its reciprocal) and zero strict part keep B fixed across calls.
		const m, ncols = 4, 4
		pa := make([]float64, m*(m+1)/2*2)
		for i := 0; i < m; i++ {
			row := i * (i + 1) / 2
			pa[(row+i)*2], pa[(row+i)*2+1] = 1, 1
		}
		b := randReal[float64](rng, m*ncols*2)
		d := timePerCall(func() { kernels.Tri(pa, b, m, ncols, m, 2) })
		out["trsm_tri_d"] = gflopsOf(m*m*ncols*2, d)
	}
	{
		// The TRSM rectangle update C −= A·X, 4×4 with a 4-deep panel;
		// a zero A keeps C fixed.
		const mc, nc, kk = 4, 4, 4
		pa, x, c := make([]float64, mc*kk*2), randReal[float64](rng, 8*nc*2), randReal[float64](rng, 8*nc*2)
		d := timePerCall(func() { kernels.Rect(pa, x, c, mc, nc, kk, 8, 8, 2) })
		out["trsm_rect_d"] = gflopsOf(2*mc*nc*kk*2, d)
	}
	return out
}

func randReal[E float32 | float64](rng *rand.Rand, n int) []E {
	out := make([]E, n)
	for i := range out {
		out[i] = E(2*rng.Float64() - 1)
	}
	return out
}

func dtypeOf(dt byte) vec.DType {
	switch dt {
	case 's':
		return vec.S
	case 'z':
		return vec.Z
	}
	return vec.D
}

func compactOf[T scalar](data []T, count, rows, cols int) (*layout.Compact[float32], *layout.Compact[float64]) {
	b := matrix.NewBatch[T](count, rows, cols)
	copy(b.Data, data)
	switch src := any(b).(type) {
	case *matrix.Batch[float32]:
		return layout.FromBatch(vec.S, src), nil
	case *matrix.Batch[float64]:
		return nil, layout.FromBatch(vec.D, src)
	case *matrix.Batch[complex128]:
		return nil, layout.FromBatchComplex[complex128, float64](vec.Z, src)
	}
	panic("unreachable")
}

// newCoreCase plans p for direct calls into the core executor and
// prepares its operands with A or the triangle prepacked — the state the
// engine reaches once warm, as in compact-batch. It returns one call.
func newCoreCase(p problem, rng *rand.Rand) (func() error, error) {
	switch p.dt {
	case 's':
		return newCoreCaseT[float32, float32](p, rng)
	case 'z':
		return newCoreCaseT[complex128, float64](p, rng)
	}
	return newCoreCaseT[float64, float64](p, rng)
}

func pick[E float32 | float64](f32 *layout.Compact[float32], f64 *layout.Compact[float64]) *layout.Compact[E] {
	if f32 != nil {
		return any(f32).(*layout.Compact[E])
	}
	return any(f64).(*layout.Compact[E])
}

func newCoreCaseT[T scalar, E float32 | float64](p problem, rng *rand.Rand) (func() error, error) {
	tun := core.DefaultTuning()
	ar, ac := p.aDims()
	br, bc := p.bDims()
	a := pick[E](compactOf(randA[T](rng, p), p.count, ar, ac))
	b := pick[E](compactOf(randVals[T](rng, p.count*br*bc), p.count, br, bc))
	switch p.op {
	case opGEMM:
		cr, cc := p.cDims()
		c := pick[E](compactOf(randVals[T](rng, p.count*cr*cc), p.count, cr, cc))
		pl, err := core.NewGEMMPlan(gemmProblem(p), tun)
		if err != nil {
			return nil, err
		}
		var preA []E
		if n := pl.PrepackALen(a.Groups()); n > 0 {
			preA = make([]E, n)
			if err := core.PrepackGEMMA(pl, a, preA); err != nil {
				return nil, err
			}
		}
		return func() error { return core.ExecGEMMNativePrepacked(pl, a, b, c, preA, nil, 1) }, nil
	case opTRSM:
		pl, err := core.NewTRSMPlan(trsmProblem(p), tun)
		if err != nil {
			return nil, err
		}
		pre := make([]E, pl.PrepackTriLen(a.Groups()))
		if err := core.PrepackTRSMTri(pl, a, pre); err != nil {
			return nil, err
		}
		b0 := append([]E(nil), b.Data...)
		// Restore B before each solve so repeated solves neither
		// underflow nor overflow; the copy is timed with the solve.
		return func() error {
			copy(b.Data, b0)
			return core.ExecTRSMNativePrepacked(pl, a, b, pre, 1)
		}, nil
	case opTRMM:
		pl, err := core.NewTRMMPlan(trmmProblem(p), tun)
		if err != nil {
			return nil, err
		}
		pre := make([]E, pl.PrepackTriLen(a.Groups()))
		if err := core.PrepackTRMMTri(pl, a, pre); err != nil {
			return nil, err
		}
		b0 := append([]E(nil), b.Data...)
		return func() error {
			copy(b.Data, b0)
			return core.ExecTRMMNativePrepacked(pl, a, b, pre, 1)
		}, nil
	}
	return nil, fmt.Errorf("core case: %s not timed", p.op)
}

// The core problems of p, with α = 1 and β = 0.
func gemmProblem(p problem) core.GEMMProblem {
	return core.GEMMProblem{DT: dtypeOf(p.dt), M: p.m, N: p.n, K: p.k,
		TransA: transOf(p.transA), TransB: transOf(p.transB), Alpha: 1, Count: p.count}
}

func trsmProblem(p problem) core.TRSMProblem {
	uplo, diag := p.modes()
	return core.TRSMProblem{DT: dtypeOf(p.dt), M: p.m, N: p.n, Side: matrix.Left,
		Uplo: uplo, Diag: diag, Alpha: 1, Count: p.count}
}

func trmmProblem(p problem) core.TRMMProblem {
	uplo, diag := p.modes()
	return core.TRMMProblem{DT: dtypeOf(p.dt), M: p.m, N: p.n, Side: matrix.Left,
		Uplo: uplo, Diag: diag, Alpha: 1, Count: p.count}
}

// buildPlan builds the core plan of p.
func buildPlan(p problem) error {
	tun := core.DefaultTuning()
	var err error
	switch p.op {
	case opGEMM:
		_, err = core.NewGEMMPlan(gemmProblem(p), tun)
	case opTRSM:
		_, err = core.NewTRSMPlan(trsmProblem(p), tun)
	case opTRMM:
		_, err = core.NewTRMMPlan(trmmProblem(p), tun)
	case opSYRK:
		_, err = core.NewSYRKPlan(core.SYRKProblem{DT: dtypeOf(p.dt), N: p.n, K: p.k, Uplo: matrix.Lower,
			Alpha: 1, Count: p.count}, tun)
	}
	return err
}

// coldPlanMs returns the median time to build each problem's plan with
// an empty kernel memo — the planner's cold cost, kernel generation and
// scheduling included. The process memo is restored afterwards.
func coldPlanMs(ps []problem) (float64, error) {
	var ms []float64
	for _, p := range ps {
		old := core.SwapKernelMemo(kopt.NewMemo())
		t0 := time.Now()
		err := buildPlan(p)
		d := time.Since(t0)
		core.SwapKernelMemo(old)
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d)/1e6)
	}
	return median(ms), nil
}

// naiveRate times the internal/matrix triple loops on conventional
// storage — the plain single-threaded baseline of one call.
func naiveRate(p problem, rng *rand.Rand) float64 {
	switch p.dt {
	case 's':
		return naiveRateT[float32](p, rng)
	case 'z':
		return naiveRateT[complex128](p, rng)
	}
	return naiveRateT[float64](p, rng)
}

func naiveRateT[T scalar](p problem, rng *rand.Rand) float64 {
	ar, ac := p.aDims()
	br, bc := p.bDims()
	cr, cc := p.cDims()
	a := batchOf(randA[T](rng, p), p.count, ar, ac)
	b := batchOf(randVals[T](rng, p.count*br*bc), p.count, br, bc)
	c := batchOf(randVals[T](rng, p.count*cr*cc), p.count, cr, cc)
	b0 := append([]T(nil), b.Data...)
	var fn func()
	switch p.op {
	case opGEMM:
		fn = func() { matrix.RefGEMMBatch(transOf(p.transA), transOf(p.transB), T(1), a, b, T(0), c) }
	case opTRSM:
		fn = func() {
			copy(b.Data, b0)
			matrix.RefTRSMBatch(matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit, T(1), a, b)
		}
	default:
		fn = func() {
			copy(b.Data, b0)
			matrix.RefTRMMBatch(matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit, T(1), a, b)
		}
	}
	return gflopsOf(p.flops(), timePerCall(fn))
}

// packRates times the compact layout conversions over serve-small's
// operand shapes, in GB/s of conventional data.
func packRates(ps []problem, rng *rand.Rand) (packGBps, unpackGBps float64) {
	var bytes float64
	var tPack, tUnpack time.Duration
	for _, p := range ps {
		r, c := p.aDims()
		n := p.count * r * c
		if p.dt == 's' {
			b := batchOf(randVals[float32](rng, n), p.count, r, c)
			cp := layout.FromBatch(vec.S, b)
			tPack += timePerCall(func() { layout.FromBatch(vec.S, b) })
			tUnpack += timePerCall(func() { layout.ToBatch(cp) })
			bytes += float64(n * 4)
		} else {
			b := batchOf(randVals[float64](rng, n), p.count, r, c)
			cp := layout.FromBatch(vec.D, b)
			tPack += timePerCall(func() { layout.FromBatch(vec.D, b) })
			tUnpack += timePerCall(func() { layout.ToBatch(cp) })
			bytes += float64(n * 8)
		}
	}
	return bytes / tPack.Seconds() / 1e9, bytes / tUnpack.Seconds() / 1e9
}

// kernelLoop returns the microkernel calls one real GEMM's plan makes
// over every interleave group, on packed panels prepared once: the
// waterfall's innermost depth.
func kernelLoop(p problem, rng *rand.Rand) func() {
	if p.dt == 's' {
		return kernelLoopT[float32](p, 4, rng)
	}
	return kernelLoopT[float64](p, 2, rng)
}

func kernelLoopT[E float32 | float64](p problem, vl int, rng *rand.Rand) func() {
	groups := (p.count + vl - 1) / vl
	mt := splitTiles(p.m)
	nt := splitTiles(p.n)
	pa := randReal[E](rng, p.m*p.k*vl)
	pb := randReal[E](rng, p.k*p.n*vl)
	c := make([]E, p.m*p.n*vl)
	return func() {
		for g := 0; g < groups; g++ {
			i0 := 0
			for _, mc := range mt {
				j0 := 0
				for _, nc := range nt {
					kernels.GEMM(pa[i0*p.k*vl:], pb[j0*p.k*vl:], c[(j0*p.m+i0)*vl:], mc, nc, p.k, p.m, vl, 1, true)
					j0 += nc
				}
				i0 += mc
			}
		}
	}
}

// splitTiles splits a dimension into main-kernel tiles of 4 and a tail.
func splitTiles(n int) []int {
	var out []int
	for n > 4 {
		out = append(out, 4)
		n -= 4
	}
	return append(out, n)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
