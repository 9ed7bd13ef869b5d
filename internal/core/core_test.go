package core

import (
	"math/rand"
	"testing"

	"iatf/internal/layout"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// checkGEMM runs the full plan pipeline for one scalar type and compares
// against the reference oracle.
func checkGEMM[T matrix.Scalar, E vec.Float](t *testing.T, dt vec.DType, p GEMMProblem, tun Tuning) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(p.M*1000 + p.N*100 + p.K*10 + int(p.TransA) + 2*int(p.TransB))))
	ar, ac := p.M, p.K
	if p.TransA == matrix.Transpose {
		ar, ac = p.K, p.M
	}
	br, bc := p.K, p.N
	if p.TransB == matrix.Transpose {
		br, bc = p.N, p.K
	}
	a := matrix.RandBatch[T](rng, p.Count, ar, ac)
	b := matrix.RandBatch[T](rng, p.Count, br, bc)
	c := matrix.RandBatch[T](rng, p.Count, p.M, p.N)

	want := c.Clone()
	matrix.RefGEMMBatch(p.TransA, p.TransB, scalarOf[T](p.Alpha), a, b, scalarOf[T](p.Beta), want)

	ca := toCompact[T, E](dt, a)
	cb := toCompact[T, E](dt, b)
	cc := toCompact[T, E](dt, c)
	pl, err := NewGEMMPlan(p, tun)
	if err != nil {
		t.Fatalf("%v %s %dx%dx%d: %v", dt, p.Mode(), p.M, p.N, p.K, err)
	}
	if err := ExecGEMM(pl, ca, cb, cc, nil); err != nil {
		t.Fatalf("%v %s %dx%dx%d: %v", dt, p.Mode(), p.M, p.N, p.K, err)
	}
	got := fromCompact[T, E](cc)
	if !matrix.WithinTol(got.Data, want.Data, matrix.Tol[T](p.K+2)) {
		t.Errorf("%v %s M=%d N=%d K=%d count=%d: max diff %g",
			dt, p.Mode(), p.M, p.N, p.K, p.Count, matrix.MaxAbsDiff(got.Data, want.Data))
	}
}

// scalarOf narrows a complex128 parameter to the scalar type under test.
func scalarOf[T matrix.Scalar](c complex128) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(real(c))).(T)
	case float64:
		return any(real(c)).(T)
	case complex64:
		return any(complex64(c)).(T)
	default:
		return any(c).(T)
	}
}

// toCompact/fromCompact bridge the generic scalar and component types.
func toCompact[T matrix.Scalar, E vec.Float](dt vec.DType, b *matrix.Batch[T]) *layout.Compact[E] {
	switch bb := any(b).(type) {
	case *matrix.Batch[float32]:
		return any(layout.FromBatch(dt, bb)).(*layout.Compact[E])
	case *matrix.Batch[float64]:
		return any(layout.FromBatch(dt, bb)).(*layout.Compact[E])
	case *matrix.Batch[complex64]:
		return any(layout.FromBatchComplex[complex64, float32](dt, bb)).(*layout.Compact[E])
	case *matrix.Batch[complex128]:
		return any(layout.FromBatchComplex[complex128, float64](dt, bb)).(*layout.Compact[E])
	}
	panic("unreachable")
}

func fromCompact[T matrix.Scalar, E vec.Float](c *layout.Compact[E]) *matrix.Batch[T] {
	if !c.Type.IsComplex() {
		switch cc := any(c).(type) {
		case *layout.Compact[float32]:
			return any(layout.ToBatch(cc)).(*matrix.Batch[T])
		case *layout.Compact[float64]:
			return any(layout.ToBatch(cc)).(*matrix.Batch[T])
		}
	}
	switch cc := any(c).(type) {
	case *layout.Compact[float32]:
		return any(layout.ToBatchComplex[complex64](cc)).(*matrix.Batch[T])
	case *layout.Compact[float64]:
		return any(layout.ToBatchComplex[complex128](cc)).(*matrix.Batch[T])
	}
	panic("unreachable")
}

func checkGEMMAllTypes(t *testing.T, m, n, k int, ta, tb matrix.Trans, alpha, beta complex128, count int, tun Tuning) {
	t.Helper()
	p := GEMMProblem{M: m, N: n, K: k, TransA: ta, TransB: tb, Alpha: alpha, Beta: beta, Count: count}
	p.DT = vec.S
	checkGEMM[float32, float32](t, vec.S, p, tun)
	p.DT = vec.D
	checkGEMM[float64, float64](t, vec.D, p, tun)
	p.DT = vec.C
	checkGEMM[complex64, float32](t, vec.C, p, tun)
	p.DT = vec.Z
	checkGEMM[complex128, float64](t, vec.Z, p, tun)
}

func TestGEMMAllModesAndSizes(t *testing.T) {
	tun := DefaultTuning()
	for _, mode := range [][2]matrix.Trans{
		{matrix.NoTrans, matrix.NoTrans},
		{matrix.NoTrans, matrix.Transpose},
		{matrix.Transpose, matrix.NoTrans},
		{matrix.Transpose, matrix.Transpose},
	} {
		for _, mnk := range [][3]int{
			{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 5, 5}, {7, 3, 2},
			{8, 8, 8}, {9, 7, 5}, {15, 15, 15}, {3, 9, 1},
		} {
			checkGEMMAllTypes(t, mnk[0], mnk[1], mnk[2], mode[0], mode[1], 1, 1, 6, tun)
		}
	}
}

func TestGEMMAlphaBeta(t *testing.T) {
	tun := DefaultTuning()
	// Real alpha/beta on all types.
	checkGEMMAllTypes(t, 5, 4, 3, matrix.NoTrans, matrix.NoTrans, 2.5, 1, 3, tun)
	checkGEMMAllTypes(t, 5, 4, 3, matrix.NoTrans, matrix.NoTrans, 1, 0.5, 3, tun)
	checkGEMMAllTypes(t, 5, 4, 3, matrix.NoTrans, matrix.NoTrans, -1, 0, 3, tun)
	// Complex alpha/beta on complex types.
	p := GEMMProblem{DT: vec.C, M: 4, N: 4, K: 4, Alpha: 1 + 2i, Beta: 2 - 1i, Count: 5}
	checkGEMM[complex64, float32](t, vec.C, p, tun)
	p.DT = vec.Z
	checkGEMM[complex128, float64](t, vec.Z, p, tun)
}

func TestGEMMBatchCountsAndPadding(t *testing.T) {
	tun := DefaultTuning()
	// Counts around the interleave factor: padding lanes must not leak.
	for _, count := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		p := GEMMProblem{DT: vec.S, M: 3, N: 3, K: 3, Alpha: 1, Beta: 1, Count: count}
		checkGEMM[float32, float32](t, vec.S, p, tun)
	}
}

func TestGEMMPlanDecisions(t *testing.T) {
	tun := DefaultTuning()
	// NN with M ≤ 4: A no-pack fast path.
	pl, err := NewGEMMPlan(GEMMProblem{DT: vec.S, M: 3, N: 8, K: 5, Alpha: 1, Beta: 1, Count: 64}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.PackA {
		t.Error("NN M=3 must use the A no-packing fast path")
	}
	// Transposed A always packs.
	pl, err = NewGEMMPlan(GEMMProblem{DT: vec.S, M: 3, N: 8, K: 5, TransA: matrix.Transpose, Alpha: 1, Beta: 1, Count: 64}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.PackA {
		t.Error("TN must pack A")
	}
	// M > 4 packs.
	pl, err = NewGEMMPlan(GEMMProblem{DT: vec.S, M: 5, N: 8, K: 5, Alpha: 1, Beta: 1, Count: 64}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.PackA {
		t.Error("M=5 must pack A")
	}
	// Tiling: 15 → 4+4+4+3 (Figure 4b).
	pl, err = NewGEMMPlan(GEMMProblem{DT: vec.S, M: 15, N: 15, K: 15, Alpha: 1, Beta: 1, Count: 64}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.MTiles) != 4 || pl.MTiles[0] != 4 || pl.MTiles[3] != 3 {
		t.Errorf("MTiles = %v", pl.MTiles)
	}
	if len(pl.tiles) != 16 {
		t.Errorf("15x15 plan has %d tiles, want 16", len(pl.tiles))
	}
}

func TestBatchCounterRespectsL1(t *testing.T) {
	tun := DefaultTuning()
	// dgemm 16×16: per group = (256+256+256) blocks × 2 lanes × 8 B = 12 KB
	// → 5 groups in 64 KB.
	pl, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 16, N: 16, K: 16, Alpha: 1, Beta: 1, Count: 4096}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GroupsPerBatch != 5 {
		t.Errorf("GroupsPerBatch = %d, want 5", pl.GroupsPerBatch)
	}
	// Tiny problems cap at the group count.
	pl, err = NewGEMMPlan(GEMMProblem{DT: vec.D, M: 2, N: 2, K: 2, Alpha: 1, Beta: 1, Count: 4}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GroupsPerBatch != 2 {
		t.Errorf("GroupsPerBatch = %d, want 2 (capped at groups)", pl.GroupsPerBatch)
	}
	// Ablation override.
	tun.ForceGroupsPerBatch = 3
	pl, err = NewGEMMPlan(GEMMProblem{DT: vec.D, M: 16, N: 16, K: 16, Alpha: 1, Beta: 1, Count: 4096}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GroupsPerBatch != 3 {
		t.Errorf("forced GroupsPerBatch = %d", pl.GroupsPerBatch)
	}
}

func TestGEMMAblationTunings(t *testing.T) {
	// Correctness must hold with the optimizer and prefetch disabled and
	// with forced packing.
	tun := DefaultTuning()
	tun.DisableOptimizer = true
	checkGEMMAllTypes(t, 6, 5, 4, matrix.NoTrans, matrix.NoTrans, 1, 1, 5, tun)
	tun = DefaultTuning()
	tun.DisablePrefetch = true
	tun.ForcePackA = true
	checkGEMMAllTypes(t, 3, 5, 4, matrix.NoTrans, matrix.NoTrans, 1, 1, 5, tun)
	tun = DefaultTuning()
	tun.ForceGroupsPerBatch = 1
	checkGEMMAllTypes(t, 6, 5, 4, matrix.NoTrans, matrix.NoTrans, 1, 1, 9, tun)
}

func TestGEMMInvalidProblems(t *testing.T) {
	tun := DefaultTuning()
	if _, err := NewGEMMPlan(GEMMProblem{DT: vec.S, M: 0, N: 1, K: 1, Count: 1}, tun); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := NewGEMMPlan(GEMMProblem{DT: vec.S, M: 1, N: 1, K: 1, Count: 0}, tun); err == nil {
		t.Error("count=0 accepted")
	}
	// Shape mismatch at exec time.
	pl, _ := NewGEMMPlan(GEMMProblem{DT: vec.S, M: 2, N: 2, K: 2, Alpha: 1, Beta: 1, Count: 4}, tun)
	a := layout.NewCompact[float32](vec.S, 4, 3, 2)
	b := layout.NewCompact[float32](vec.S, 4, 2, 2)
	c := layout.NewCompact[float32](vec.S, 4, 2, 2)
	if err := ExecGEMM(pl, a, b, c, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestGEMMProblemDerived(t *testing.T) {
	p := GEMMProblem{DT: vec.C, M: 2, N: 3, K: 4, TransA: matrix.Transpose, Count: 10}
	if p.Mode() != "TN" {
		t.Errorf("Mode = %s", p.Mode())
	}
	if p.FLOPs() != 8*2*3*4*10 {
		t.Errorf("FLOPs = %v", p.FLOPs())
	}
}

func TestNewGEMMPlanWithKernel(t *testing.T) {
	tun := DefaultTuning()
	p := GEMMProblem{DT: vec.D, M: 16, N: 16, K: 8, Alpha: 1, Beta: 1, Count: 8}
	pl, err := NewGEMMPlanWithKernel(p, tun, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range pl.MTiles {
		if mt > 2 {
			t.Errorf("forced 2x2 plan has tile height %d", mt)
		}
	}
	if pl.Instructions() <= 0 {
		t.Error("Instructions must be positive")
	}
	// Forced plans stay correct.
	rng := rand.New(rand.NewSource(51))
	a := randCompact[float64](rng, vec.D, p.Count, 16, 8)
	b := randCompact[float64](rng, vec.D, p.Count, 8, 16)
	c := randCompact[float64](rng, vec.D, p.Count, 16, 16)
	want := c.Clone()
	def, _ := NewGEMMPlan(p, tun)
	if err := ExecGEMMNativePrepacked(def, a, b, want, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := ExecGEMMNativePrepacked(pl, a, b, c, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("forced-kernel plan diverges at %d", i)
		}
	}
	// Oversized forced kernel is rejected.
	if _, err := NewGEMMPlanWithKernel(p, tun, 5, 5); err == nil {
		t.Error("5x5 forced kernel accepted")
	}
}

func TestExecFactorNativeDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := randCompact[float64](rng, vec.D, 9, 5, 5)
	for v := 0; v < 9; v++ {
		for i := 0; i < 5; i++ {
			re, im := a.At(v, i, i)
			a.Set(v, i, i, re+6, im)
		}
	}
	infoSeq, err := ExecFactorNative(nil, LUKind, a.Clone(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	infoPar, err := ExecFactorNative(nil, LUKind, a.Clone(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(infoSeq) != 9 || len(infoPar) != 9 {
		t.Fatalf("info lengths %d/%d", len(infoSeq), len(infoPar))
	}
	for i := range infoSeq {
		if infoSeq[i] != 0 || infoPar[i] != 0 {
			t.Errorf("matrix %d flagged singular", i)
		}
	}
	// Rectangular and complex-Cholesky rejections.
	rect := layout.NewCompact[float64](vec.D, 2, 3, 4)
	if _, err := ExecFactorNative(nil, LUKind, rect, nil, 1); err == nil {
		t.Error("rectangular factorization accepted")
	}
	cplx := layout.NewCompact[float64](vec.Z, 2, 3, 3)
	if _, err := ExecFactorNative(nil, CholeskyKind, cplx, nil, 1); err == nil {
		t.Error("complex Cholesky accepted")
	}
	// The pivoted kind fills the record it is given and needs one.
	if _, err := ExecFactorNative(nil, LUPivKind, a.Clone(), nil, 1); err == nil {
		t.Error("pivoted LU without a pivot record accepted")
	}
	var piv Pivots
	if _, err := ExecFactorNative(nil, LUPivKind, a.Clone(), &piv, 3); err != nil {
		t.Fatal(err)
	}
	if piv.N != 5 || piv.Groups != a.Groups() || len(piv.Data) != a.Groups()*5*piv.VL {
		t.Errorf("pivot record %d/%d/%d for a %d-group batch of order 5", piv.N, piv.Groups, len(piv.Data), a.Groups())
	}
}

func TestTRSMParallelMatchesSequentialCore(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tun := DefaultTuning()
	p := TRSMProblem{DT: vec.S, M: 6, N: 4, Side: matrix.Left, Uplo: matrix.Upper,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: 90}
	pl, err := NewTRSMPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[float32](rng, vec.S, p.Count, 6, 6)
	for v := 0; v < p.Count; v++ {
		for i := 0; i < 6; i++ {
			re, im := a.At(v, i, i)
			a.Set(v, i, i, re+2, im)
		}
	}
	b := randCompact[float32](rng, vec.S, p.Count, 6, 4)
	b1, b4 := b.Clone(), b.Clone()
	if err := ExecTRSMNativePrepacked(pl, a, b1, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := ExecTRSMNativePrepacked(pl, a, b4, nil, 5); err != nil {
		t.Fatal(err)
	}
	for i := range b1.Data {
		if b1.Data[i] != b4.Data[i] {
			t.Fatalf("TRSM parallel diverges at %d", i)
		}
	}
}

// Reductions beyond the kernel-length cap must split into exact
// accumulating chunks (K-chunking).
func TestGEMMLargeKChunking(t *testing.T) {
	tun := DefaultTuning()
	p := GEMMProblem{DT: vec.D, M: 4, N: 4, K: 300, Alpha: 1, Beta: 1, Count: 5}
	pl, err := NewGEMMPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.KChunks) < 2 {
		t.Fatalf("K=300 produced %v chunks", pl.KChunks)
	}
	sum := 0
	for _, kc := range pl.KChunks {
		sum += kc
	}
	if sum != 300 {
		t.Fatalf("KChunks %v sum to %d", pl.KChunks, sum)
	}
	checkGEMM[float64, float64](t, vec.D, p, tun)
	// Also with beta=0 (overwrite first chunk only) and the no-pack path.
	p2 := GEMMProblem{DT: vec.S, M: 3, N: 5, K: 120, Alpha: 2, Beta: 0, Count: 6}
	checkGEMM[float32, float32](t, vec.S, p2, tun)
	// And complex.
	p3 := GEMMProblem{DT: vec.C, M: 3, N: 2, K: 97, Alpha: 1, Beta: 1, Count: 5}
	checkGEMM[complex64, float32](t, vec.C, p3, tun)
}

func TestTRSMDimGuard(t *testing.T) {
	tun := DefaultTuning()
	if _, err := NewTRSMPlan(TRSMProblem{DT: vec.S, M: 200, N: 4, Alpha: 1, Count: 1}, tun); err == nil {
		t.Error("M=200 TRSM accepted")
	}
	if _, err := NewTRMMPlan(TRMMProblem{DT: vec.S, M: 4, N: 300, Alpha: 1, Count: 1}, tun); err == nil {
		t.Error("N=300 TRMM accepted")
	}
}

// GEMM and SYRK plans are bounded by their kernel calls per group, not
// by a dimension cap: 256³ still plans, while a 2^20 × 2^20 GEMM and a
// 2^60-long SYRK reduction are refused before anything is allocated.
func TestPlanCallsGuard(t *testing.T) {
	tun := DefaultTuning()
	if _, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 256, N: 256, K: 256, Alpha: 1, Count: 1}, tun); err != nil {
		t.Errorf("256³ GEMM refused: %v", err)
	}
	if _, err := NewSYRKPlan(SYRKProblem{DT: vec.D, N: 256, K: 256, Alpha: 1, Count: 1}, tun); err != nil {
		t.Errorf("256² SYRK refused: %v", err)
	}
	if _, err := NewGEMMPlan(GEMMProblem{DT: vec.S, M: 1 << 20, N: 1 << 20, K: 4, Alpha: 1, Count: 1}, tun); err == nil {
		t.Error("2^20 × 2^20 GEMM accepted")
	}
	if _, err := NewSYRKPlan(SYRKProblem{DT: vec.Z, N: 4, K: 1 << 60, Alpha: 1, Count: 1}, tun); err == nil {
		t.Error("K = 2^60 SYRK accepted")
	}
}

func TestPreinstall(t *testing.T) {
	n, err := Preinstall(DefaultTuning(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 16 real sizes × 2 types × 2 Ks + 6 complex sizes × 2 × 2, at least.
	if n < (16*2+6*2)*2 {
		t.Errorf("cache holds %d kernels after Preinstall", n)
	}
	// Idempotent.
	n2, err := Preinstall(DefaultTuning(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < n {
		t.Errorf("cache shrank: %d -> %d", n, n2)
	}
}

func TestTuningL1BudgetOverride(t *testing.T) {
	tun := DefaultTuning()
	tun.L1Budget = 4 << 10 // 4 KB: dgemm 16³ groups (12 KB) no longer fit
	pl, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 16, N: 16, K: 16, Alpha: 1, Beta: 1, Count: 4096}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GroupsPerBatch != 1 {
		t.Errorf("GroupsPerBatch = %d with a 4KB budget, want 1", pl.GroupsPerBatch)
	}
	// Empty cache config falls back to 64 KB.
	tun2 := Tuning{Prof: machine.Profile{FreqGHz: 1, VectorBits: 128, MemPorts: 1, FPPorts32: 1, FPPorts64: 1, IntPorts: 1, LatFMA: 4, LatMul: 4, LatAdd: 4}}
	if tun2.l1() != 64<<10 {
		t.Errorf("default l1 = %d", tun2.l1())
	}
}
