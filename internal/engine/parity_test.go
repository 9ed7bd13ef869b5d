package engine

import (
	"context"
	"math/rand"
	"testing"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Parity property: the engine's count-bucketed cached plans must be
// bit-exact against plans built directly for the exact batch count. The
// cache rounds Count up to a power of two (so nearby counts share one
// plan) and splices the real count and scalars back in at dispatch; if
// bucketing ever leaked into the numerics — super-batch sizing, tile
// grids, padding-lane handling — these runs would diverge. Counts probe
// the bucket boundaries: 1, 2^k-1, 2^k, 2^k+1.

var parityCounts = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33}

func randCompactT[E vec.Float](rng *rand.Rand, dt vec.DType, count, rows, cols int) *layout.Compact[E] {
	b := matrix.NewBatch[E](count, rows, cols)
	matrix.Fill(rng, b.Data)
	return layout.FromBatch(dt, b)
}

func opOf[E vec.Float](dt vec.DType, c *layout.Compact[E]) Operand {
	o := Operand{DT: dt}
	switch cc := any(c).(type) {
	case *layout.Compact[float32]:
		o.F32 = cc
	case *layout.Compact[float64]:
		o.F64 = cc
	}
	return o
}

// boostDiag makes every matrix in the batch strictly diagonally dominant
// so TRSM solves stay well away from catastrophic cancellation.
func boostDiag[E vec.Float](c *layout.Compact[E]) {
	for v := 0; v < c.Count; v++ {
		for i := 0; i < c.Rows; i++ {
			re, im := c.At(v, i, i)
			c.Set(v, i, i, re+E(c.Rows)+4, im)
		}
	}
}

func requireBitExact[E vec.Float](t *testing.T, label string, count int, want, got *layout.Compact[E]) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s count=%d: engine and direct plan diverge at elem %d: %v vs %v",
				label, count, i, got.Data[i], want.Data[i])
		}
	}
}

func parityForDType[E vec.Float](t *testing.T, dt vec.DType) {
	e := New(core.DefaultTuning())
	tun := core.DefaultTuning()
	const m, n, k = 5, 4, 6
	const alpha, beta = 1.25, 0.75

	for _, count := range parityCounts {
		rng := rand.New(rand.NewSource(int64(1000 + count)))

		// GEMM: C = alpha·A·B + beta·C.
		a := randCompactT[E](rng, dt, count, m, k)
		b := randCompactT[E](rng, dt, count, k, n)
		c := randCompactT[E](rng, dt, count, m, n)
		cEng := c.Clone()
		op := OpDesc{Kind: OpGEMM, Alpha: alpha, Beta: beta, Workers: 1}
		if err := e.Run(context.Background(), one(op, opOf(dt, a), opOf(dt, b), opOf(dt, cEng)), Call{}); err != nil {
			t.Fatalf("GEMM count=%d: %v", count, err)
		}
		pl, err := core.NewGEMMPlan(core.GEMMProblem{
			DT: dt, M: m, N: n, K: k, Alpha: alpha, Beta: beta, Count: count}, tun)
		if err != nil {
			t.Fatalf("GEMM direct plan count=%d: %v", count, err)
		}
		if err := core.ExecGEMMNativePrepacked(pl, a, b, c, nil, nil, 1); err != nil {
			t.Fatalf("GEMM direct exec count=%d: %v", count, err)
		}
		requireBitExact(t, "GEMM", count, c, cEng)

		// TRSM (Left/Lower/NonUnit): solve A·X = alpha·B in place.
		at := randCompactT[E](rng, dt, count, m, m)
		boostDiag(at)
		bt := randCompactT[E](rng, dt, count, m, n)
		btEng := bt.Clone()
		trsm := OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Lower, Alpha: alpha, Workers: 1}
		if err := e.Run(context.Background(), one(trsm, opOf(dt, at), opOf(dt, btEng)), Call{}); err != nil {
			t.Fatalf("TRSM count=%d: %v", count, err)
		}
		spl, err := core.NewTRSMPlan(core.TRSMProblem{
			DT: dt, M: m, N: n, Side: matrix.Left, Uplo: matrix.Lower,
			Alpha: alpha, Count: count}, tun)
		if err != nil {
			t.Fatalf("TRSM direct plan count=%d: %v", count, err)
		}
		if err := core.ExecTRSMNativePrepacked(spl, at, bt, nil, 1); err != nil {
			t.Fatalf("TRSM direct exec count=%d: %v", count, err)
		}
		requireBitExact(t, "TRSM", count, bt, btEng)

		// TRMM (Left/Lower/NonUnit): B = alpha·A·B in place.
		bm := randCompactT[E](rng, dt, count, m, n)
		bmEng := bm.Clone()
		trmm := OpDesc{Kind: OpTRMM, Side: matrix.Left, Uplo: matrix.Lower, Alpha: alpha, Workers: 1}
		if err := e.Run(context.Background(), one(trmm, opOf(dt, at), opOf(dt, bmEng)), Call{}); err != nil {
			t.Fatalf("TRMM count=%d: %v", count, err)
		}
		mpl, err := core.NewTRMMPlan(core.TRMMProblem{
			DT: dt, M: m, N: n, Side: matrix.Left, Uplo: matrix.Lower,
			Alpha: alpha, Count: count}, tun)
		if err != nil {
			t.Fatalf("TRMM direct plan count=%d: %v", count, err)
		}
		if err := core.ExecTRMMNativePrepacked(mpl, at, bm, nil, 1); err != nil {
			t.Fatalf("TRMM direct exec count=%d: %v", count, err)
		}
		requireBitExact(t, "TRMM", count, bm, bmEng)

		// SYRK (Lower): C = alpha·A·Aᵀ + beta·C.
		as := randCompactT[E](rng, dt, count, n, k)
		cs := randCompactT[E](rng, dt, count, n, n)
		csEng := cs.Clone()
		syrk := OpDesc{Kind: OpSYRK, Uplo: matrix.Lower, Alpha: alpha, Beta: beta, Workers: 1}
		if err := e.Run(context.Background(), one(syrk, opOf(dt, as), opOf(dt, csEng)), Call{}); err != nil {
			t.Fatalf("SYRK count=%d: %v", count, err)
		}
		ypl, err := core.NewSYRKPlan(core.SYRKProblem{
			DT: dt, N: n, K: k, Uplo: matrix.Lower,
			Alpha: alpha, Beta: beta, Count: count}, tun)
		if err != nil {
			t.Fatalf("SYRK direct plan count=%d: %v", count, err)
		}
		if err := core.ExecSYRKNativeParallel(ypl, as, cs, 1); err != nil {
			t.Fatalf("SYRK direct exec count=%d: %v", count, err)
		}
		requireBitExact(t, "SYRK", count, cs, csEng)
	}

	// The whole sweep must have been served by a handful of bucketed
	// plans, not one per count — otherwise the property above is vacuous.
	s := e.Stats()
	if s.PlanHits == 0 {
		t.Error("no plan-cache hits: counts did not share bucketed plans")
	}
}

func TestBucketedPlanParityF32(t *testing.T) { parityForDType[float32](t, vec.S) }
func TestBucketedPlanParityF64(t *testing.T) { parityForDType[float64](t, vec.D) }
