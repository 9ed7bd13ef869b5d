package iatf

import (
	"context"
	"math/rand"
	"testing"

	"iatf/internal/core"
	"iatf/internal/kopt"
	"iatf/internal/matrix"
)

// TestNativePathGeneratesNoKernels pins the split between the paper's two
// stages: kernels are generated and scheduled at install time, and the
// run-time stage only selects and sequences them. A plan is geometry and
// the native executors run compiled kernels, so no library call — any
// op, dtype or mode, synchronous or queued, chained, sharded or
// prepacked — looks a program up in the kernel memo, let alone generates
// one. Only the VM and cycle-model executors read the memo.
func TestNativePathGeneratesNoKernels(t *testing.T) {
	old := core.SwapKernelMemo(kopt.NewMemo())
	defer core.SwapKernelMemo(old)

	eng := NewEngine()
	nativeOps[float32](t, eng)
	nativeOps[float64](t, eng)
	nativeOps[complex64](t, eng)
	nativeOps[complex128](t, eng)

	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	const count, n = 6, 7
	spd := func() *Compact[float64] {
		m := randBatch[float64](rng, count, n, n)
		a := NewBatch[float64](count, n, n)
		matrix.RefGEMMBatch(Transpose, NoTrans, 1.0, m.inner, m.inner, 0.0, a.inner)
		for v := 0; v < count; v++ {
			for i := 0; i < n; i++ {
				a.Set(v, i, i, a.At(v, i, i)+n)
			}
		}
		return Pack(a)
	}
	dom := func() *Compact[float64] { return Pack(randDominantBatch[float64](rng, count, n)) }
	gen := func() *Compact[float64] { return Pack(randBatch[float64](rng, count, n, n)) }
	on := WithEngine(eng)
	must := func(label string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	_, err := LU(dom(), on)
	must("LU", err)
	_, err = Cholesky(spd(), on)
	must("Cholesky", err)
	_, _, err = LUPivoted(gen(), on)
	must("LUPivoted", err)

	fut, err := Submit(ctx, gemmReq(NoTrans, NoTrans, 1.0, gen(), gen(), 1.0, gen()), on)
	must("Submit", err)
	must("Submit wait", fut.Wait(ctx))

	a, b := spd(), gen()
	must("Chain", Chain(ctx, []Stage[float64]{
		CholeskyStage(a),
		TRSMStage(Left, Lower, NoTrans, NonUnit, 1.0, a, b),
		TRSMStage(Left, Lower, Transpose, NonUnit, 1.0, a, b),
	}, on))

	set := NewEngineSet(2)
	for _, m := range []int{4, 5} { // f32 GEMMs of order 4 and 5 home on different shards of two
		x := Pack(randBatch[float32](rng, count, m, m))
		must("EngineSet", Do(ctx, gemmReq(NoTrans, NoTrans, float32(1), x, x.Clone(), float32(0), x.Clone()), WithEngineSet(set)))
	}

	w := gen()
	w.Prepack()
	for i := 0; i < 2; i++ {
		must("Prepack", Do(ctx, gemmReq(NoTrans, NoTrans, 1.0, w, gen(), 1.0, gen()), on))
	}

	if hits, misses, _ := core.KernelMemoStats(); hits != 0 || misses != 0 {
		t.Errorf("native calls looked up kernel programs: %d memo hits, %d misses; want none", hits, misses)
	}
}

// nativeOps runs GEMM in all four trans modes, TRSM and TRMM in all
// sixteen side/uplo/trans/diag modes, and SYRK through Do on eng, at an
// order with edge tiles and more than one triangle panel.
func nativeOps[T Scalar](t *testing.T, eng *Engine) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(27))
	const count, n = 6, 7
	on := WithEngine(eng)
	trans := []Trans{NoTrans, Transpose}
	gen := func() *Compact[T] { return Pack(randBatch[T](rng, count, n, n)) }
	for _, ta := range trans {
		for _, tb := range trans {
			if err := Do(ctx, gemmReq(ta, tb, T(1), gen(), gen(), T(1), gen()), on); err != nil {
				t.Fatalf("GEMM %v%v: %v", ta, tb, err)
			}
		}
	}
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range trans {
				for _, diag := range []Diag{NonUnit, Unit} {
					a := Pack(randTriBatch[T](rng, count, n))
					if err := Do(ctx, trsmReq(side, uplo, ta, diag, T(1), a, gen()), on); err != nil {
						t.Fatalf("TRSM %v%v%v%v: %v", side, ta, uplo, diag, err)
					}
					if err := Do(ctx, trmmReq(side, uplo, ta, diag, T(1), a, gen()), on); err != nil {
						t.Fatalf("TRMM %v%v%v%v: %v", side, ta, uplo, diag, err)
					}
				}
			}
		}
	}
	if err := Do(ctx, syrkReq(Lower, NoTrans, T(1), gen(), T(1), gen()), on); err != nil {
		t.Fatalf("SYRK: %v", err)
	}
}
