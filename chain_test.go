package iatf_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"iatf"
)

// chainRand fills a packed batch with deterministic pseudo-random data,
// boosting the diagonal so triangular solves and factorizations stay
// well conditioned.
func chainRand[T float32 | float64](rng *rand.Rand, count, rows, cols int, diagBoost float64) *iatf.Compact[T] {
	b := iatf.NewBatch[T](count, rows, cols)
	d := b.Data()
	for i := range d {
		d[i] = T(rng.Float64() - 0.5)
	}
	for m := 0; m < count; m++ {
		for i := 0; i < rows && i < cols; i++ {
			b.Set(m, i, i, b.At(m, i, i)+T(diagBoost))
		}
	}
	return iatf.Pack(b)
}

// spdRand builds a batch of symmetric positive-definite matrices
// (AᵀA + n·I) for Cholesky chains.
func spdRand[T float32 | float64](rng *rand.Rand, count, n int) *iatf.Compact[T] {
	b := iatf.NewBatch[T](count, n, n)
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := T(rng.Float64() - 0.5)
				b.Set(m, i, j, v)
				b.Set(m, j, i, v)
			}
			b.Set(m, i, i, b.At(m, i, i)+T(n))
		}
	}
	return iatf.Pack(b)
}

// expectEqual asserts two compact batches are bitwise identical.
func expectEqual[T float32 | float64](t *testing.T, label string, got, want *iatf.Compact[T]) {
	t.Helper()
	g, w := got.Unpack().Data(), want.Unpack().Data()
	if len(g) != len(w) {
		t.Fatalf("%s: length %d vs %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d: got %v want %v", label, i, g[i], w[i])
		}
	}
}

// chainCase is one chain expressed twice: as stages and as the
// equivalent serial call sequence over cloned operands.
type chainCase[T float32 | float64] struct {
	name   string
	stages func(a, b, c *iatf.Compact[T]) []iatf.Stage[T]
	serial func(workers int, a, b, c *iatf.Compact[T]) error
	// needsSPD marks cases whose A must be positive definite.
	needsSPD bool
	// square forces B to the same shape as A (GEMM/SYRK cases).
	square bool
}

func chainCases[T float32 | float64]() []chainCase[T] {
	return []chainCase[T]{
		{
			// Adjacent triangular stages over one B, rows read upward.
			name: "TRMM+TRSM upper",
			stages: func(a, b, _ *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 2, a, b),
					iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
				}
			},
			serial: func(w int, a, b, _ *iatf.Compact[T]) error {
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRMM, Side: iatf.Left, Uplo: iatf.Upper, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 2, A: a, B: b}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Upper, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w))
			},
		},
		{
			// Right-side pair: both stages read B along its rows.
			name: "right-side TRSM+TRMM",
			stages: func(a, b, _ *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.TRSMStage(iatf.Right, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, a, b),
					iatf.TRMMStage(iatf.Right, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, a, b),
				}
			},
			serial: func(w int, a, b, _ *iatf.Compact[T]) error {
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Right, Uplo: iatf.Lower, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRMM, Side: iatf.Right, Uplo: iatf.Lower, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w))
			},
			square: true,
		},
		{
			// A GEMM reading B sits between the triangular stages.
			name: "TRMM+GEMM+TRSM broken",
			stages: func(a, b, c *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
					iatf.GEMMStage(iatf.NoTrans, iatf.NoTrans, 1, a, b, 1, c),
					iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
				}
			},
			serial: func(w int, a, b, c *iatf.Compact[T]) error {
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRMM, Side: iatf.Left, Uplo: iatf.Upper, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpGEMM, TransA: iatf.NoTrans, TransB: iatf.NoTrans, Alpha: 1, Beta: 1, A: a, B: b, C: c}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Upper, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w))
			},
		},
		{
			// The newton shape: factor once, two solves against the factors.
			name: "LU+TRSM+TRSM",
			stages: func(a, b, _ *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.LUStage(a),
					iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, 1, a, b),
					iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, b),
				}
			},
			serial: func(w int, a, b, _ *iatf.Compact[T]) error {
				if _, err := iatf.LU(a, iatf.WithWorkers(w)); err != nil {
					return err
				}
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Lower, TransA: iatf.NoTrans, Diag: iatf.Unit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Upper, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w))
			},
		},
		{
			// The blockjacobi shape: Cholesky then forward/back solves.
			name: "Cholesky+TRSM+TRSM",
			stages: func(a, b, _ *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.CholeskyStage(a),
					iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, a, b),
					iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.Transpose, iatf.NonUnit, 1, a, b),
				}
			},
			serial: func(w int, a, b, _ *iatf.Compact[T]) error {
				if _, err := iatf.Cholesky(a, iatf.WithWorkers(w)); err != nil {
					return err
				}
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Lower, TransA: iatf.NoTrans, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpTRSM, Side: iatf.Left, Uplo: iatf.Lower, TransA: iatf.Transpose, Diag: iatf.NonUnit, Alpha: 1, A: a, B: b}, iatf.WithWorkers(w))
			},
			needsSPD: true,
		},
		{
			// GEMM into C then SYRK reading C: covers the remaining ops and
			// a produced operand consumed through slot 0 of the next stage.
			name: "GEMM+SYRK",
			stages: func(a, b, c *iatf.Compact[T]) []iatf.Stage[T] {
				return []iatf.Stage[T]{
					iatf.GEMMStage(iatf.NoTrans, iatf.NoTrans, 1, a, b, 0, c),
					iatf.SYRKStage(iatf.Lower, iatf.NoTrans, 1, c, 1, a),
				}
			},
			serial: func(w int, a, b, c *iatf.Compact[T]) error {
				if err := iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpGEMM, TransA: iatf.NoTrans, TransB: iatf.NoTrans, Alpha: 1, Beta: 0, A: a, B: b, C: c}, iatf.WithWorkers(w)); err != nil {
					return err
				}
				return iatf.Do(context.Background(), iatf.Request[T]{Op: iatf.OpSYRK, Uplo: iatf.Lower, TransA: iatf.NoTrans, Alpha: 1, Beta: 1, A: c, C: a}, iatf.WithWorkers(w))
			},
			square: true,
		},
	}
}

// runChainParity drives every case × count × worker setting and demands
// bitwise identity between the chain and the serial sequence.
func runChainParity[T float32 | float64](t *testing.T, async bool) {
	const n = 8
	for _, tc := range chainCases[T]() {
		for _, count := range []int{1, 7, 8, 9} {
			for _, workers := range []int{1, 0} {
				rng := rand.New(rand.NewSource(int64(count*10 + workers)))
				var a *iatf.Compact[T]
				if tc.needsSPD {
					a = spdRand[T](rng, count, n)
				} else {
					a = chainRand[T](rng, count, n, n, 4)
				}
				cols := 4
				if tc.square {
					cols = n
				}
				b := chainRand[T](rng, count, n, cols, 0)
				c := chainRand[T](rng, count, n, cols, 0)
				aRef, bRef, cRef := a.Clone(), b.Clone(), c.Clone()

				if err := tc.serial(workers, aRef, bRef, cRef); err != nil {
					t.Fatalf("%s serial: %v", tc.name, err)
				}
				e := iatf.NewEngine()
				opts := []iatf.Option{iatf.WithEngine(e), iatf.WithWorkers(workers)}
				if async {
					opts = append(opts, iatf.WithAsync())
				}
				if err := iatf.Chain(context.Background(), tc.stages(a, b, c), opts...); err != nil {
					t.Fatalf("%s chain: %v", tc.name, err)
				}
				label := tc.name
				expectEqual(t, label+" A", a, aRef)
				expectEqual(t, label+" B", b, bRef)
				expectEqual(t, label+" C", c, cRef)
			}
		}
	}
}

func TestChainParityF32(t *testing.T) { runChainParity[float32](t, false) }
func TestChainParityF64(t *testing.T) { runChainParity[float64](t, false) }
func TestChainParityAsync(t *testing.T) {
	runChainParity[float64](t, true)
}

// TestChainSingular asserts a factor failure surfaces as a *ChainError
// wrapping ErrSingular with per-matrix info, and that earlier stages'
// results are preserved (the chain stops at the failing stage).
func TestChainSingular(t *testing.T) {
	const count, n = 5, 4
	a := iatf.NewBatch[float64](count, n, n)
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			a.Set(m, i, i, 1)
		}
	}
	// Matrix 3 is singular: zero out its last pivot.
	a.Set(3, n-1, n-1, 0)
	ac := iatf.Pack(a)
	b := chainRand[float64](rand.New(rand.NewSource(5)), count, n, 2, 0)
	err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
		iatf.LUStage(ac),
		iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, 1, ac, b),
	}, iatf.WithEngine(iatf.NewEngine()))
	if !errors.Is(err, iatf.ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	var ce *iatf.ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ChainError, got %T", err)
	}
	if ce.Stage != 0 {
		t.Fatalf("failing stage = %d, want 0", ce.Stage)
	}
	if len(ce.Info) != count || ce.Info[3] == 0 {
		t.Fatalf("info = %v, want nonzero at index 3", ce.Info)
	}
}

// TestChainValidation checks chain-wide validation: mismatched counts
// and dtype-consistent stage shapes fail up front with the stage index.
func TestChainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := chainRand[float64](rng, 7, 8, 8, 4)
	b7 := chainRand[float64](rng, 7, 8, 4, 0)
	b9 := chainRand[float64](rng, 9, 8, 4, 0)
	err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
		iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b7),
		iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b9),
	})
	var ce *iatf.ChainError
	if err == nil || !errors.As(err, &ce) || ce.Stage != 1 {
		t.Fatalf("count mismatch: want ChainError at stage 1, got %v", err)
	}
	// Shape mismatch inside one stage.
	bBad := chainRand[float64](rng, 7, 6, 4, 0)
	err = iatf.Chain(context.Background(), []iatf.Stage[float64]{
		iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, bBad),
	})
	if err == nil || !errors.As(err, &ce) || ce.Stage != 0 {
		t.Fatalf("shape mismatch: want ChainError at stage 0, got %v", err)
	}
	// Empty chains fail up front.
	if err := iatf.Chain[float64](context.Background(), nil); err == nil {
		t.Fatal("empty chain must fail")
	}
}

// TestChainCancel verifies an already-cancelled context aborts before
// executing and leaves operands untouched.
func TestChainCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := chainRand[float64](rng, 7, 8, 8, 4)
	b := chainRand[float64](rng, 7, 8, 4, 0)
	bRef := b.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := iatf.Chain(ctx, []iatf.Stage[float64]{
		iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
		iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	expectEqual(t, "B untouched", b, bRef)
}

// TestChainSpans verifies WithSpanSink produces one parent CHAIN span
// whose per-stage children link back to it.
func TestChainSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := chainRand[float64](rng, 7, 8, 8, 4)
	b := chainRand[float64](rng, 7, 8, 4, 0)
	var spans []iatf.Span
	err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
		iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
		iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
	}, iatf.WithEngine(iatf.NewEngine()), iatf.WithSpanSink(func(sp *iatf.Span) {
		spans = append(spans, *sp)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("sink saw %d spans, want the one parent", len(spans))
	}
	if spans[0].Op != "CHAIN" || spans[0].Mode != "TRMM+TRSM" {
		t.Fatalf("parent span = %+v", spans[0])
	}
}

// TestChainSharedEngineStress hammers one engine with concurrent
// identical and distinct chains; run under -race it checks the chain
// path (plan cache, pack cache, the async queue) for data
// races, and every caller's result must stay bit-exact.
func TestChainSharedEngineStress(t *testing.T) {
	const goroutines = 8
	const iters = 25
	e := iatf.NewEngine()
	rng := rand.New(rand.NewSource(9))
	a := chainRand[float64](rng, 7, 8, 8, 4)
	bSeed := chainRand[float64](rng, 7, 8, 4, 0)
	// Reference result of one chained round trip.
	want := bSeed.Clone()
	if err := iatf.TRMM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, want); err != nil {
		t.Fatal(err)
	}
	if err := iatf.TRSM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			async := g%2 == 1
			for i := 0; i < iters; i++ {
				b := bSeed.Clone()
				opts := []iatf.Option{iatf.WithEngine(e)}
				if async {
					opts = append(opts, iatf.WithAsync())
				}
				err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
					iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
					iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, b),
				}, opts...)
				if err != nil {
					errs[g] = err
					return
				}
				got, ref := b.Unpack().Data(), want.Unpack().Data()
				for j := range got {
					if got[j] != ref[j] {
						errs[g] = errors.New("result diverged under concurrency")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestChainOnSet routes chains through a sharded engine set, sync and
// async, and checks parity.
func TestChainOnSet(t *testing.T) {
	set := iatf.NewEngineSet(2)
	rng := rand.New(rand.NewSource(10))
	a := chainRand[float64](rng, 7, 8, 8, 4)
	b := chainRand[float64](rng, 7, 8, 4, 0)
	bRef := b.Clone()
	if err := iatf.TRMM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, bRef); err != nil {
		t.Fatal(err)
	}
	if err := iatf.TRSM(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, a, bRef); err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		bc := b.Clone()
		opts := []iatf.Option{iatf.WithEngineSet(set)}
		if async {
			opts = append(opts, iatf.WithAsync())
		}
		if err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
			iatf.TRMMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, bc),
			iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1.0, a, bc),
		}, opts...); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		expectEqual(t, "set chain", bc, bRef)
	}
}
