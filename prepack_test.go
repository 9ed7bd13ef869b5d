package iatf

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Prepack is an optimization hint, never a semantic change: every op must
// produce bit-identical results with and without it, on every batch size
// — including the padding edges around the SIMD width (1, 2^k-1, 2^k,
// 2^k+1).

var prepackEdgeCounts = []int{1, 7, 8, 9}

// prepackParity runs `call` against two identical operand sets — one
// plain, one opted into Prepack — three times back to back (so the
// second and third prepacked calls are warm cache hits) and requires
// bit-equal outputs after every call.
func prepackParity[T Scalar](t *testing.T, label string,
	operands func() (ins []*Compact[T], out *Compact[T]),
	call func(e *Engine, ins []*Compact[T], out *Compact[T]) error) {
	t.Helper()
	plainIns, plainOut := operands()
	preIns, preOut := operands()
	for _, in := range preIns {
		in.Prepack()
	}
	plainEng, preEng := NewEngine(), NewEngine()
	for callNo := 1; callNo <= 3; callNo++ {
		if err := call(plainEng, plainIns, plainOut); err != nil {
			t.Fatalf("%s call %d (plain): %v", label, callNo, err)
		}
		if err := call(preEng, preIns, preOut); err != nil {
			t.Fatalf("%s call %d (prepacked): %v", label, callNo, err)
		}
		want, got := plainOut.Unpack().Data(), preOut.Unpack().Data()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s call %d: prepacked diverges at element %d: want %v got %v",
					label, callNo, i, want[i], got[i])
			}
		}
	}
}

func testPrepackParityOps[T Scalar](t *testing.T, dtype string) {
	for _, count := range prepackEdgeCounts {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s count=%d workers=%d", dtype, count, workers)
			rng := rand.New(rand.NewSource(int64(601 + count)))

			prepackParity(t, "GEMM "+label,
				func() ([]*Compact[T], *Compact[T]) {
					rng := rand.New(rand.NewSource(int64(7 + count)))
					a := Pack(randBatch[T](rng, count, 6, 5))
					b := Pack(randBatch[T](rng, count, 5, 7))
					c := Pack(randBatch[T](rng, count, 6, 7))
					return []*Compact[T]{a, b}, c
				},
				func(e *Engine, ins []*Compact[T], out *Compact[T]) error {
					return Do(context.Background(), gemmReq(NoTrans, NoTrans, T(2), ins[0], ins[1], T(1), out), WithEngine(e), WithWorkers(workers))
				})

			// TRSM/TRMM write B, so B is both input and output; only the
			// reused triangle is prepacked.
			tri := randTriBatch[T](rng, count, 6)
			prepackParity(t, "TRSM "+label,
				func() ([]*Compact[T], *Compact[T]) {
					rng := rand.New(rand.NewSource(int64(13 + count)))
					b := Pack(randBatch[T](rng, count, 6, 4))
					return []*Compact[T]{Pack(tri)}, b
				},
				func(e *Engine, ins []*Compact[T], out *Compact[T]) error {
					return Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, T(1), ins[0], out), WithEngine(e), WithWorkers(workers))
				})
			prepackParity(t, "TRMM "+label,
				func() ([]*Compact[T], *Compact[T]) {
					rng := rand.New(rand.NewSource(int64(17 + count)))
					b := Pack(randBatch[T](rng, count, 6, 4))
					return []*Compact[T]{Pack(tri)}, b
				},
				func(e *Engine, ins []*Compact[T], out *Compact[T]) error {
					return Do(context.Background(), trmmReq(Left, Lower, NoTrans, NonUnit, T(1), ins[0], out), WithEngine(e), WithWorkers(workers))
				})

			prepackParity(t, "SYRK "+label,
				func() ([]*Compact[T], *Compact[T]) {
					rng := rand.New(rand.NewSource(int64(19 + count)))
					a := Pack(randBatch[T](rng, count, 6, 5))
					c := Pack(randBatch[T](rng, count, 6, 6))
					return []*Compact[T]{a}, c
				},
				func(e *Engine, ins []*Compact[T], out *Compact[T]) error {
					return Do(context.Background(), syrkReq(Lower, NoTrans, T(1), ins[0], T(1), out), WithEngine(e), WithWorkers(workers))
				})
		}
	}
}

func TestPrepackParityFloat32(t *testing.T) { testPrepackParityOps[float32](t, "s") }
func TestPrepackParityFloat64(t *testing.T) { testPrepackParityOps[float64](t, "d") }

// An op that writes an operand must invalidate its cached packed images:
// using B as a GEMM input, solving into it with TRSM, then using it as a
// GEMM input again has to see the post-solve contents, not the cached
// pre-solve image.
func TestPrepackInvalidatedByWritingOp(t *testing.T) {
	const count = 9
	rng := rand.New(rand.NewSource(88))
	eng := NewEngine()

	tri := Pack(randTriBatch[float64](rng, count, 6))
	b := Pack(randBatch[float64](rng, count, 6, 6))
	b.Prepack()
	tri.Prepack()
	c := Pack(NewBatch[float64](count, 6, 6))

	run := func() []float64 {
		if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.0, b, b, 0.0, c), WithEngine(eng)); err != nil {
			t.Fatal(err)
		}
		return c.Unpack().Data()
	}
	before := run()

	// TRSM writes B in place — its cached GEMM images are now stale.
	if err := Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, 1.0, tri, b), WithEngine(eng)); err != nil {
		t.Fatal(err)
	}
	after := run()

	// Reference: a fresh, never-prepacked copy of the post-solve B.
	fresh := Pack(b.Unpack())
	cRef := Pack(NewBatch[float64](count, 6, 6))
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.0, fresh, fresh, 0.0, cRef), WithEngine(eng)); err != nil {
		t.Fatal(err)
	}
	want := cRef.Unpack().Data()
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("stale packed image served after write: element %d want %v got %v", i, want[i], after[i])
		}
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("solve left B unchanged; invalidation test is vacuous")
	}

	// Explicit Invalidate is the escape hatch for out-of-band mutation;
	// here it must at worst force a harmless re-pack.
	b.Invalidate()
	again := run()
	for i := range after {
		if again[i] != after[i] {
			t.Fatalf("Invalidate changed results: element %d %v vs %v", i, after[i], again[i])
		}
	}
}

// Many goroutines sharing one prepacked operand through one engine must
// race neither on the pack cache nor on the image itself (run under
// -race by make stress), and every call must still be bit-exact.
func TestPrepackConcurrentShared(t *testing.T) {
	const (
		count      = 33
		goroutines = 8
		calls      = 6
	)
	rng := rand.New(rand.NewSource(89))
	eng := NewEngine()
	a := Pack(randBatch[float32](rng, count, 8, 8))
	b := Pack(randBatch[float32](rng, count, 8, 8))
	a.Prepack()
	b.Prepack()

	// Reference from a plain engine without reuse.
	cRef := Pack(NewBatch[float32](count, 8, 8))
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.5, a, b, 0.0, cRef), WithEngine(NewEngine())); err != nil {
		t.Fatal(err)
	}
	want := cRef.Unpack().Data()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := Pack(NewBatch[float32](count, 8, 8))
			for n := 0; n < calls; n++ {
				if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.5, a, b, 0.0, c), WithEngine(eng), WithWorkers(2)); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, n, err)
					return
				}
				got := c.Unpack().Data()
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d call %d: element %d want %v got %v",
							g, n, i, want[i], got[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
