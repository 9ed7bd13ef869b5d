package iatf

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"iatf/internal/matrix"
)

// scenario is one op with pristine inputs and a serially computed expected
// result; run re-executes it with a given worker count and verifies the
// output matches the serial baseline exactly (the kernel sequence per
// group is identical regardless of the worker split, so results are
// bit-identical).
type scenario struct {
	name string
	run  func(workers int) error
}

func gemmScenario[T Scalar](t *testing.T, seed int64, count, m, n, k int) scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := Pack(randBatch[T](rng, count, m, k))
	b := Pack(randBatch[T](rng, count, k, n))
	c0 := Pack(randBatch[T](rng, count, m, n))
	alpha, beta := T(2), T(1)
	exp := c0.Clone()
	if err := GEMM(NoTrans, NoTrans, alpha, a, b, beta, exp); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("gemm-%T-%dx%dx%d", alpha, m, n, k)
	return scenario{name: name, run: func(workers int) error {
		c := c0.Clone()
		if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, alpha, a, b, beta, c), WithWorkers(workers)); err != nil {
			return err
		}
		return compactEqual(c, exp)
	}}
}

func trsmScenario[T Scalar](t *testing.T, seed int64, count, m, n int) scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := Pack(randTriBatch[T](rng, count, m))
	b0 := Pack(randBatch[T](rng, count, m, n))
	exp := b0.Clone()
	if err := TRSM(Left, Lower, NoTrans, NonUnit, T(1), a, exp); err != nil {
		t.Fatal(err)
	}
	return scenario{name: fmt.Sprintf("trsm-%dx%d", m, n), run: func(workers int) error {
		b := b0.Clone()
		if err := Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, T(1), a, b), WithWorkers(workers)); err != nil {
			return err
		}
		return compactEqual(b, exp)
	}}
}

func luScenario[T Scalar](t *testing.T, seed int64, count, n int) scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := randBatch[T](rng, count, n, n)
	// Diagonal dominance keeps the unpivoted factorization stable.
	shift := scalarFromInt[T](n)
	for mi := 0; mi < count; mi++ {
		for i := 0; i < n; i++ {
			batch.Set(mi, i, i, batch.At(mi, i, i)+shift)
		}
	}
	a0 := Pack(batch)
	exp := a0.Clone()
	expInfo, err := LU(exp)
	if err != nil {
		t.Fatal(err)
	}
	return scenario{name: fmt.Sprintf("lu-%dx%d", n, n), run: func(workers int) error {
		a := a0.Clone()
		info, err := LU(a, WithWorkers(workers))
		if err != nil {
			return err
		}
		for i := range info {
			if info[i] != expInfo[i] {
				return fmt.Errorf("info[%d] = %d, want %d", i, info[i], expInfo[i])
			}
		}
		return compactEqual(a, exp)
	}}
}

func compactEqual[T Scalar](got, want *Compact[T]) error {
	g, w := got.Unpack(), want.Unpack()
	if d := matrix.MaxAbsDiff(g.Data(), w.Data()); d != 0 {
		return fmt.Errorf("result diverges from serial baseline by %g", d)
	}
	return nil
}

// TestEngineConcurrentStress hammers the default engine from many
// goroutines with mixed GEMM/TRSM/LU on shared and distinct shapes and
// every workers convention (auto, serial, oversubscribed), asserting all
// results match the serial baseline. Run under -race this exercises the
// plan cache shards, the buffer pools and the persistent worker pool for
// data races.
func TestEngineConcurrentStress(t *testing.T) {
	scenarios := []scenario{
		// Shared shapes: every goroutine contends on the same plan entries.
		gemmScenario[float32](t, 10, 300, 8, 8, 8),
		gemmScenario[float64](t, 11, 129, 6, 5, 7),
		gemmScenario[complex64](t, 12, 60, 4, 4, 4),
		trsmScenario[float64](t, 13, 200, 8, 4),
		luScenario[float32](t, 14, 150, 6),
		// Distinct shapes: concurrent cache misses and inserts.
		gemmScenario[float64](t, 15, 96, 3, 9, 2),
		gemmScenario[float32](t, 16, 80, 12, 2, 5),
		trsmScenario[float32](t, 17, 90, 5, 7),
	}
	goroutines := 12
	iters := 8
	if testing.Short() {
		goroutines, iters = 6, 3
	}
	workerChoices := []int{0, 1, 2, 4, 16, -1}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sc := scenarios[(g+i)%len(scenarios)]
				workers := workerChoices[(g*iters+i)%len(workerChoices)]
				if err := sc.run(workers); err != nil {
					errc <- fmt.Errorf("goroutine %d, %s, workers=%d: %w", g, sc.name, workers, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestWorkersAutoConvention checks workers <= 0 means auto on every
// parallel entry point (no panic, no degenerate serial-only path, correct
// results).
func TestWorkersAutoConvention(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const count = 64
	a := Pack(randBatch[float64](rng, count, 5, 5))
	b := Pack(randBatch[float64](rng, count, 5, 5))
	cSerial := Pack(randBatch[float64](rng, count, 5, 5))
	cAuto := cSerial.Clone()
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.0, a, b, 1.0, cSerial), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.0, a, b, 1.0, cAuto), WithWorkers(0)); err != nil {
		t.Fatal(err)
	}
	if err := compactEqual(cAuto, cSerial); err != nil {
		t.Fatal(err)
	}

	tri := Pack(randTriBatch[float64](rng, count, 6))
	rhsS := Pack(randBatch[float64](rng, count, 6, 3))
	rhsA := rhsS.Clone()
	if err := Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, 1.0, tri, rhsS), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, 1.0, tri, rhsA), WithWorkers(-2)); err != nil {
		t.Fatal(err)
	}
	if err := compactEqual(rhsA, rhsS); err != nil {
		t.Fatal(err)
	}

	mm := tri.Clone()
	if err := Do(context.Background(), trmmReq(Left, Lower, NoTrans, NonUnit, 1.0, tri, mm), WithWorkers(0)); err != nil {
		t.Fatal(err)
	}
	sk := Pack(randBatch[float64](rng, count, 5, 5))
	if err := Do(context.Background(), syrkReq(Lower, NoTrans, 1.0, a, 1.0, sk), WithWorkers(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := LU(mm, WithWorkers(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Cholesky(skSPD(rng, count, 4), WithWorkers(-1)); err != nil {
		t.Fatal(err)
	}
}

// scalarFromInt converts a run-time int to the scalar type (the generic
// conversion T(n) only works for constants once complex types are in the
// constraint).
func scalarFromInt[T Scalar](n int) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(n)).(T)
	case float64:
		return any(float64(n)).(T)
	case complex64:
		return any(complex64(complex(float64(n), 0))).(T)
	default:
		return any(complex(float64(n), 0)).(T)
	}
}

// skSPD builds a symmetric positive-definite batch for Cholesky.
func skSPD(rng *rand.Rand, count, n int) *Compact[float64] {
	b := randBatch[float64](rng, count, n, n)
	spd := NewBatch[float64](count, n, n)
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += b.At(m, i, k) * b.At(m, j, k)
				}
				if i == j {
					s += float64(n)
				}
				spd.Set(m, i, j, s)
			}
		}
	}
	return Pack(spd)
}
