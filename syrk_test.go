package iatf

import (
	"context"
	"math/rand"
	"testing"

	"iatf/internal/matrix"
)

// SYRK against the oracle: all types, both triangles, both transposes,
// sizes spanning single tiles, edges and multiple K chunks.
func TestSYRKAgainstOracle(t *testing.T) {
	testSYRK[float32](t, 1e-3)
	testSYRK[float64](t, 1e-10)
	testSYRK[complex64](t, 1e-3)
	testSYRK[complex128](t, 1e-10)
}

func testSYRK[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			for _, nk := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {7, 6}, {12, 9}, {5, 60}} {
				n, k := nk[0], nk[1]
				const count = 5
				ar, ac := n, k
				if trans == Transpose {
					ar, ac = k, n
				}
				a := randBatch[T](rng, count, ar, ac)
				c := randBatch[T](rng, count, n, n)
				alpha, beta := T(2), scalarOfT[T](0.5)

				want := &Batch[T]{inner: c.inner.Clone()}
				matrix.RefSYRKBatch(uplo, trans, alpha, a.inner, beta, want.inner)

				ca, cc := Pack(a), Pack(c)
				if err := SYRK(uplo, trans, alpha, ca, beta, cc); err != nil {
					t.Fatalf("%v %v n=%d k=%d: %v", uplo, trans, n, k, err)
				}
				got := cc.Unpack()
				if !matrix.WithinTol(got.Data(), want.Data(), tol*float64(k)) {
					t.Errorf("%v %v n=%d k=%d: max diff %g", uplo, trans, n, k,
						matrix.MaxAbsDiff(got.Data(), want.Data()))
				}
			}
		}
	}
}

// The untouched triangle of C must be preserved exactly.
func TestSYRKLeavesOtherTriangleAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const count, n, k = 4, 6, 5
	a := randBatch[float64](rng, count, n, k)
	c := randBatch[float64](rng, count, n, n)
	orig := append([]float64(nil), c.Data()...)
	ca, cc := Pack(a), Pack(c)
	if err := SYRK(Lower, NoTrans, 1.0, ca, 1.0, cc); err != nil {
		t.Fatal(err)
	}
	got := cc.Unpack()
	for m := 0; m < count; m++ {
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ { // strict upper
				if got.At(m, i, j) != orig[m*n*n+j*n+i] {
					t.Fatalf("matrix %d upper (%d,%d) modified", m, i, j)
				}
			}
		}
	}
}

// Parallel SYRK must match sequential exactly.
func TestSYRKParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const count, n, k = 70, 5, 4
	a := randBatch[float32](rng, count, n, k)
	c := randBatch[float32](rng, count, n, n)
	ca := Pack(a)
	c1, c4 := Pack(c), Pack(c)
	if err := SYRK(Lower, NoTrans, float32(1), ca, float32(1), c1); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), syrkReq(Lower, NoTrans, float32(1), ca, float32(1), c4), WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(c1.Unpack().Data(), c4.Unpack().Data()) != 0 {
		t.Error("parallel SYRK differs")
	}
}

func TestSYRKErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := Pack(randBatch[float64](rng, 2, 3, 4))
	rect := Pack(randBatch[float64](rng, 2, 3, 4))
	if err := SYRK(Lower, NoTrans, 1.0, a, 1.0, rect); err == nil {
		t.Error("non-square C accepted")
	}
	var nilC *Compact[float64]
	if err := SYRK(Lower, NoTrans, 1.0, a, 1.0, nilC); err == nil {
		t.Error("nil C accepted")
	}
}
