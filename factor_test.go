package iatf

import (
	"math/rand"
	"testing"

	"iatf/internal/matrix"
)

// randDominantBatch builds diagonally dominant matrices (safe for
// unpivoted LU and, made symmetric, for Cholesky).
func randDominantBatch[T Scalar](rng *rand.Rand, count, n int) *Batch[T] {
	b := randBatch[T](rng, count, n, n)
	shift := scalarOfT[T](float64(n + 1))
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			b.Set(m, i, i, b.At(m, i, i)+shift)
		}
	}
	return b
}

// scalarOfT converts a float64 into any supported scalar type.
func scalarOfT[T Scalar](x float64) T {
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

// LU then LUSolve must reproduce the solution of the original system.
func TestLUSolveAgainstOracle(t *testing.T) {
	testLUSolve[float32](t, 1e-3)
	testLUSolve[float64](t, 1e-9)
	testLUSolve[complex64](t, 1e-3)
	testLUSolve[complex128](t, 1e-9)
}

func testLUSolve[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	const count, n, nrhs = 7, 9, 4
	a := randDominantBatch[T](rng, count, n)
	b := randBatch[T](rng, count, n, nrhs)

	ca, cb := Pack(a), Pack(b)
	info, err := LU(ca)
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != count {
		t.Fatalf("info length %d, want %d", len(info), count)
	}
	for m, code := range info {
		if code != 0 {
			t.Fatalf("matrix %d reported singular at column %d", m, code-1)
		}
	}
	if err := LUSolve(ca, cb); err != nil {
		t.Fatal(err)
	}
	x := cb.Unpack()

	// Verify A·X ≈ B with the original A.
	check := NewBatch[T](count, n, nrhs)
	matrix.RefGEMMBatch(NoTrans, NoTrans, T(1), a.inner, x.inner, T(0), check.inner)
	if !matrix.WithinTol(check.Data(), b.Data(), tol) {
		t.Errorf("A·X != B: max diff %g", matrix.MaxAbsDiff(check.Data(), b.Data()))
	}
}

// The LU factors themselves must reconstruct A: L·U = A.
func TestLUFactorsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const count, n = 5, 6
	a := randDominantBatch[float64](rng, count, n)
	ca := Pack(a)
	if _, err := LU(ca); err != nil {
		t.Fatal(err)
	}
	lu := ca.Unpack()
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k <= min(i, j); k++ {
					l := lu.At(m, i, k)
					if k == i {
						l = 1
					}
					if k > i {
						l = 0
					}
					u := lu.At(m, k, j)
					if k > j {
						u = 0
					}
					sum += l * u
				}
				if d := sum - a.At(m, i, j); d > 1e-10 || d < -1e-10 {
					t.Fatalf("matrix %d: (L·U)(%d,%d) = %v, want %v", m, i, j, sum, a.At(m, i, j))
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLUSingularDetection(t *testing.T) {
	a := NewBatch[float64](3, 3, 3)
	// Matrix 0: identity (fine). Matrix 1: zero pivot at column 1.
	// Matrix 2: zero pivot at column 0.
	for i := 0; i < 3; i++ {
		a.Set(0, i, i, 1)
	}
	a.Set(1, 0, 0, 1)
	a.Set(1, 2, 2, 1) // (1,1) stays zero
	a.Set(2, 1, 1, 1)
	a.Set(2, 2, 2, 1) // (0,0) stays zero
	ca := Pack(a)
	info, err := LU(ca)
	if err != nil {
		t.Fatal(err)
	}
	if info[0] != 0 || info[1] != 2 || info[2] != 1 {
		t.Errorf("info = %v, want [0 2 1]", info)
	}
}

func TestCholeskySolveAgainstOracle(t *testing.T) {
	testCholesky[float32](t, 1e-3)
	testCholesky[float64](t, 1e-9)
}

func testCholesky[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	const count, n, nrhs = 6, 7, 3
	// SPD matrices: A = Mᵀ·M + n·I.
	m := randBatch[T](rng, count, n, n)
	a := NewBatch[T](count, n, n)
	matrix.RefGEMMBatch(Transpose, NoTrans, T(1), m.inner, m.inner, T(0), a.inner)
	for v := 0; v < count; v++ {
		for i := 0; i < n; i++ {
			a.Set(v, i, i, a.At(v, i, i)+T(n))
		}
	}
	b := randBatch[T](rng, count, n, nrhs)

	ca, cb := Pack(a), Pack(b)
	info, err := Cholesky(ca)
	if err != nil {
		t.Fatal(err)
	}
	for v, code := range info {
		if code != 0 {
			t.Fatalf("matrix %d not SPD at column %d", v, code-1)
		}
	}
	if err := CholeskySolve(ca, cb); err != nil {
		t.Fatal(err)
	}
	x := cb.Unpack()
	check := NewBatch[T](count, n, nrhs)
	matrix.RefGEMMBatch(NoTrans, NoTrans, T(1), a.inner, x.inner, T(0), check.inner)
	if !matrix.WithinTol(check.Data(), b.Data(), tol) {
		t.Errorf("A·X != B: max diff %g", matrix.MaxAbsDiff(check.Data(), b.Data()))
	}
}

func TestCholeskyComplexRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := Pack(randBatch[complex64](rng, 2, 3, 3))
	if _, err := Cholesky(a); err == nil {
		t.Error("complex Cholesky accepted")
	}
}

func TestCholeskyNonSPDDetected(t *testing.T) {
	a := NewBatch[float64](1, 2, 2)
	a.Set(0, 0, 0, 1)
	a.Set(0, 1, 0, 5)
	a.Set(0, 0, 1, 5)
	a.Set(0, 1, 1, 1) // 1 - 25 < 0 → fails at column 1
	ca := Pack(a)
	info, err := Cholesky(ca)
	if err != nil {
		t.Fatal(err)
	}
	if info[0] != 2 {
		t.Errorf("info = %v, want [2]", info)
	}
}

func TestFactorParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const count, n = 130, 5
	a := randDominantBatch[float32](rng, count, n)
	c1, c4 := Pack(a), Pack(a)
	i1, err := LU(c1)
	if err != nil {
		t.Fatal(err)
	}
	i4, err := LU(c4, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(c1.Unpack().Data(), c4.Unpack().Data()) != 0 {
		t.Error("parallel LU differs")
	}
	for i := range i1 {
		if i1[i] != i4[i] {
			t.Fatal("parallel info differs")
		}
	}
}

func TestFactorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rect := Pack(randBatch[float64](rng, 2, 3, 4))
	if _, err := LU(rect); err == nil {
		t.Error("non-square LU accepted")
	}
	var nilA *Compact[float64]
	if _, err := LU(nilA); err == nil {
		t.Error("nil LU accepted")
	}
	if _, err := Cholesky(rect); err == nil {
		t.Error("non-square Cholesky accepted")
	}
}

// Pivoted LU must handle matrices where the unpivoted factorization
// breaks down (zero leading pivot).
func TestLUPivotedHandlesZeroPivot(t *testing.T) {
	a := NewBatch[float64](1, 2, 2)
	// [[0, 1], [1, 0]] — unpivoted LU fails at column 0.
	a.Set(0, 0, 1, 1)
	a.Set(0, 1, 0, 1)
	b := NewBatch[float64](1, 2, 1)
	b.Set(0, 0, 0, 3)
	b.Set(0, 1, 0, 5)
	ca, cb := Pack(a), Pack(b)

	// Unpivoted reports singularity.
	plain := ca.Clone()
	info, err := LU(plain)
	if err != nil {
		t.Fatal(err)
	}
	if info[0] == 0 {
		t.Fatal("unpivoted LU missed the zero pivot")
	}

	piv, info, err := LUPivoted(ca)
	if err != nil {
		t.Fatal(err)
	}
	if info[0] != 0 {
		t.Fatalf("pivoted LU failed: info=%v", info)
	}
	if err := LUSolvePivoted(ca, piv, cb); err != nil {
		t.Fatal(err)
	}
	x := cb.Unpack()
	// A swaps the entries: x = (5, 3)ᵀ.
	if x.At(0, 0, 0) != 5 || x.At(0, 1, 0) != 3 {
		t.Errorf("x = (%v, %v), want (5, 3)", x.At(0, 0, 0), x.At(0, 1, 0))
	}
}

// Pivoted LU on general random matrices (not diagonally dominant) must
// solve to tight residuals for all four types.
func TestLUPivotedAgainstOracle(t *testing.T) {
	testLUPivOracle[float32](t, 5e-3)
	testLUPivOracle[float64](t, 1e-8)
	testLUPivOracle[complex64](t, 5e-3)
	testLUPivOracle[complex128](t, 1e-8)
}

func testLUPivOracle[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	const count, n, nrhs = 9, 8, 3
	a := randBatch[T](rng, count, n, n) // general, NOT dominant
	b := randBatch[T](rng, count, n, nrhs)
	ca, cb := Pack(a), Pack(b)
	piv, info, err := LUPivoted(ca)
	if err != nil {
		t.Fatal(err)
	}
	for m, code := range info {
		if code != 0 {
			t.Fatalf("matrix %d flagged singular at %d", m, code-1)
		}
	}
	if err := LUSolvePivoted(ca, piv, cb); err != nil {
		t.Fatal(err)
	}
	x := cb.Unpack()
	check := NewBatch[T](count, n, nrhs)
	matrix.RefGEMMBatch(NoTrans, NoTrans, T(1), a.inner, x.inner, T(0), check.inner)
	if !matrix.WithinTol(check.Data(), b.Data(), tol) {
		t.Errorf("A·X != B: max diff %g", matrix.MaxAbsDiff(check.Data(), b.Data()))
	}
}

func TestLUPivotedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := Pack(randDominantBatch[float64](rng, 3, 4))
	b := Pack(randBatch[float64](rng, 3, 4, 2))
	if err := LUSolvePivoted(a, nil, b); err == nil {
		t.Error("nil pivots accepted")
	}
	rect := Pack(randBatch[float64](rng, 3, 4, 5))
	if _, _, err := LUPivoted(rect); err == nil {
		t.Error("rectangular accepted")
	}
}

// Invert must produce A·A⁻¹ ≈ I for all types.
func TestInvert(t *testing.T) {
	testInvert[float32](t, 1e-3)
	testInvert[float64](t, 1e-9)
	testInvert[complex64](t, 1e-2)
	testInvert[complex128](t, 1e-9)
}

func testInvert[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	const count, n = 6, 7
	a := randBatch[T](rng, count, n, n)
	ca := Pack(a)
	inv := ca.Clone()
	info, err := Invert(inv)
	if err != nil {
		t.Fatal(err)
	}
	for m, code := range info {
		if code != 0 {
			t.Fatalf("matrix %d singular at %d", m, code-1)
		}
	}
	prod := NewBatch[T](count, n, n)
	matrix.RefGEMMBatch(NoTrans, NoTrans, T(1), a.inner, inv.Unpack().inner, T(0), prod.inner)
	want := NewBatch[T](count, n, n)
	one := scalarOne[T]()
	for m := 0; m < count; m++ {
		for i := 0; i < n; i++ {
			want.Set(m, i, i, one)
		}
	}
	if !matrix.WithinTol(prod.Data(), want.Data(), tol) {
		t.Errorf("A·A⁻¹ != I: max diff %g", matrix.MaxAbsDiff(prod.Data(), want.Data()))
	}
}

func TestInvertErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	rect := Pack(randBatch[float64](rng, 2, 3, 4))
	if _, err := Invert(rect); err == nil {
		t.Error("rectangular Invert accepted")
	}
}
