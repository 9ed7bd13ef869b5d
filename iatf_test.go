package iatf

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"iatf/internal/kernels"
	"iatf/internal/matrix"
)

// gemmReq, trsmReq, trmmReq and syrkReq build a Do request from the
// classic argument list of GEMM, TRSM, TRMM and SYRK.
func gemmReq[T Scalar](ta, tb Trans, alpha T, a, b *Compact[T], beta T, c *Compact[T]) Request[T] {
	return Request[T]{Op: OpGEMM, TransA: ta, TransB: tb, Alpha: alpha, Beta: beta, A: a, B: b, C: c}
}

func trsmReq[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) Request[T] {
	return Request[T]{Op: OpTRSM, Side: side, Uplo: uplo, TransA: ta, Diag: diag, Alpha: alpha, A: a, B: b}
}

func trmmReq[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) Request[T] {
	r := trsmReq(side, uplo, ta, diag, alpha, a, b)
	r.Op = OpTRMM
	return r
}

func syrkReq[T Scalar](uplo Uplo, trans Trans, alpha T, a *Compact[T], beta T, c *Compact[T]) Request[T] {
	return Request[T]{Op: OpSYRK, Uplo: uplo, TransA: trans, Alpha: alpha, Beta: beta, A: a, C: c}
}

func randBatch[T Scalar](rng *rand.Rand, count, rows, cols int) *Batch[T] {
	b := NewBatch[T](count, rows, cols)
	matrix.Fill(rng, b.Data())
	return b
}

func randTriBatch[T Scalar](rng *rand.Rand, count, n int) *Batch[T] {
	b := &Batch[T]{inner: matrix.RandTriangularBatch[T](rng, count, n)}
	return b
}

func TestBatchAccessors(t *testing.T) {
	b := NewBatch[float64](3, 2, 4)
	if b.Count() != 3 || b.Rows() != 2 || b.Cols() != 4 {
		t.Fatalf("dims: %d %d %d", b.Count(), b.Rows(), b.Cols())
	}
	b.Set(2, 1, 3, 42)
	if b.At(2, 1, 3) != 42 {
		t.Error("At/Set")
	}
	if len(b.Data()) != 3*2*4 {
		t.Error("Data length")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	testRoundTrip[float32](t, rng)
	testRoundTrip[float64](t, rng)
	testRoundTrip[complex64](t, rng)
	testRoundTrip[complex128](t, rng)
}

func testRoundTrip[T Scalar](t *testing.T, rng *rand.Rand) {
	t.Helper()
	b := randBatch[T](rng, 5, 3, 4)
	c := Pack(b)
	if c.Count() != 5 || c.Rows() != 3 || c.Cols() != 4 {
		t.Fatalf("compact dims wrong: %d %d %d", c.Count(), c.Rows(), c.Cols())
	}
	got := c.Unpack()
	if matrix.MaxAbsDiff(got.Data(), b.Data()) != 0 {
		t.Errorf("%T round trip failed", b.Data()[0])
	}
}

func TestGEMMAgainstOracle(t *testing.T) {
	testGEMMOracle[float32](t, 1e-4)
	testGEMMOracle[float64](t, 1e-12)
	testGEMMOracle[complex64](t, 1e-4)
	testGEMMOracle[complex128](t, 1e-12)
}

func testGEMMOracle[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	const count, m, n, k = 9, 6, 5, 7
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			ar, ac := m, k
			if ta == Transpose {
				ar, ac = k, m
			}
			br, bc := k, n
			if tb == Transpose {
				br, bc = n, k
			}
			a := randBatch[T](rng, count, ar, ac)
			b := randBatch[T](rng, count, br, bc)
			c := randBatch[T](rng, count, m, n)
			alpha, beta := T(2), T(1)

			want := &Batch[T]{inner: c.inner.Clone()}
			matrix.RefGEMMBatch(ta, tb, alpha, a.inner, b.inner, beta, want.inner)

			ca, cb, cc := Pack(a), Pack(b), Pack(c)
			if err := GEMM(ta, tb, alpha, ca, cb, beta, cc); err != nil {
				t.Fatalf("%v%v: %v", ta, tb, err)
			}
			got := cc.Unpack()
			if !matrix.WithinTol(got.Data(), want.Data(), tol*float64(k)) {
				t.Errorf("%v%v: max diff %g", ta, tb,
					matrix.MaxAbsDiff(got.Data(), want.Data()))
			}
		}
	}
}

func TestTRSMAgainstOracle(t *testing.T) {
	testTRSMOracle[float32](t, 1e-3)
	testTRSMOracle[float64](t, 1e-10)
	testTRSMOracle[complex64](t, 1e-3)
	testTRSMOracle[complex128](t, 1e-10)
}

func testTRSMOracle[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	const count, m, n = 7, 6, 4
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					adim := m
					if side == Right {
						adim = n
					}
					a := randTriBatch[T](rng, count, adim)
					b := randBatch[T](rng, count, m, n)
					alpha := T(1)

					want := &Batch[T]{inner: b.inner.Clone()}
					matrix.RefTRSMBatch(side, uplo, ta, diag, alpha, a.inner, want.inner)

					ca, cb := Pack(a), Pack(b)
					if err := TRSM(side, uplo, ta, diag, alpha, ca, cb); err != nil {
						t.Fatalf("%v%v%v%v: %v", side, ta, uplo, diag, err)
					}
					got := cb.Unpack()
					if !matrix.WithinTol(got.Data(), want.Data(), tol) {
						t.Errorf("%v%v%v%v: max diff %g", side, ta, uplo, diag,
							matrix.MaxAbsDiff(got.Data(), want.Data()))
					}
				}
			}
		}
	}
}

func TestGEMMErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Pack(randBatch[float64](rng, 4, 2, 3))
	b := Pack(randBatch[float64](rng, 4, 3, 2))
	c := Pack(randBatch[float64](rng, 4, 2, 2))
	var nilC *Compact[float64]
	if err := GEMM(NoTrans, NoTrans, 1.0, a, b, 1.0, nilC); err == nil {
		t.Error("nil C accepted")
	}
	// Mismatched K.
	bad := Pack(randBatch[float64](rng, 4, 5, 2))
	if err := GEMM(NoTrans, NoTrans, 1.0, a, bad, 1.0, c); err == nil {
		t.Error("mismatched K accepted")
	}
}

func TestTRSMErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Pack(randBatch[float64](rng, 4, 2, 3)) // not square
	b := Pack(randBatch[float64](rng, 4, 2, 2))
	if err := TRSM(Left, Lower, NoTrans, NonUnit, 1.0, a, b); err == nil {
		t.Error("non-square A accepted")
	}
	var nilA *Compact[float64]
	if err := TRSM(Left, Lower, NoTrans, NonUnit, 1.0, nilA, b); err == nil {
		t.Error("nil A accepted")
	}
}

func TestCompactClone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := randBatch[float32](rng, 4, 2, 2)
	c := Pack(b)
	d := c.Clone()
	// Mutate the clone via GEMM and ensure the original is untouched.
	id := NewBatch[float32](4, 2, 2)
	for m := 0; m < 4; m++ {
		id.Set(m, 0, 0, 1)
		id.Set(m, 1, 1, 1)
	}
	if err := GEMM(NoTrans, NoTrans, 1.0, Pack(id), Pack(id), 0, d); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(c.Unpack().Data(), b.Data()) != 0 {
		t.Error("Clone shares storage")
	}
}

// Large batch exercising super-batching through the public API.
func TestGEMMLargeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const count = 1000
	a := randBatch[float32](rng, count, 4, 4)
	b := randBatch[float32](rng, count, 4, 4)
	c := randBatch[float32](rng, count, 4, 4)
	want := &Batch[float32]{inner: c.inner.Clone()}
	matrix.RefGEMMBatch(NoTrans, NoTrans, float32(1), a.inner, b.inner, float32(1), want.inner)
	ca, cb, cc := Pack(a), Pack(b), Pack(c)
	if err := GEMM(NoTrans, NoTrans, float32(1), ca, cb, float32(1), cc); err != nil {
		t.Fatal(err)
	}
	if !matrix.WithinTol(cc.Unpack().Data(), want.Data(), 1e-4) {
		t.Error("large batch mismatch")
	}
}

func TestTRMMAgainstOracle(t *testing.T) {
	testTRMMOracle[float32](t, 1e-3)
	testTRMMOracle[float64](t, 1e-11)
	testTRMMOracle[complex64](t, 1e-3)
	testTRMMOracle[complex128](t, 1e-11)
}

func testTRMMOracle[T Scalar](t *testing.T, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	const count, m, n = 6, 7, 5
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					adim := m
					if side == Right {
						adim = n
					}
					a := randTriBatch[T](rng, count, adim)
					b := randBatch[T](rng, count, m, n)
					alpha := T(2)

					want := &Batch[T]{inner: b.inner.Clone()}
					matrix.RefTRMMBatch(side, uplo, ta, diag, alpha, a.inner, want.inner)

					ca, cb := Pack(a), Pack(b)
					if err := TRMM(side, uplo, ta, diag, alpha, ca, cb); err != nil {
						t.Fatalf("%v%v%v%v: %v", side, ta, uplo, diag, err)
					}
					got := cb.Unpack()
					if !matrix.WithinTol(got.Data(), want.Data(), tol) {
						t.Errorf("%v%v%v%v: max diff %g", side, ta, uplo, diag,
							matrix.MaxAbsDiff(got.Data(), want.Data()))
					}
				}
			}
		}
	}
}

func TestTRMMErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Pack(randBatch[float64](rng, 4, 2, 3)) // not square
	b := Pack(randBatch[float64](rng, 4, 2, 2))
	if err := TRMM(Left, Lower, NoTrans, NonUnit, 1.0, a, b); err == nil {
		t.Error("non-square A accepted")
	}
	var nilA *Compact[float64]
	if err := TRMM(Left, Lower, NoTrans, NonUnit, 1.0, nilA, b); err == nil {
		t.Error("nil A accepted")
	}
}

// TRSM must invert TRMM: multiplying then solving with the same triangle
// recovers B.
func TestTRMMTRSMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const count, m, n = 8, 9, 6
	a := randTriBatch[float64](rng, count, m)
	b := randBatch[float64](rng, count, m, n)
	orig := append([]float64(nil), b.Data()...)
	ca, cb := Pack(a), Pack(b)
	if err := TRMM(Left, Lower, NoTrans, NonUnit, 1.0, ca, cb); err != nil {
		t.Fatal(err)
	}
	if err := TRSM(Left, Lower, NoTrans, NonUnit, 1.0, ca, cb); err != nil {
		t.Fatal(err)
	}
	got := cb.Unpack()
	if !matrix.WithinTol(got.Data(), orig, 1e-10) {
		t.Errorf("TRSM did not invert TRMM: max diff %g", matrix.MaxAbsDiff(got.Data(), orig))
	}
}

// Parallel variants must agree exactly with sequential execution.
func TestParallelAPIsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const count, n = 100, 6
	a := randBatch[float32](rng, count, n, n)
	bb := randBatch[float32](rng, count, n, n)
	c := randBatch[float32](rng, count, n, n)
	ca, cb := Pack(a), Pack(bb)
	c1, c4 := Pack(c), Pack(c)
	if err := GEMM(NoTrans, NoTrans, float32(1), ca, cb, float32(1), c1); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, float32(1), ca, cb, float32(1), c4), WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(c1.Unpack().Data(), c4.Unpack().Data()) != 0 {
		t.Error("parallel GEMM differs from sequential")
	}

	ta := randTriBatch[float32](rng, count, n)
	cta := Pack(ta)
	b1, b4 := Pack(bb), Pack(bb)
	if err := TRSM(Left, Lower, NoTrans, NonUnit, float32(1), cta, b1); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), trsmReq(Left, Lower, NoTrans, NonUnit, float32(1), cta, b4), WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(b1.Unpack().Data(), b4.Unpack().Data()) != 0 {
		t.Error("parallel TRSM differs from sequential")
	}

	m1, m4 := Pack(bb), Pack(bb)
	if err := TRMM(Left, Lower, NoTrans, NonUnit, float32(1), cta, m1); err != nil {
		t.Fatal(err)
	}
	if err := Do(context.Background(), trmmReq(Left, Lower, NoTrans, NonUnit, float32(1), cta, m4), WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(m1.Unpack().Data(), m4.Unpack().Data()) != 0 {
		t.Error("parallel TRMM differs from sequential")
	}
}

func TestPackReplicated(t *testing.T) {
	// One 2×3 matrix replicated 9 times must unpack to 9 identical copies.
	src := []float64{1, 2, 3, 4, 5, 6}
	c, err := PackReplicated(src, 2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Unpack()
	for m := 0; m < 9; m++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 2; i++ {
				if got.At(m, i, j) != src[j*2+i] {
					t.Fatalf("matrix %d (%d,%d) = %v", m, i, j, got.At(m, i, j))
				}
			}
		}
	}
	// Complex replication.
	cs := []complex64{1 + 2i, 3 - 1i, 2, 5i}
	cc, err := PackReplicated(cs, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotC := cc.Unpack()
	for m := 0; m < 5; m++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				if gotC.At(m, i, j) != cs[j*2+i] {
					t.Fatalf("complex matrix %d (%d,%d) = %v", m, i, j, gotC.At(m, i, j))
				}
			}
		}
	}
	// A replicated operand works in GEMM.
	rng := rand.New(rand.NewSource(61))
	b := randBatch[float64](rng, 9, 3, 2)
	out := Pack(NewBatch[float64](9, 2, 2))
	if err := GEMM(NoTrans, NoTrans, 1.0, c, Pack(b), 0.0, out); err != nil {
		t.Fatal(err)
	}
	want := NewBatch[float64](9, 2, 2)
	aConv := NewBatch[float64](9, 2, 3)
	for m := 0; m < 9; m++ {
		copy(aConv.Data()[m*6:(m+1)*6], src)
	}
	matrix.RefGEMMBatch(NoTrans, NoTrans, 1.0, aConv.inner, b.inner, 0.0, want.inner)
	if !matrix.WithinTol(out.Unpack().Data(), want.Data(), 1e-12) {
		t.Error("replicated GEMM mismatch")
	}
	// Errors.
	if _, err := PackReplicated(src[:3], 2, 3, 4); err == nil {
		t.Error("short data accepted")
	}
	if _, err := PackReplicated(src, 2, 3, 0); err == nil {
		t.Error("count 0 accepted")
	}
}

// Full evaluation-scale shape through the native public path: 33×33, the
// largest size of the paper's sweeps, exercising every tile row/column
// combination.
func TestGEMMSize33Native(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	const count, n = 9, 33
	a := randBatch[float64](rng, count, n, n)
	b := randBatch[float64](rng, count, n, n)
	c := randBatch[float64](rng, count, n, n)
	want := &Batch[float64]{inner: c.inner.Clone()}
	matrix.RefGEMMBatch(NoTrans, NoTrans, 1.0, a.inner, b.inner, 1.0, want.inner)
	ca, cb, cc := Pack(a), Pack(b), Pack(c)
	if err := GEMM(NoTrans, NoTrans, 1.0, ca, cb, 1.0, cc); err != nil {
		t.Fatal(err)
	}
	if !matrix.WithinTol(cc.Unpack().Data(), want.Data(), 1e-11) {
		t.Errorf("33×33 mismatch: %g", matrix.MaxAbsDiff(cc.Unpack().Data(), want.Data()))
	}

	ta := randTriBatch[float64](rng, count, n)
	tb := randBatch[float64](rng, count, n, n)
	wantB := &Batch[float64]{inner: tb.inner.Clone()}
	matrix.RefTRSMBatch(Left, Lower, NoTrans, NonUnit, 1.0, ta.inner, wantB.inner)
	cta, ctb := Pack(ta), Pack(tb)
	if err := TRSM(Left, Lower, NoTrans, NonUnit, 1.0, cta, ctb); err != nil {
		t.Fatal(err)
	}
	if !matrix.WithinTol(ctb.Unpack().Data(), wantB.Data(), 1e-8) {
		t.Errorf("33×33 TRSM mismatch: %g", matrix.MaxAbsDiff(ctb.Unpack().Data(), wantB.Data()))
	}
}

// TestStageOfReadsOnlyItsOpsFields: Do lowers a request through its
// op's Stage constructor, so a field the op ignores — a TRSM's Beta or
// TransB, a GEMM's Side — never reaches the engine stage, where it would
// split routing from the request's twin.
func TestStageOfReadsOnlyItsOpsFields(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := Pack(randBatch[float64](rng, 3, 4, 4))
	b := Pack(randBatch[float64](rng, 3, 4, 4))
	c := Pack(randBatch[float64](rng, 3, 4, 4))
	ignored := Request[float64]{TransA: Transpose, TransB: Transpose, Side: Right, Uplo: Upper,
		Diag: Unit, Alpha: 2, Beta: 3, A: a, B: b, C: c}
	for _, tc := range []struct {
		op    Op
		stage Stage[float64]
	}{
		{OpGEMM, GEMMStage(Transpose, Transpose, 2.0, a, b, 3.0, c)},
		{OpTRSM, TRSMStage(Right, Upper, Transpose, Unit, 2.0, a, b)},
		{OpTRMM, TRMMStage(Right, Upper, Transpose, Unit, 2.0, a, b)},
		{OpSYRK, SYRKStage(Upper, Transpose, 2.0, a, 3.0, c)},
	} {
		req := ignored
		req.Op = tc.op
		got, err := stageOf(req, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.stage.inner
		want.Op.Workers = 3
		if got[0] != want {
			t.Errorf("%s: stageOf = %+v\nconstructor = %+v", tc.op.name(), got[0].Op, want.Op)
		}
	}
}

// The build report and the iatf_build_info metric name the generated
// kernels this process runs, as the kernels package picked them from
// CPUID.
func TestBuildReportsRunTimeKernel(t *testing.T) {
	if got := Build().GEMMKernel; got != kernels.Backend {
		t.Fatalf("Build().GEMMKernel = %q, kernels.Backend = %q", got, kernels.Backend)
	}
	var b strings.Builder
	if err := NewEngine().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if want := `gemm_kernel="` + kernels.Backend + `"`; !strings.Contains(b.String(), want) {
		t.Fatalf("iatf_build_info lacks %s:\n%s", want, b.String())
	}
}
