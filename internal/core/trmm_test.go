package core

import (
	"math/rand"
	"testing"

	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

func checkTRMM[T matrix.Scalar, E vec.Float](t *testing.T, dt vec.DType, p TRMMProblem, tun Tuning, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(p.M*1000+p.N*100) + int64(p.Side)*3 + int64(p.Uplo)*5 + int64(p.TransA)*7 + int64(p.Diag)*11))
	adim := p.M
	if p.Side == matrix.Right {
		adim = p.N
	}
	a := matrix.RandTriangularBatch[T](rng, p.Count, adim)
	b := matrix.RandBatch[T](rng, p.Count, p.M, p.N)

	want := b.Clone()
	matrix.RefTRMMBatch(p.Side, p.Uplo, p.TransA, p.Diag, scalarOf[T](p.Alpha), a, want)

	ca := toCompact[T, E](dt, a)
	cb := toCompact[T, E](dt, b)
	pl, err := NewTRMMPlan(p, tun)
	if err != nil {
		t.Fatalf("%v %s M=%d N=%d: %v", dt, p.Mode(), p.M, p.N, err)
	}
	if err := ExecTRMMNativePrepacked(pl, ca, cb, nil, workers); err != nil {
		t.Fatalf("%v %s M=%d N=%d: %v", dt, p.Mode(), p.M, p.N, err)
	}
	got := fromCompact[T, E](cb)
	dim := adim
	if !matrix.WithinTol(got.Data, want.Data, matrix.Tol[T](2*dim+4)) {
		t.Errorf("%v %s M=%d N=%d count=%d: max diff %g",
			dt, p.Mode(), p.M, p.N, p.Count, matrix.MaxAbsDiff(got.Data, want.Data))
	}
}

func TestTRMMAllModes(t *testing.T) {
	tun := DefaultTuning()
	for _, side := range []matrix.Side{matrix.Left, matrix.Right} {
		for _, uplo := range []matrix.Uplo{matrix.Lower, matrix.Upper} {
			for _, ta := range []matrix.Trans{matrix.NoTrans, matrix.Transpose} {
				for _, diag := range []matrix.Diag{matrix.NonUnit, matrix.Unit} {
					for _, mn := range [][2]int{{1, 1}, {3, 2}, {5, 4}, {9, 6}, {12, 12}} {
						p := TRMMProblem{M: mn[0], N: mn[1], Side: side, Uplo: uplo,
							TransA: ta, Diag: diag, Alpha: 1, Count: 5}
						p.DT = vec.S
						checkTRMM[float32, float32](t, vec.S, p, tun, 1)
						p.DT = vec.D
						checkTRMM[float64, float64](t, vec.D, p, tun, 1)
						p.DT = vec.C
						checkTRMM[complex64, float32](t, vec.C, p, tun, 1)
						p.DT = vec.Z
						checkTRMM[complex128, float64](t, vec.Z, p, tun, 1)
					}
				}
			}
		}
	}
}

func TestTRMMAlphaAndParallel(t *testing.T) {
	tun := DefaultTuning()
	p := TRMMProblem{DT: vec.D, M: 7, N: 5, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 2.5, Count: 33}
	checkTRMM[float64, float64](t, vec.D, p, tun, 1)
	checkTRMM[float64, float64](t, vec.D, p, tun, 4)
	p.DT = vec.Z
	p.Alpha = 1 + 1i
	checkTRMM[complex128, float64](t, vec.Z, p, tun, 3)
}

func TestTRMMInvalid(t *testing.T) {
	tun := DefaultTuning()
	if _, err := NewTRMMPlan(TRMMProblem{DT: vec.S, M: 0, N: 1, Count: 1}, tun); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := NewTRMMPlan(TRMMProblem{DT: vec.S, M: 1, N: 1, Count: 0}, tun); err == nil {
		t.Error("count=0 accepted")
	}
}

func TestTRMMProblemDerived(t *testing.T) {
	p := TRMMProblem{DT: vec.S, M: 4, N: 8, Side: matrix.Left, Uplo: matrix.Upper,
		TransA: matrix.Transpose, Diag: matrix.Unit, Count: 10}
	if p.Mode() != "LTUU" {
		t.Errorf("Mode = %s", p.Mode())
	}
	if p.FLOPs() != 1*4*4*8*10 {
		t.Errorf("FLOPs = %v", p.FLOPs())
	}
}

// The TRMM VM backend (generated IR kernels) must agree bit for bit with
// the native kernels.
func TestTRMMBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tun := DefaultTuning()
	for _, dt := range vec.DTypes {
		for _, mode := range []struct {
			side matrix.Side
			uplo matrix.Uplo
			ta   matrix.Trans
			diag matrix.Diag
		}{
			{matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit},
			{matrix.Left, matrix.Upper, matrix.NoTrans, matrix.Unit},
			{matrix.Right, matrix.Lower, matrix.Transpose, matrix.NonUnit},
		} {
			for _, mn := range [][2]int{{4, 3}, {9, 6}} {
				p := TRMMProblem{DT: dt, M: mn[0], N: mn[1], Side: mode.side,
					Uplo: mode.uplo, TransA: mode.ta, Diag: mode.diag, Alpha: 1.5, Count: 5}
				pl, err := NewTRMMPlan(p, tun)
				if err != nil {
					t.Fatal(err)
				}
				if dt.Real() == vec.S {
					compareTRMMBackends[float32](t, rng, pl)
				} else {
					compareTRMMBackends[float64](t, rng, pl)
				}
			}
		}
	}
}

func compareTRMMBackends[E vec.Float](t *testing.T, rng *rand.Rand, pl *TRMMPlan) {
	t.Helper()
	p := pl.P
	a := randCompact[E](rng, p.DT, p.Count, pl.MEff, pl.MEff)
	b := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	bVM := b.Clone()
	if err := ExecTRMM(pl, a, bVM, nil); err != nil {
		t.Fatalf("%v %s: %v", p.DT, p.Mode(), err)
	}
	bNat := b.Clone()
	if err := ExecTRMMNativePrepacked(pl, a, bNat, nil, 1); err != nil {
		t.Fatalf("%v %s: %v", p.DT, p.Mode(), err)
	}
	for i := range bVM.Data {
		if bVM.Data[i] != bNat.Data[i] {
			t.Fatalf("%v %s: backends diverge at %d: %v vs %v",
				p.DT, p.Mode(), i, bVM.Data[i], bNat.Data[i])
		}
	}
}

// The TRMM cycle model must run and stay below machine peak.
func TestSimTRMMRuns(t *testing.T) {
	tun := DefaultTuning()
	for _, dt := range vec.DTypes {
		p := TRMMProblem{DT: dt, M: 8, N: 8, Side: matrix.Left, Uplo: matrix.Lower,
			TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: 64}
		pl, err := NewTRMMPlan(p, tun)
		if err != nil {
			t.Fatal(err)
		}
		sim := machine.NewSim(tun.Prof, dt.ElemBytes())
		cycles, err := SimTRMM(pl, 4, sim)
		if err != nil {
			t.Fatal(err)
		}
		if cycles <= 0 {
			t.Fatalf("%v: cycles = %d", dt, cycles)
		}
		flops := p.FLOPs() / float64(p.Count) * float64(4*dt.Pack())
		g := flops / (float64(cycles) / (tun.Prof.FreqGHz * 1e9)) / 1e9
		if g > tun.Prof.PeakGFLOPS(dt) {
			t.Errorf("%v TRMM model %.2f GFLOPS exceeds peak", dt, g)
		}
	}
}

// SYRK plan decisions and core-level correctness (the public API tests
// cover breadth; this pins the plan geometry).
func TestSYRKPlanAndExec(t *testing.T) {
	tun := DefaultTuning()
	pl, err := NewSYRKPlan(SYRKProblem{DT: vec.S, N: 15, K: 7, Uplo: matrix.Lower,
		Alpha: 1, Beta: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, q := range pl.Tiles {
		sum += q
		if q > 4 {
			t.Errorf("real SYRK tile %d exceeds 4", q)
		}
	}
	if sum != 15 {
		t.Errorf("tiles %v cover %d", pl.Tiles, sum)
	}
	// Complex grid is bounded by nc ≤ 2.
	plc, err := NewSYRKPlan(SYRKProblem{DT: vec.Z, N: 7, K: 3, Uplo: matrix.Upper,
		Alpha: 1, Beta: 1, Count: 8}, tun)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range plc.Tiles {
		if q > 2 {
			t.Errorf("complex SYRK tile %d exceeds 2", q)
		}
	}
	if pl.P.FLOPs() <= 0 {
		t.Error("FLOPs must be positive")
	}
	// Invalid problems.
	if _, err := NewSYRKPlan(SYRKProblem{DT: vec.S, N: 0, K: 1, Count: 1}, tun); err == nil {
		t.Error("N=0 accepted")
	}
	// Exec-level correctness against a scalar oracle for one case.
	rng := rand.New(rand.NewSource(113))
	p := SYRKProblem{DT: vec.D, N: 6, K: 9, Uplo: matrix.Lower, Trans: matrix.NoTrans,
		Alpha: 1.5, Beta: 0.5, Count: 5}
	plan, err := NewSYRKPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[float64](rng, vec.D, p.Count, 6, 9)
	c := randCompact[float64](rng, vec.D, p.Count, 6, 6)
	got := c.Clone()
	if err := ExecSYRKNativeParallel(plan, a, got, 1); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < p.Count; v++ {
		for i := 0; i < 6; i++ {
			for j := 0; j <= i; j++ {
				sum := 0.0
				for k := 0; k < 9; k++ {
					ar, _ := a.At(v, i, k)
					br, _ := a.At(v, j, k)
					sum += float64(ar) * float64(br)
				}
				c0, _ := c.At(v, i, j)
				want := 1.5*sum + 0.5*float64(c0)
				gr, _ := got.At(v, i, j)
				if d := float64(gr) - want; d > 1e-10 || d < -1e-10 {
					t.Fatalf("v=%d (%d,%d): %v want %v", v, i, j, gr, want)
				}
			}
		}
	}
}
