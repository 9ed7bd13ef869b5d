package core

import (
	"math/rand"
	"testing"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

func checkTRSM[T matrix.Scalar, E vec.Float](t *testing.T, dt vec.DType, p TRSMProblem, tun Tuning) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(p.M*1000+p.N*100) + int64(p.Side)*7 + int64(p.Uplo)*13 + int64(p.TransA)*17 + int64(p.Diag)*19))
	adim := p.M
	if p.Side == matrix.Right {
		adim = p.N
	}
	a := matrix.RandTriangularBatch[T](rng, p.Count, adim)
	b := matrix.RandBatch[T](rng, p.Count, p.M, p.N)

	want := b.Clone()
	matrix.RefTRSMBatch(p.Side, p.Uplo, p.TransA, p.Diag, scalarOf[T](p.Alpha), a, want)

	ca := toCompact[T, E](dt, a)
	cb := toCompact[T, E](dt, b)
	pl, err := NewTRSMPlan(p, tun)
	if err != nil {
		t.Fatalf("%v %s M=%d N=%d: %v", dt, p.Mode(), p.M, p.N, err)
	}
	if err := ExecTRSM(pl, ca, cb, nil); err != nil {
		t.Fatalf("%v %s M=%d N=%d: %v", dt, p.Mode(), p.M, p.N, err)
	}
	got := fromCompact[T, E](cb)
	// Triangular solves amplify rounding; scale tolerance with the
	// substitution depth.
	dim := p.M
	if p.Side == matrix.Right {
		dim = p.N
	}
	if !matrix.WithinTol(got.Data, want.Data, matrix.Tol[T](4*dim+8)) {
		t.Errorf("%v %s M=%d N=%d count=%d: max diff %g",
			dt, p.Mode(), p.M, p.N, p.Count, matrix.MaxAbsDiff(got.Data, want.Data))
	}
}

func checkTRSMAllTypes(t *testing.T, p TRSMProblem, tun Tuning) {
	t.Helper()
	p.DT = vec.S
	checkTRSM[float32, float32](t, vec.S, p, tun)
	p.DT = vec.D
	checkTRSM[float64, float64](t, vec.D, p, tun)
	p.DT = vec.C
	checkTRSM[complex64, float32](t, vec.C, p, tun)
	p.DT = vec.Z
	checkTRSM[complex128, float64](t, vec.Z, p, tun)
}

// All 16 mode combinations × a size grid covering register-resident and
// blocked paths, edge panels and column tails.
func TestTRSMAllModes(t *testing.T) {
	tun := DefaultTuning()
	for _, side := range []matrix.Side{matrix.Left, matrix.Right} {
		for _, uplo := range []matrix.Uplo{matrix.Lower, matrix.Upper} {
			for _, ta := range []matrix.Trans{matrix.NoTrans, matrix.Transpose} {
				for _, diag := range []matrix.Diag{matrix.NonUnit, matrix.Unit} {
					for _, mn := range [][2]int{{1, 1}, {3, 2}, {4, 4}, {5, 3}, {6, 5}, {9, 7}} {
						p := TRSMProblem{M: mn[0], N: mn[1], Side: side, Uplo: uplo,
							TransA: ta, Diag: diag, Alpha: 1, Count: 5}
						checkTRSMAllTypes(t, p, tun)
					}
				}
			}
		}
	}
}

func TestTRSMLargerSizes(t *testing.T) {
	tun := DefaultTuning()
	// Exercises multiple panels, rect K accumulation and column tails at
	// the paper's evaluation scale.
	for _, mn := range [][2]int{{12, 12}, {15, 15}, {17, 9}, {33, 5}} {
		p := TRSMProblem{M: mn[0], N: mn[1], Side: matrix.Left, Uplo: matrix.Lower,
			TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: 4}
		checkTRSMAllTypes(t, p, tun)
	}
}

func TestTRSMAlpha(t *testing.T) {
	tun := DefaultTuning()
	p := TRSMProblem{M: 6, N: 4, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 2.5, Count: 3}
	checkTRSMAllTypes(t, p, tun)
	// Complex alpha.
	p.Alpha = 1 - 2i
	p.DT = vec.Z
	checkTRSM[complex128, float64](t, vec.Z, p, tun)
}

func TestTRSMPlanDecisions(t *testing.T) {
	tun := DefaultTuning()
	// Canonical LNLN solves in place — the no-packing strategy.
	pl, err := NewTRSMPlan(TRSMProblem{DT: vec.D, M: 4, N: 8, Side: matrix.Left,
		Uplo: matrix.Lower, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	wantStrides(t, "LNLN", pl, 0, 1, 4)
	if len(pl.Panels) != 1 || pl.Panels[0] != 4 {
		t.Errorf("M=4 panels = %v, want [4]", pl.Panels)
	}
	// M=5 still fits the register-resident triangular kernel.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 5, N: 8, Side: matrix.Left,
		Uplo: matrix.Lower, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Panels) != 1 || pl.Panels[0] != 5 {
		t.Errorf("M=5 panels = %v, want [5]", pl.Panels)
	}
	// M=9 blocks into panels of the main kernel height.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 9, N: 8, Side: matrix.Left,
		Uplo: matrix.Lower, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Panels) < 2 || pl.Panels[0] != 4 {
		t.Errorf("M=9 panels = %v", pl.Panels)
	}
	// Upper mode walks B's rows upward from the last.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 4, N: 8, Side: matrix.Left,
		Uplo: matrix.Upper, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.ReverseB {
		t.Error("LNUN must reverse B")
	}
	wantStrides(t, "LNUN", pl, 3, -1, 4)
	// Lower+Trans is effectively upper too.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 4, N: 8, Side: matrix.Left,
		Uplo: matrix.Lower, TransA: matrix.Transpose, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.ReverseB {
		t.Error("LTLN must reverse")
	}
	wantStrides(t, "LTLN", pl, 3, -1, 4)
	// Upper+Trans is effectively lower: in-place again.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 4, N: 8, Side: matrix.Left,
		Uplo: matrix.Upper, TransA: matrix.Transpose, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if pl.ReverseB {
		t.Error("LTUN must not reverse")
	}
	wantStrides(t, "LTUN", pl, 0, 1, 4)
	// Right side transposes B and swaps dims.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 6, N: 3, Side: matrix.Right,
		Uplo: matrix.Lower, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.TransposeB || pl.MEff != 3 || pl.NEff != 6 {
		t.Errorf("right-side reduction wrong: %+v", pl)
	}
	// A Right-side B is read along its rows: canonical row i is B's
	// column i, M = 6 blocks on. Aᵀ of a lower A is upper, so RNLN
	// starts at B's last column and RNUN at its first.
	wantStrides(t, "RNLN", pl, 2*6, -6, 1)
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.D, M: 6, N: 3, Side: matrix.Right,
		Uplo: matrix.Upper, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	wantStrides(t, "RNUN", pl, 0, 6, 1)
	// Complex panel heights come from the 2×2 main kernel.
	pl, err = NewTRSMPlan(TRSMProblem{DT: vec.Z, M: 7, N: 4, Side: matrix.Left,
		Uplo: matrix.Lower, Alpha: 1, Count: 32}, tun)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pl.Panels {
		if q > 2 {
			t.Errorf("complex panel %d exceeds kernel height 2", q)
		}
	}
}

// wantStrides checks where a plan's native kernels read B in place.
func wantStrides(t *testing.T, mode string, pl *TRSMPlan, o, rs, cs int) {
	t.Helper()
	if gotO, gotRS, gotCS := pl.BStrides(); gotO != o || gotRS != rs || gotCS != cs {
		t.Errorf("%s: B at o=%d rs=%d cs=%d, want %d, %d, %d", mode, gotO, gotRS, gotCS, o, rs, cs)
	}
}

func TestTRSMProblemDerived(t *testing.T) {
	p := TRSMProblem{DT: vec.S, M: 4, N: 8, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Count: 10}
	if p.Mode() != "LNLN" {
		t.Errorf("Mode = %s, want LNLN", p.Mode())
	}
	if p.FLOPs() != 2.0/2*4*4*8*10 {
		t.Errorf("FLOPs = %v", p.FLOPs())
	}
	r := TRSMProblem{DT: vec.S, M: 4, N: 8, Side: matrix.Right, Count: 10}
	if r.FLOPs() != 1*8*8*4*10 {
		t.Errorf("right FLOPs = %v", r.FLOPs())
	}
}

func TestTRSMInvalid(t *testing.T) {
	tun := DefaultTuning()
	if _, err := NewTRSMPlan(TRSMProblem{DT: vec.S, M: 0, N: 1, Count: 1}, tun); err == nil {
		t.Error("M=0 accepted")
	}
	pl, _ := NewTRSMPlan(TRSMProblem{DT: vec.S, M: 2, N: 2, Alpha: 1, Count: 4}, tun)
	a := layout.NewCompact[float32](vec.S, 4, 3, 3)
	b := layout.NewCompact[float32](vec.S, 4, 2, 2)
	if err := ExecTRSM(pl, a, b, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestTRSMPaddingAndCounts(t *testing.T) {
	tun := DefaultTuning()
	for _, count := range []int{1, 2, 3, 5, 8, 11} {
		p := TRSMProblem{M: 6, N: 4, Side: matrix.Left, Uplo: matrix.Lower,
			TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: count}
		p.DT = vec.D
		checkTRSM[float64, float64](t, vec.D, p, tun)
		p.DT = vec.C
		checkTRSM[complex64, float32](t, vec.C, p, tun)
	}
}
