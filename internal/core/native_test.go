package core

import (
	"math/rand"
	"testing"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// The native Go backend and the IR/VM backend execute the same plan with
// the same lane arithmetic, so their results must agree bit for bit.
func TestNativeMatchesVMBackendGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, dt := range vec.DTypes {
		for _, mnk := range [][3]int{{3, 3, 3}, {7, 6, 5}, {15, 15, 15}} {
			for _, mode := range [][2]matrix.Trans{
				{matrix.NoTrans, matrix.NoTrans}, {matrix.Transpose, matrix.Transpose},
			} {
				p := GEMMProblem{DT: dt, M: mnk[0], N: mnk[1], K: mnk[2],
					TransA: mode[0], TransB: mode[1], Alpha: 1.5, Beta: 1, Count: 6}
				if dt.Real() == vec.S {
					compareBackendsGEMM[float32](t, rng, p)
				} else {
					compareBackendsGEMM[float64](t, rng, p)
				}
			}
		}
	}
}

func compareBackendsGEMM[E vec.Float](t *testing.T, rng *rand.Rand, p GEMMProblem) {
	t.Helper()
	pl, err := NewGEMMPlan(p, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	ar, ac := p.M, p.K
	if p.TransA == matrix.Transpose {
		ar, ac = p.K, p.M
	}
	br, bc := p.K, p.N
	if p.TransB == matrix.Transpose {
		br, bc = p.N, p.K
	}
	a := randCompact[E](rng, p.DT, p.Count, ar, ac)
	b := randCompact[E](rng, p.DT, p.Count, br, bc)
	c := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	cVM := c.Clone()
	if err := ExecGEMM(pl, a, b, cVM, nil); err != nil {
		t.Fatal(err)
	}
	cNat := c.Clone()
	if err := ExecGEMMNativePrepacked(pl, a, b, cNat, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	for i := range cVM.Data {
		if cVM.Data[i] != cNat.Data[i] {
			t.Fatalf("%v %s %dx%dx%d: backends diverge at element %d: %v vs %v",
				p.DT, p.Mode(), p.M, p.N, p.K, i, cVM.Data[i], cNat.Data[i])
		}
	}
}

func randCompact[E vec.Float](rng *rand.Rand, dt vec.DType, count, rows, cols int) *layout.Compact[E] {
	c := layout.NewCompact[E](dt, count, rows, cols)
	for v := 0; v < count; v++ {
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				c.Set(v, i, j, E(rng.Float64()), E(rng.Float64()))
			}
		}
	}
	return c
}

func TestNativeMatchesVMBackendTRSM(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, dt := range vec.DTypes {
		for _, mode := range []struct {
			side matrix.Side
			uplo matrix.Uplo
			ta   matrix.Trans
			diag matrix.Diag
		}{
			{matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit},
			{matrix.Left, matrix.Upper, matrix.NoTrans, matrix.NonUnit},
			{matrix.Right, matrix.Lower, matrix.Transpose, matrix.Unit},
		} {
			for _, mn := range [][2]int{{4, 3}, {9, 6}} {
				p := TRSMProblem{DT: dt, M: mn[0], N: mn[1], Side: mode.side,
					Uplo: mode.uplo, TransA: mode.ta, Diag: mode.diag, Alpha: 1, Count: 5}
				if dt.Real() == vec.S {
					compareBackendsTRSM[float32](t, rng, p)
				} else {
					compareBackendsTRSM[float64](t, rng, p)
				}
			}
		}
	}
}

func compareBackendsTRSM[E vec.Float](t *testing.T, rng *rand.Rand, p TRSMProblem) {
	t.Helper()
	pl, err := NewTRSMPlan(p, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[E](rng, p.DT, p.Count, pl.MEff, pl.MEff)
	// Bound the diagonal away from zero so the solve is well-conditioned.
	for v := 0; v < p.Count; v++ {
		for i := 0; i < pl.MEff; i++ {
			re, im := a.At(v, i, i)
			a.Set(v, i, i, re+2, im)
		}
	}
	b := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	bVM := b.Clone()
	if err := ExecTRSM(pl, a, bVM, nil); err != nil {
		t.Fatal(err)
	}
	bNat := b.Clone()
	if err := ExecTRSMNativePrepacked(pl, a, bNat, nil, 1); err != nil {
		t.Fatal(err)
	}
	for i := range bVM.Data {
		if bVM.Data[i] != bNat.Data[i] {
			t.Fatalf("%v %s M=%d N=%d: backends diverge at element %d: %v vs %v",
				p.DT, p.Mode(), p.M, p.N, i, bVM.Data[i], bNat.Data[i])
		}
	}
}

// K-chunking through the native backend, including the beta=0 overwrite
// that must apply to the first chunk only.
func TestNativeLargeKChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, beta := range []complex128{0, 1} {
		p := GEMMProblem{DT: vec.S, M: 5, N: 4, K: 150, Alpha: 1.5, Beta: beta, Count: 6}
		pl, err := NewGEMMPlan(p, DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		a := randCompact[float32](rng, vec.S, p.Count, 5, 150)
		b := randCompact[float32](rng, vec.S, p.Count, 150, 4)
		c := randCompact[float32](rng, vec.S, p.Count, 5, 4)
		got := c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, got, nil, nil, 1); err != nil {
			t.Fatal(err)
		}
		// Scalar oracle per matrix element.
		for v := 0; v < p.Count; v++ {
			for i := 0; i < 5; i++ {
				for j := 0; j < 4; j++ {
					sum := 0.0
					for k := 0; k < 150; k++ {
						ar, _ := a.At(v, i, k)
						br, _ := b.At(v, k, j)
						sum += float64(ar) * float64(br)
					}
					c0, _ := c.At(v, i, j)
					want := 1.5*sum + real(beta)*float64(c0)
					gr, _ := got.At(v, i, j)
					if d := float64(gr) - want; d > 2e-3 || d < -2e-3 {
						t.Fatalf("beta=%v v=%d (%d,%d): got %v want %v", beta, v, i, j, gr, want)
					}
				}
			}
		}
	}
}
