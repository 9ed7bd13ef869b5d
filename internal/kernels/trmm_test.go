package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iatf/internal/vec"
)

// TriMul against a scalar bottom-up multiply, all widths.
func TestTriMulDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, vl := range []int{2, 4, 3} { // 3 exercises the generic path
		for m := 1; m <= 5; m++ {
			const ncols, pad = 3, 1
			strideB := m + pad
			tri := m * (m + 1) / 2
			pa := make([]float64, tri*vl)
			for i := range pa {
				pa[i] = rng.Float64()
			}
			b := make([]float64, ncols*strideB*vl)
			for i := range b {
				b[i] = rng.Float64()
			}
			orig := append([]float64(nil), b...)
			TriMul(pa, b, m, ncols, strideB, vl)
			for lane := 0; lane < vl; lane++ {
				for l := 0; l < ncols; l++ {
					for i := 0; i < m; i++ {
						row := i * (i + 1) / 2
						want := orig[(l*strideB+i)*vl+lane] * pa[(row+i)*vl+lane]
						for j := 0; j < i; j++ {
							want += pa[(row+j)*vl+lane] * orig[(l*strideB+j)*vl+lane]
						}
						got := b[(l*strideB+i)*vl+lane]
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("vl=%d m=%d col %d row %d lane %d: %v want %v",
								vl, m, l, i, lane, got, want)
						}
					}
				}
			}
		}
	}
}

// RectAdd must accumulate +L·X, all widths, on an edge tile and on the
// 4×4 tile (generated machine code at vl = 2 on amd64).
func TestRectAddDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tile := range [][2]int{{3, 2}, {4, 4}} {
		for _, vl := range []int{2, 4, 3} {
			testRectAddDirect(t, rng, tile[0], tile[1], vl)
		}
	}
}

func testRectAddDirect(t *testing.T, rng *rand.Rand, mc, nc, vl int) {
	const k, strideC, strideX = 4, 4, 5
	pa := make([]float64, k*mc*vl)
	x := make([]float64, nc*strideX*vl)
	c := make([]float64, nc*strideC*vl)
	for i := range pa {
		pa[i] = rng.Float64()
	}
	for i := range x {
		x[i] = rng.Float64()
	}
	for i := range c {
		c[i] = rng.Float64()
	}
	orig := append([]float64(nil), c...)
	RectAdd(pa, x, c, mc, nc, k, strideC, strideX, vl)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < mc; r++ {
			for cc := 0; cc < nc; cc++ {
				want := orig[(cc*strideC+r)*vl+lane]
				for l := 0; l < k; l++ {
					want += pa[(l*mc+r)*vl+lane] * x[(cc*strideX+l)*vl+lane]
				}
				got := c[(cc*strideC+r)*vl+lane]
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%dx%d vl=%d (%d,%d) lane %d: %v want %v", mc, nc, vl, r, cc, lane, got, want)
				}
			}
		}
	}
}

// TriMulCplx and RectAddCplx against complex128 scalar math.
func TestTRMMCplxKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, ncols, vl, strideB = 3, 2, 2, 4
	bl := 2 * vl
	tri := m * (m + 1) / 2
	pa := make([]float64, tri*bl)
	for i := range pa {
		pa[i] = rng.Float64()
	}
	b := make([]float64, ncols*strideB*bl)
	for i := range b {
		b[i] = rng.Float64()
	}
	orig := append([]float64(nil), b...)
	TriMulCplx(pa, b, m, ncols, strideB, vl)
	cAt := func(s []float64, blockOff, lane int) complex128 {
		return complex(s[blockOff*bl+lane], s[blockOff*bl+vl+lane])
	}
	for lane := 0; lane < vl; lane++ {
		for l := 0; l < ncols; l++ {
			for i := 0; i < m; i++ {
				row := i * (i + 1) / 2
				want := cAt(orig, l*strideB+i, lane) * cAt(pa, row+i, lane)
				for j := 0; j < i; j++ {
					want += cAt(pa, row+j, lane) * cAt(orig, l*strideB+j, lane)
				}
				got := cAt(b, l*strideB+i, lane)
				if d := got - want; math.Hypot(real(d), imag(d)) > 1e-12 {
					t.Fatalf("tri col %d row %d lane %d: %v want %v", l, i, lane, got, want)
				}
			}
		}
	}

	const mc, nc, k, sC, sX = 2, 2, 3, 3, 4
	rpa := make([]float64, k*mc*bl)
	rx := make([]float64, nc*sX*bl)
	rc := make([]float64, nc*sC*bl)
	for i := range rpa {
		rpa[i] = rng.Float64()
	}
	for i := range rx {
		rx[i] = rng.Float64()
	}
	for i := range rc {
		rc[i] = rng.Float64()
	}
	rorig := append([]float64(nil), rc...)
	RectAddCplx(rpa, rx, rc, mc, nc, k, sC, sX, vl)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < mc; r++ {
			for cc := 0; cc < nc; cc++ {
				want := cAt(rorig, cc*sC+r, lane)
				for l := 0; l < k; l++ {
					want += cAt(rpa, l*mc+r, lane) * cAt(rx, cc*sX+l, lane)
				}
				got := cAt(rc, cc*sC+r, lane)
				if d := got - want; math.Hypot(real(d), imag(d)) > 1e-12 {
					t.Fatalf("rect (%d,%d) lane %d: %v want %v", r, cc, lane, got, want)
				}
			}
		}
	}
}

// TriMul and RectAdd, generated machine code on amd64 at the sizes it
// serves, must equal the pure-Go kernels bit for bit on hostile inputs:
// every triangle of M 1–4 over 1–5 columns, and the 4×4 rectangle over
// K 1–17 on its own buffers and inside the blocked TRMM's column tile,
// where C is rows r0…r0+3 and X rows 0…K−1 of the same columns.
func TestTRMMKernelsMatchGo(t *testing.T) {
	t.Run("f32", func(t *testing.T) { testTRMMKernelsMatchGo[float32](t, 4) })
	t.Run("f64", func(t *testing.T) { testTRMMKernelsMatchGo[float64](t, 2) })
}

func testTRMMKernelsMatchGo[E vec.Float](t *testing.T, vl int) {
	rng := rand.New(rand.NewSource(25))
	triGo, rectGo := triMul2[E], rectAdd2[E]
	if vl == 4 {
		triGo, rectGo = triMul4[E], rectAdd4[E]
	}
	same := func(name string, got, want []E) {
		t.Helper()
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: element %d = %v, pure Go %v", name, i, got[i], want[i])
			}
		}
	}
	for _, p := range []float64{0.05, 0.5, 1} {
		for m := 1; m <= 4; m++ {
			for ncols := 1; ncols <= 5; ncols++ {
				strideB := m + ncols%2
				pa := hostile[E](rng, m*(m+1)/2*vl, p)
				b := hostile[E](rng, ncols*strideB*vl, p)
				want := append([]E(nil), b...)
				TriMul(pa, b, m, ncols, strideB, vl)
				triGo(pa, want, m, ncols, strideB)
				same(fmt.Sprintf("TriMul p=%v M=%d ncols=%d", p, m, ncols), b, want)
			}
		}
		for k := 1; k <= 17; k++ {
			strideC, strideX := 4+k%2, k+1
			pa := hostile[E](rng, 4*k*vl, p)
			x := hostile[E](rng, (3*strideX+k)*vl, p)
			c := hostile[E](rng, 4*strideC*vl, p)
			want := append([]E(nil), c...)
			RectAdd(pa, x, c, 4, 4, k, strideC, strideX, vl)
			rectGo(pa, x, want, 4, 4, k, strideC, strideX)
			same(fmt.Sprintf("RectAdd p=%v K=%d", p, k), c, want)

			for _, r0 := range []int{k, k + 2} {
				stride := r0 + 4 + r0 - k
				col := hostile[E](rng, 4*stride*vl, p)
				want := append([]E(nil), col...)
				RectAdd(pa, col, col[r0*vl:], 4, 4, k, stride, stride, vl)
				rectGo(pa, want, want[r0*vl:], 4, 4, k, stride, stride)
				same(fmt.Sprintf("RectAdd column tile p=%v K=%d r0=%d", p, k, r0), col, want)
			}
		}
	}
}
