package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// TestGEMMDirect checks the real micro-kernel against a scalar loop on a
// hand-packed group.
func TestGEMMDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const mc, nc, k, vl, strideC = 4, 4, 6, 2, 5
	pa := make([]float64, k*mc*vl)
	pb := make([]float64, k*nc*vl)
	c := make([]float64, nc*strideC*vl)
	for i := range pa {
		pa[i] = rng.Float64()
	}
	for i := range pb {
		pb[i] = rng.Float64()
	}
	for i := range c {
		c[i] = rng.Float64()
	}
	orig := append([]float64(nil), c...)
	const alpha = 1.5
	GEMM(pa, pb, c, mc, nc, k, strideC, vl, alpha, false)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < mc; r++ {
			for cc := 0; cc < nc; cc++ {
				sum := 0.0
				for l := 0; l < k; l++ {
					sum += pa[(l*mc+r)*vl+lane] * pb[(l*nc+cc)*vl+lane]
				}
				off := (cc*strideC+r)*vl + lane
				want := orig[off] + alpha*sum
				if math.Abs(c[off]-want) > 1e-12 {
					t.Fatalf("C(%d,%d) lane %d = %v, want %v", r, cc, lane, c[off], want)
				}
			}
		}
	}
}

func TestGEMMCplxDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const mc, nc, k, vl, strideC = 3, 2, 4, 4, 3
	bl := 2 * vl
	pa := make([]float32, k*mc*bl)
	pb := make([]float32, k*nc*bl)
	c := make([]float32, nc*strideC*bl)
	for i := range pa {
		pa[i] = rng.Float32()
	}
	for i := range pb {
		pb[i] = rng.Float32()
	}
	for i := range c {
		c[i] = rng.Float32()
	}
	orig := append([]float32(nil), c...)
	alpha := complex(float32(1.5), float32(-0.5))
	GEMMCplx(pa, pb, c, mc, nc, k, strideC, vl, real(alpha), imag(alpha), false)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < mc; r++ {
			for cc := 0; cc < nc; cc++ {
				sum := complex64(0)
				for l := 0; l < k; l++ {
					av := complex(pa[(l*mc+r)*bl+lane], pa[(l*mc+r)*bl+vl+lane])
					bv := complex(pb[(l*nc+cc)*bl+lane], pb[(l*nc+cc)*bl+vl+lane])
					sum += av * bv
				}
				off := (cc*strideC + r) * bl
				got := complex(c[off+lane], c[off+vl+lane])
				want := complex(orig[off+lane], orig[off+vl+lane]) + alpha*sum
				if d := got - want; math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
					t.Fatalf("C(%d,%d) lane %d = %v, want %v", r, cc, lane, got, want)
				}
			}
		}
	}
}

func TestTriDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, ncols, vl, strideB = 5, 3, 2, 6
	tri := m * (m + 1) / 2
	// Logical lower triangle with conditioned diagonal.
	a := make([]float64, tri*vl)
	for i := range a {
		a[i] = rng.Float64()
	}
	pa := make([]float64, tri*vl) // packed: reciprocal diagonal
	copy(pa, a)
	for i := 0; i < m; i++ {
		d := i*(i+1)/2 + i
		for lane := 0; lane < vl; lane++ {
			a[d*vl+lane] += 2
			pa[d*vl+lane] = 1 / a[d*vl+lane]
		}
	}
	b := make([]float64, ncols*strideB*vl)
	for i := range b {
		b[i] = rng.Float64()
	}
	orig := append([]float64(nil), b...)
	Tri(pa, b, m, ncols, strideB, vl)
	for lane := 0; lane < vl; lane++ {
		for l := 0; l < ncols; l++ {
			x := make([]float64, m)
			for i := 0; i < m; i++ {
				v := orig[(l*strideB+i)*vl+lane]
				for j := 0; j < i; j++ {
					v -= a[(i*(i+1)/2+j)*vl+lane] * x[j]
				}
				x[i] = v * (1 / a[(i*(i+1)/2+i)*vl+lane])
			}
			for i := 0; i < m; i++ {
				got := b[(l*strideB+i)*vl+lane]
				if math.Abs(got-x[i]) > 1e-10 {
					t.Fatalf("col %d row %d lane %d = %v, want %v", l, i, lane, got, x[i])
				}
			}
		}
	}
}

func TestRectDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const mc, nc, k, vl, strideC, strideX = 4, 3, 5, 2, 7, 9
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
	Rect(pa, x, c, mc, nc, k, strideC, strideX, vl)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < mc; r++ {
			for cc := 0; cc < nc; cc++ {
				want := orig[(cc*strideC+r)*vl+lane]
				for l := 0; l < k; l++ {
					want -= pa[(l*mc+r)*vl+lane] * x[(cc*strideX+l)*vl+lane]
				}
				got := c[(cc*strideC+r)*vl+lane]
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("B(%d,%d) lane %d = %v, want %v", r, cc, lane, got, want)
				}
			}
		}
	}
}

func TestTriCplxAndRectCplxDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, ncols, vl, strideB = 3, 2, 2, 4
	bl := 2 * vl
	tri := m * (m + 1) / 2
	aRe := make([]float64, tri*vl)
	aIm := make([]float64, tri*vl)
	pa := make([]float64, tri*bl)
	for i := 0; i < tri; i++ {
		for lane := 0; lane < vl; lane++ {
			aRe[i*vl+lane] = rng.Float64()
			aIm[i*vl+lane] = rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		d := i*(i+1)/2 + i
		for lane := 0; lane < vl; lane++ {
			aRe[d*vl+lane] += 2
		}
	}
	for i := 0; i < tri; i++ {
		for lane := 0; lane < vl; lane++ {
			re, im := aRe[i*vl+lane], aIm[i*vl+lane]
			onDiag := false
			for r := 0; r < m; r++ {
				if i == r*(r+1)/2+r {
					onDiag = true
				}
			}
			if onDiag {
				den := re*re + im*im
				pa[i*bl+lane] = re / den
				pa[i*bl+vl+lane] = -im / den
			} else {
				pa[i*bl+lane] = re
				pa[i*bl+vl+lane] = im
			}
		}
	}
	b := make([]float64, ncols*strideB*bl)
	for i := range b {
		b[i] = rng.Float64()
	}
	orig := append([]float64(nil), b...)
	TriCplx(pa, b, 0, m, ncols, 1, strideB, vl)
	for lane := 0; lane < vl; lane++ {
		for l := 0; l < ncols; l++ {
			x := make([]complex128, m)
			for i := 0; i < m; i++ {
				off := (l*strideB + i) * bl
				v := complex(orig[off+lane], orig[off+vl+lane])
				for j := 0; j < i; j++ {
					t := i*(i+1)/2 + j
					v -= complex(aRe[t*vl+lane], aIm[t*vl+lane]) * x[j]
				}
				d := i*(i+1)/2 + i
				x[i] = v * complex(pa[d*bl+lane], pa[d*bl+vl+lane])
			}
			for i := 0; i < m; i++ {
				off := (l*strideB + i) * bl
				got := complex(b[off+lane], b[off+vl+lane])
				if dd := got - x[i]; math.Hypot(real(dd), imag(dd)) > 1e-10 {
					t.Fatalf("col %d row %d lane %d = %v, want %v", l, i, lane, got, x[i])
				}
			}
		}
	}

	// RectCplx: B -= L·X.
	const rmc, rnc, rk, rsC, rsX = 2, 2, 3, 3, 4
	rpa := make([]float64, rk*rmc*bl)
	rx := make([]float64, rnc*rsX*bl)
	rc := make([]float64, rnc*rsC*bl)
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
	RectCplx(rpa, rx, rc, 0, 0, rmc, rnc, rk, 1, rsC, rsX, vl)
	for lane := 0; lane < vl; lane++ {
		for r := 0; r < rmc; r++ {
			for cc := 0; cc < rnc; cc++ {
				off := (cc*rsC + r) * bl
				want := complex(rorig[off+lane], rorig[off+vl+lane])
				for l := 0; l < rk; l++ {
					av := complex(rpa[(l*rmc+r)*bl+lane], rpa[(l*rmc+r)*bl+vl+lane])
					xv := complex(rx[(cc*rsX+l)*bl+lane], rx[(cc*rsX+l)*bl+vl+lane])
					want -= av * xv
				}
				got := complex(rc[off+lane], rc[off+vl+lane])
				if dd := got - want; math.Hypot(real(dd), imag(dd)) > 1e-10 {
					t.Fatalf("B(%d,%d) lane %d = %v, want %v", r, cc, lane, got, want)
				}
			}
		}
	}
}
