package kernels

import "iatf/internal/vec"

// Width-specialized kernel bodies. The portable vec-based forms in
// kernels.go are the readable reference; these unrolled variants use
// slice-to-array-pointer conversions so the compiler emits direct loads
// and keeps the hot block arithmetic free of per-lane bounds checks. The
// package tests assert both forms agree exactly.

func fma4[E vec.Float](acc *[4]E, a, b *[4]E) {
	acc[0] += a[0] * b[0]
	acc[1] += a[1] * b[1]
	acc[2] += a[2] * b[2]
	acc[3] += a[3] * b[3]
}

func fms4[E vec.Float](acc *[4]E, a, b *[4]E) {
	acc[0] -= a[0] * b[0]
	acc[1] -= a[1] * b[1]
	acc[2] -= a[2] * b[2]
	acc[3] -= a[3] * b[3]
}

func fma2[E vec.Float](acc *[2]E, a, b *[2]E) {
	acc[0] += a[0] * b[0]
	acc[1] += a[1] * b[1]
}

func fms2[E vec.Float](acc *[2]E, a, b *[2]E) {
	acc[0] -= a[0] * b[0]
	acc[1] -= a[1] * b[1]
}

// gemm4 is GEMM for 4-lane blocks (single-precision types).
func gemm4[E vec.Float](pa, pb, c []E, mc, nc, k, strideC int, alpha E, ovw bool) {
	var acc [16][4]E
	ao, bo := 0, 0
	for l := 0; l < k; l++ {
		var av, bv [4]*[4]E
		for r := 0; r < mc; r++ {
			av[r] = (*[4]E)(pa[ao:])
			ao += 4
		}
		for cc := 0; cc < nc; cc++ {
			bv[cc] = (*[4]E)(pb[bo:])
			bo += 4
		}
		for cc := 0; cc < nc; cc++ {
			b := bv[cc]
			for r := 0; r < mc; r++ {
				fma4(&acc[cc*4+r], av[r], b)
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			dst := (*[4]E)(c[(cc*strideC+r)*4:])
			a := &acc[cc*4+r]
			if ovw {
				dst[0] = alpha * a[0]
				dst[1] = alpha * a[1]
				dst[2] = alpha * a[2]
				dst[3] = alpha * a[3]
			} else {
				dst[0] += alpha * a[0]
				dst[1] += alpha * a[1]
				dst[2] += alpha * a[2]
				dst[3] += alpha * a[3]
			}
		}
	}
}

// gemm2 is GEMM for 2-lane blocks (double-precision types).
func gemm2[E vec.Float](pa, pb, c []E, mc, nc, k, strideC int, alpha E, ovw bool) {
	var acc [16][2]E
	ao, bo := 0, 0
	for l := 0; l < k; l++ {
		var av, bv [4]*[2]E
		for r := 0; r < mc; r++ {
			av[r] = (*[2]E)(pa[ao:])
			ao += 2
		}
		for cc := 0; cc < nc; cc++ {
			bv[cc] = (*[2]E)(pb[bo:])
			bo += 2
		}
		for cc := 0; cc < nc; cc++ {
			b := bv[cc]
			for r := 0; r < mc; r++ {
				fma2(&acc[cc*4+r], av[r], b)
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			dst := (*[2]E)(c[(cc*strideC+r)*2:])
			a := &acc[cc*4+r]
			if ovw {
				dst[0] = alpha * a[0]
				dst[1] = alpha * a[1]
			} else {
				dst[0] += alpha * a[0]
				dst[1] += alpha * a[1]
			}
		}
	}
}

// gemmCplx4 is GEMMCplx for 4-lane blocks (cgemm).
func gemmCplx4[E vec.Float](pa, pb, c []E, mc, nc, k, strideC int, alphaRe, alphaIm E, ovw bool) {
	var accRe, accIm [6][4]E
	ao, bo := 0, 0
	for l := 0; l < k; l++ {
		var aRe, aIm [3]*[4]E
		var bRe, bIm [2]*[4]E
		for r := 0; r < mc; r++ {
			aRe[r] = (*[4]E)(pa[ao:])
			aIm[r] = (*[4]E)(pa[ao+4:])
			ao += 8
		}
		for cc := 0; cc < nc; cc++ {
			bRe[cc] = (*[4]E)(pb[bo:])
			bIm[cc] = (*[4]E)(pb[bo+4:])
			bo += 8
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				i := cc*3 + r
				fma4(&accRe[i], aRe[r], bRe[cc])
				fms4(&accRe[i], aIm[r], bIm[cc])
				fma4(&accIm[i], aRe[r], bIm[cc])
				fma4(&accIm[i], aIm[r], bRe[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			i := cc*3 + r
			off := (cc*strideC + r) * 8
			dRe := (*[4]E)(c[off:])
			dIm := (*[4]E)(c[off+4:])
			// Two rounding steps per component, matching the generic
			// (and generated-IR) FMLA/FMLS sequence bit for bit.
			if ovw {
				for lane := 0; lane < 4; lane++ {
					dRe[lane] = alphaRe * accRe[i][lane]
					dRe[lane] -= alphaIm * accIm[i][lane]
					dIm[lane] = alphaRe * accIm[i][lane]
					dIm[lane] += alphaIm * accRe[i][lane]
				}
			} else {
				for lane := 0; lane < 4; lane++ {
					dRe[lane] += alphaRe * accRe[i][lane]
					dRe[lane] -= alphaIm * accIm[i][lane]
					dIm[lane] += alphaRe * accIm[i][lane]
					dIm[lane] += alphaIm * accRe[i][lane]
				}
			}
		}
	}
}

// gemmCplx2 is GEMMCplx for 2-lane blocks (zgemm).
func gemmCplx2[E vec.Float](pa, pb, c []E, mc, nc, k, strideC int, alphaRe, alphaIm E, ovw bool) {
	var accRe, accIm [6][2]E
	ao, bo := 0, 0
	for l := 0; l < k; l++ {
		var aRe, aIm [3]*[2]E
		var bRe, bIm [2]*[2]E
		for r := 0; r < mc; r++ {
			aRe[r] = (*[2]E)(pa[ao:])
			aIm[r] = (*[2]E)(pa[ao+2:])
			ao += 4
		}
		for cc := 0; cc < nc; cc++ {
			bRe[cc] = (*[2]E)(pb[bo:])
			bIm[cc] = (*[2]E)(pb[bo+2:])
			bo += 4
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				i := cc*3 + r
				fma2(&accRe[i], aRe[r], bRe[cc])
				fms2(&accRe[i], aIm[r], bIm[cc])
				fma2(&accIm[i], aRe[r], bIm[cc])
				fma2(&accIm[i], aIm[r], bRe[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			i := cc*3 + r
			off := (cc*strideC + r) * 4
			dRe := (*[2]E)(c[off:])
			dIm := (*[2]E)(c[off+2:])
			// Two rounding steps per component, matching the generic
			// (and generated-IR) FMLA/FMLS sequence bit for bit.
			if ovw {
				for lane := 0; lane < 2; lane++ {
					dRe[lane] = alphaRe * accRe[i][lane]
					dRe[lane] -= alphaIm * accIm[i][lane]
					dIm[lane] = alphaRe * accIm[i][lane]
					dIm[lane] += alphaIm * accRe[i][lane]
				}
			} else {
				for lane := 0; lane < 2; lane++ {
					dRe[lane] += alphaRe * accRe[i][lane]
					dRe[lane] -= alphaIm * accIm[i][lane]
					dIm[lane] += alphaRe * accIm[i][lane]
					dIm[lane] += alphaIm * accRe[i][lane]
				}
			}
		}
	}
}

// rect4 is Rect for 4-lane blocks.
func rect4[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	var acc [16][4]E
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			acc[cc*4+r] = *(*[4]E)(c[(cc*strideC+r)*4:])
		}
	}
	ao := 0
	for l := 0; l < k; l++ {
		var av, xv [4]*[4]E
		for r := 0; r < mc; r++ {
			av[r] = (*[4]E)(pa[ao:])
			ao += 4
		}
		for cc := 0; cc < nc; cc++ {
			xv[cc] = (*[4]E)(x[(cc*strideX+l)*4:])
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				fms4(&acc[cc*4+r], av[r], xv[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			*(*[4]E)(c[(cc*strideC+r)*4:]) = acc[cc*4+r]
		}
	}
}

// rect2 is Rect for 2-lane blocks.
func rect2[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	var acc [16][2]E
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			acc[cc*4+r] = *(*[2]E)(c[(cc*strideC+r)*2:])
		}
	}
	ao := 0
	for l := 0; l < k; l++ {
		var av, xv [4]*[2]E
		for r := 0; r < mc; r++ {
			av[r] = (*[2]E)(pa[ao:])
			ao += 2
		}
		for cc := 0; cc < nc; cc++ {
			xv[cc] = (*[2]E)(x[(cc*strideX+l)*2:])
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				fms2(&acc[cc*4+r], av[r], xv[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			*(*[2]E)(c[(cc*strideC+r)*2:]) = acc[cc*4+r]
		}
	}
}

// span returns s[lo:lo+n] after checking lo+n against len(s): a slice
// expression alone checks only against cap(s).
func span[E any](s []E, lo, n int) []E {
	_ = s[lo+n-1]
	return s[lo : lo+n]
}

// tri4 is Tri for 4-lane blocks. Like the other width-specialized
// triangle kernels it reads the packed triangle in order and the B
// column in place, keeping the row being solved in scalar locals, so a
// call zero-fills no block table or column copy. Row i reads rows j < i,
// which it has already solved and stored.
func tri4[E vec.Float](pa, b []E, m, ncols, strideB int) {
	pa = span(pa, 0, 2*m*(m+1))
	for l := 0; l < ncols; l++ {
		x := span(b, l*strideB*4, 4*m)
		k := 0
		for i := 0; i < m; i++ {
			x0, x1, x2, x3 := x[4*i], x[4*i+1], x[4*i+2], x[4*i+3]
			for j := 0; j < i; j++ {
				x0 -= pa[k] * x[4*j]
				x1 -= pa[k+1] * x[4*j+1]
				x2 -= pa[k+2] * x[4*j+2]
				x3 -= pa[k+3] * x[4*j+3]
				k += 4
			}
			x[4*i], x[4*i+1], x[4*i+2], x[4*i+3] = x0*pa[k], x1*pa[k+1], x2*pa[k+2], x3*pa[k+3]
			k += 4
		}
	}
}

// tri2 is Tri for 2-lane blocks.
func tri2[E vec.Float](pa, b []E, m, ncols, strideB int) {
	pa = span(pa, 0, m*(m+1))
	for l := 0; l < ncols; l++ {
		x := span(b, l*strideB*2, 2*m)
		k := 0
		for i := 0; i < m; i++ {
			x0, x1 := x[2*i], x[2*i+1]
			for j := 0; j < i; j++ {
				x0 -= pa[k] * x[2*j]
				x1 -= pa[k+1] * x[2*j+1]
				k += 2
			}
			x[2*i], x[2*i+1] = x0*pa[k], x1*pa[k+1]
			k += 2
		}
	}
}

// gemm44x4 is the fully unrolled 4-lane main kernel (mc = nc = 4) — the
// hottest code path; accumulators live in named locals.
func gemm44x4[E vec.Float](pa, pb, c []E, k, strideC int, alpha E, ovw bool) {
	var c00, c10, c20, c30 [4]E
	var c01, c11, c21, c31 [4]E
	var c02, c12, c22, c32 [4]E
	var c03, c13, c23, c33 [4]E
	o := 0
	for l := 0; l < k; l++ {
		a0 := (*[4]E)(pa[o:])
		a1 := (*[4]E)(pa[o+4:])
		a2 := (*[4]E)(pa[o+8:])
		a3 := (*[4]E)(pa[o+12:])
		b0 := (*[4]E)(pb[o:])
		b1 := (*[4]E)(pb[o+4:])
		b2 := (*[4]E)(pb[o+8:])
		b3 := (*[4]E)(pb[o+12:])
		o += 16
		fma4(&c00, a0, b0)
		fma4(&c10, a1, b0)
		fma4(&c20, a2, b0)
		fma4(&c30, a3, b0)
		fma4(&c01, a0, b1)
		fma4(&c11, a1, b1)
		fma4(&c21, a2, b1)
		fma4(&c31, a3, b1)
		fma4(&c02, a0, b2)
		fma4(&c12, a1, b2)
		fma4(&c22, a2, b2)
		fma4(&c32, a3, b2)
		fma4(&c03, a0, b3)
		fma4(&c13, a1, b3)
		fma4(&c23, a2, b3)
		fma4(&c33, a3, b3)
	}
	save := func(off int, acc *[4]E) {
		dst := (*[4]E)(c[off:])
		if ovw {
			dst[0] = alpha * acc[0]
			dst[1] = alpha * acc[1]
			dst[2] = alpha * acc[2]
			dst[3] = alpha * acc[3]
			return
		}
		dst[0] += alpha * acc[0]
		dst[1] += alpha * acc[1]
		dst[2] += alpha * acc[2]
		dst[3] += alpha * acc[3]
	}
	s := strideC * 4
	save(0, &c00)
	save(4, &c10)
	save(8, &c20)
	save(12, &c30)
	save(s, &c01)
	save(s+4, &c11)
	save(s+8, &c21)
	save(s+12, &c31)
	save(2*s, &c02)
	save(2*s+4, &c12)
	save(2*s+8, &c22)
	save(2*s+12, &c32)
	save(3*s, &c03)
	save(3*s+4, &c13)
	save(3*s+8, &c23)
	save(3*s+12, &c33)
}

// gemm44x2 is the fully unrolled 2-lane main kernel (mc = nc = 4).
func gemm44x2[E vec.Float](pa, pb, c []E, k, strideC int, alpha E, ovw bool) {
	var c00, c10, c20, c30 [2]E
	var c01, c11, c21, c31 [2]E
	var c02, c12, c22, c32 [2]E
	var c03, c13, c23, c33 [2]E
	o := 0
	for l := 0; l < k; l++ {
		a0 := (*[2]E)(pa[o:])
		a1 := (*[2]E)(pa[o+2:])
		a2 := (*[2]E)(pa[o+4:])
		a3 := (*[2]E)(pa[o+6:])
		b0 := (*[2]E)(pb[o:])
		b1 := (*[2]E)(pb[o+2:])
		b2 := (*[2]E)(pb[o+4:])
		b3 := (*[2]E)(pb[o+6:])
		o += 8
		fma2(&c00, a0, b0)
		fma2(&c10, a1, b0)
		fma2(&c20, a2, b0)
		fma2(&c30, a3, b0)
		fma2(&c01, a0, b1)
		fma2(&c11, a1, b1)
		fma2(&c21, a2, b1)
		fma2(&c31, a3, b1)
		fma2(&c02, a0, b2)
		fma2(&c12, a1, b2)
		fma2(&c22, a2, b2)
		fma2(&c32, a3, b2)
		fma2(&c03, a0, b3)
		fma2(&c13, a1, b3)
		fma2(&c23, a2, b3)
		fma2(&c33, a3, b3)
	}
	save := func(off int, acc *[2]E) {
		dst := (*[2]E)(c[off:])
		if ovw {
			dst[0] = alpha * acc[0]
			dst[1] = alpha * acc[1]
			return
		}
		dst[0] += alpha * acc[0]
		dst[1] += alpha * acc[1]
	}
	s := strideC * 2
	save(0, &c00)
	save(2, &c10)
	save(4, &c20)
	save(6, &c30)
	save(s, &c01)
	save(s+2, &c11)
	save(s+4, &c21)
	save(s+6, &c31)
	save(2*s, &c02)
	save(2*s+2, &c12)
	save(2*s+4, &c22)
	save(2*s+6, &c32)
	save(3*s, &c03)
	save(3*s+2, &c13)
	save(3*s+4, &c23)
	save(3*s+6, &c33)
}
