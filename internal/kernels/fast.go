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

func fma2[E vec.Float](acc *[2]E, a, b *[2]E) {
	acc[0] += a[0] * b[0]
	acc[1] += a[1] * b[1]
}

// gemm4 is GEMMStrided for 4-lane blocks (single-precision types). Each
// C block accumulates in scalar locals over the K loop, reading A's
// packed blocks and B's strided blocks in place; every lane sees the
// generic kernel's sequence of multiply-adds and the same save, so the
// two agree bit for bit.
func gemm4[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC int, alpha E, ovw bool) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			var s0, s1, s2, s3 E
			ao, bo := r*4, cc*ldbc*4
			for l := 0; l < k; l++ {
				a, b := (*[4]E)(pa[ao:]), (*[4]E)(pb[bo:])
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
				s2 += a[2] * b[2]
				s3 += a[3] * b[3]
				ao += mc * 4
				bo += ldbk * 4
			}
			d := (*[4]E)(c[(cc*strideC+r)*4:])
			if ovw {
				d[0], d[1], d[2], d[3] = alpha*s0, alpha*s1, alpha*s2, alpha*s3
			} else {
				d[0] += alpha * s0
				d[1] += alpha * s1
				d[2] += alpha * s2
				d[3] += alpha * s3
			}
		}
	}
}

// gemm2 is GEMMStrided for 2-lane blocks (double-precision types), in
// the form of gemm4.
func gemm2[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC int, alpha E, ovw bool) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			var s0, s1 E
			ao, bo := r*2, cc*ldbc*2
			for l := 0; l < k; l++ {
				a, b := (*[2]E)(pa[ao:]), (*[2]E)(pb[bo:])
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
				ao += mc * 2
				bo += ldbk * 2
			}
			d := (*[2]E)(c[(cc*strideC+r)*2:])
			if ovw {
				d[0], d[1] = alpha*s0, alpha*s1
			} else {
				d[0] += alpha * s0
				d[1] += alpha * s1
			}
		}
	}
}

// gemmCplx4 is GEMMCplxStrided for 4-lane blocks (cgemm), in the form of
// gemm4; the save rounds each component twice, as the generic kernel does.
func gemmCplx4[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC int, alphaRe, alphaIm E, ovw bool) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			var re0, re1, re2, re3, im0, im1, im2, im3 E
			ao, bo := r*8, cc*ldbc*8
			for l := 0; l < k; l++ {
				a, b := (*[8]E)(pa[ao:]), (*[8]E)(pb[bo:])
				re0 += a[0] * b[0]
				re0 -= a[4] * b[4]
				im0 += a[0] * b[4]
				im0 += a[4] * b[0]
				re1 += a[1] * b[1]
				re1 -= a[5] * b[5]
				im1 += a[1] * b[5]
				im1 += a[5] * b[1]
				re2 += a[2] * b[2]
				re2 -= a[6] * b[6]
				im2 += a[2] * b[6]
				im2 += a[6] * b[2]
				re3 += a[3] * b[3]
				re3 -= a[7] * b[7]
				im3 += a[3] * b[7]
				im3 += a[7] * b[3]
				ao += mc * 8
				bo += ldbk * 8
			}
			d := (*[8]E)(c[(cc*strideC+r)*8:])
			if ovw {
				d[0], d[1], d[2], d[3] = alphaRe*re0, alphaRe*re1, alphaRe*re2, alphaRe*re3
				d[4], d[5], d[6], d[7] = alphaRe*im0, alphaRe*im1, alphaRe*im2, alphaRe*im3
			} else {
				d[0] += alphaRe * re0
				d[1] += alphaRe * re1
				d[2] += alphaRe * re2
				d[3] += alphaRe * re3
				d[4] += alphaRe * im0
				d[5] += alphaRe * im1
				d[6] += alphaRe * im2
				d[7] += alphaRe * im3
			}
			d[0] -= alphaIm * im0
			d[1] -= alphaIm * im1
			d[2] -= alphaIm * im2
			d[3] -= alphaIm * im3
			d[4] += alphaIm * re0
			d[5] += alphaIm * re1
			d[6] += alphaIm * re2
			d[7] += alphaIm * re3
		}
	}
}

// gemmCplx2 is GEMMCplxStrided for 2-lane blocks (zgemm), in the form
// of gemmCplx4.
func gemmCplx2[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC int, alphaRe, alphaIm E, ovw bool) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			var re0, re1, im0, im1 E
			ao, bo := r*4, cc*ldbc*4
			for l := 0; l < k; l++ {
				a, b := (*[4]E)(pa[ao:]), (*[4]E)(pb[bo:])
				re0 += a[0] * b[0]
				re0 -= a[2] * b[2]
				im0 += a[0] * b[2]
				im0 += a[2] * b[0]
				re1 += a[1] * b[1]
				re1 -= a[3] * b[3]
				im1 += a[1] * b[3]
				im1 += a[3] * b[1]
				ao += mc * 4
				bo += ldbk * 4
			}
			d := (*[4]E)(c[(cc*strideC+r)*4:])
			if ovw {
				d[0], d[1], d[2], d[3] = alphaRe*re0, alphaRe*re1, alphaRe*im0, alphaRe*im1
			} else {
				d[0] += alphaRe * re0
				d[1] += alphaRe * re1
				d[2] += alphaRe * im0
				d[3] += alphaRe * im1
			}
			d[0] -= alphaIm * im0
			d[1] -= alphaIm * im1
			d[2] += alphaIm * re0
			d[3] += alphaIm * re1
		}
	}
}

// rect4 is RectStrided for 4-lane blocks with rows one block apart,
// from X's and C's first blocks. Like gemm4 it keeps one C block's
// lanes in scalar locals over the K loop, reading A's packed blocks and
// X's column in place, so a call zero-fills no accumulator or pointer
// table; every lane sees rectGeneric's sequence of multiply-subtracts,
// so the two agree bit for bit. It writes each C block before it reads
// the next, which gives rectGeneric's result whenever C shares no
// element with pa or X's rows [0, k): C apart from X, or inside X's own
// column tile below its K rows, as triWorker calls it.
func rect4[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			d := (*[4]E)(c[(cc*strideC+r)*4:])
			s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
			ao, xo := r*4, cc*strideX*4
			for l := 0; l < k; l++ {
				a, b := (*[4]E)(pa[ao:]), (*[4]E)(x[xo:])
				s0 -= a[0] * b[0]
				s1 -= a[1] * b[1]
				s2 -= a[2] * b[2]
				s3 -= a[3] * b[3]
				ao += mc * 4
				xo += 4
			}
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		}
	}
}

// rect2 is Rect for 2-lane blocks, in the form of rect4.
func rect2[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			d := (*[2]E)(c[(cc*strideC+r)*2:])
			s0, s1 := d[0], d[1]
			ao, xo := r*2, cc*strideX*2
			for l := 0; l < k; l++ {
				a, b := (*[2]E)(pa[ao:]), (*[2]E)(x[xo:])
				s0 -= a[0] * b[0]
				s1 -= a[1] * b[1]
				ao += mc * 2
				xo += 2
			}
			d[0], d[1] = s0, s1
		}
	}
}

// rect4s is RectStrided for 4-lane blocks, in the form of rect4, with
// every offset stepped by its stride.
func rect4s[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX int) {
	rs, xo, co = 4*rs, 4*xo, 4*co
	as := 4 * mc
	for cc := 0; cc < nc; cc++ {
		dc := co
		for r := 0; r < as; r += 4 {
			d := (*[4]E)(c[dc:])
			s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
			ao, xi := r, xo
			for l := k; l > 0; l-- {
				a, b := (*[4]E)(pa[ao:]), (*[4]E)(x[xi:])
				s0 -= a[0] * b[0]
				s1 -= a[1] * b[1]
				s2 -= a[2] * b[2]
				s3 -= a[3] * b[3]
				ao += as
				xi += rs
			}
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
			dc += rs
		}
		xo += 4 * strideX
		co += 4 * strideC
	}
}

// rect2s is RectStrided for 2-lane blocks, in the form of rect4s.
func rect2s[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX int) {
	rs, xo, co = 2*rs, 2*xo, 2*co
	as := 2 * mc
	for cc := 0; cc < nc; cc++ {
		dc := co
		for r := 0; r < as; r += 2 {
			d := (*[2]E)(c[dc:])
			s0, s1 := d[0], d[1]
			ao, xi := r, xo
			for l := k; l > 0; l-- {
				a, b := (*[2]E)(pa[ao:]), (*[2]E)(x[xi:])
				s0 -= a[0] * b[0]
				s1 -= a[1] * b[1]
				ao += as
				xi += rs
			}
			d[0], d[1] = s0, s1
			dc += rs
		}
		xo += 2 * strideX
		co += 2 * strideC
	}
}

// span returns s[lo:lo+n] after checking lo+n against len(s): a slice
// expression alone checks only against cap(s).
func span[E any](s []E, lo, n int) []E {
	_ = s[lo+n-1]
	return s[lo : lo+n]
}

// tri4 is TriStrided for 4-lane blocks. Like the other width-specialized
// triangle kernels it reads the packed triangle in order and the B
// column in place, stepping row offsets by the row stride and keeping
// the row being solved in scalar locals, so a call zero-fills no block
// table or column copy. Row i reads rows j < i, which it has already
// solved and stored.
func tri4[E vec.Float](pa, b []E, o, m, ncols, rs, cs int) {
	pa = span(pa, 0, 2*m*(m+1))
	rs, cs = 4*rs, 4*cs
	for col := 4 * o; ncols > 0; ncols-- {
		k, xi := 0, col
		for i := 0; i < m; i++ {
			x := (*[4]E)(b[xi:])
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			for j, xj := 0, col; j < i; j++ {
				y := (*[4]E)(b[xj:])
				x0 -= pa[k] * y[0]
				x1 -= pa[k+1] * y[1]
				x2 -= pa[k+2] * y[2]
				x3 -= pa[k+3] * y[3]
				k += 4
				xj += rs
			}
			x[0], x[1], x[2], x[3] = x0*pa[k], x1*pa[k+1], x2*pa[k+2], x3*pa[k+3]
			k += 4
			xi += rs
		}
		col += cs
	}
}

// tri2 is TriStrided for 2-lane blocks.
func tri2[E vec.Float](pa, b []E, o, m, ncols, rs, cs int) {
	pa = span(pa, 0, m*(m+1))
	rs, cs = 2*rs, 2*cs
	for col := 2 * o; ncols > 0; ncols-- {
		k, xi := 0, col
		for i := 0; i < m; i++ {
			x := (*[2]E)(b[xi:])
			x0, x1 := x[0], x[1]
			for j, xj := 0, col; j < i; j++ {
				y := (*[2]E)(b[xj:])
				x0 -= pa[k] * y[0]
				x1 -= pa[k+1] * y[1]
				k += 2
				xj += rs
			}
			x[0], x[1] = x0*pa[k], x1*pa[k+1]
			k += 2
			xi += rs
		}
		col += cs
	}
}

// gemm44x4 is the fully unrolled 4-lane main kernel (mc = nc = 4) — the
// hottest code path; accumulators live in named locals.
func gemm44x4[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC int, alpha E, ovw bool) {
	var c00, c10, c20, c30 [4]E
	var c01, c11, c21, c31 [4]E
	var c02, c12, c22, c32 [4]E
	var c03, c13, c23, c33 [4]E
	ao, bo, sk, sc := 0, 0, ldbk*4, ldbc*4
	for l := 0; l < k; l++ {
		a0 := (*[4]E)(pa[ao:])
		a1 := (*[4]E)(pa[ao+4:])
		a2 := (*[4]E)(pa[ao+8:])
		a3 := (*[4]E)(pa[ao+12:])
		b0 := (*[4]E)(pb[bo:])
		b1 := (*[4]E)(pb[bo+sc:])
		b2 := (*[4]E)(pb[bo+2*sc:])
		b3 := (*[4]E)(pb[bo+3*sc:])
		ao += 16
		bo += sk
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
func gemm44x2[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC int, alpha E, ovw bool) {
	var c00, c10, c20, c30 [2]E
	var c01, c11, c21, c31 [2]E
	var c02, c12, c22, c32 [2]E
	var c03, c13, c23, c33 [2]E
	ao, bo, sk, sc := 0, 0, ldbk*2, ldbc*2
	for l := 0; l < k; l++ {
		a0 := (*[2]E)(pa[ao:])
		a1 := (*[2]E)(pa[ao+2:])
		a2 := (*[2]E)(pa[ao+4:])
		a3 := (*[2]E)(pa[ao+6:])
		b0 := (*[2]E)(pb[bo:])
		b1 := (*[2]E)(pb[bo+sc:])
		b2 := (*[2]E)(pb[bo+2*sc:])
		b3 := (*[2]E)(pb[bo+3*sc:])
		ao += 8
		bo += sk
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
