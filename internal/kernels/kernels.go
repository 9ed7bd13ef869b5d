// Package kernels contains the native Go realizations of the IATF
// computing kernels — the same tile shapes, packing contracts and
// algorithms as the generated IR kernels, executed directly on compact
// buffers with the vec SIMD substrate. This is the wall-clock execution
// backend of the public API; the IR + VM path in internal/asm exists to
// validate the install-time generator/optimizer and to drive the cycle
// model. Some kernels are the generator's own output: on amd64 the GEMM
// main kernels (s/d 4×4, c/z 3×2, reading B in place through run-time
// strides) and the s/d TRMM triangle (M ≤ 4) and 4×4 rectangle run as
// SSE2 assembly lowered from the templates (gemm_amd64.s, trmm_amd64.s),
// and on a CPU with AVX the s/d GEMM 4×4 as 256-bit AVX lowered from the
// same templates (Backend), all bit-identical to their Go forms.
//
// All kernels operate on slices of the real component type; complex data
// uses the split-plane block format of the compact layout.
package kernels

import (
	"unsafe"

	"iatf/internal/vec"
)

// GEMM computes one C tile update: C += alpha·A·B over an interleave
// group, consuming a packed mc×K A panel (N-shape) and a packed K×nc B
// panel (Z-shape). C blocks live at (col·strideC + row)·vl relative to c.
// mc and nc are at most 4 (the Table 1 main kernel).
// ovw selects the overwrite save (C = alpha·A·B, the beta = 0 case) so the
// caller can skip both the beta pre-scale pass and the C read.
// It is GEMMStrided over the packed panel's strides.
func GEMM[E vec.Float](pa, pb, c []E, mc, nc, k, strideC, vl int, alpha E, ovw bool) {
	GEMMStrided(pa, pb, c, mc, nc, k, nc, 1, strideC, vl, alpha, ovw)
}

// GEMMStrided is GEMM with B read through strides: block (l, j) of B, K
// step l of column j, sits at (l·ldbk + j·ldbc)·vl relative to pb. A
// packed Z-shaped panel has ldbk = nc and ldbc = 1; a compact B read in
// place has ldbk = 1 and ldbc = K (NoTrans) or ldbk = N and ldbc = 1
// (Trans). C must share no memory with pa or pb: the kernels write C
// blocks while others still read A and B, so an overlapping call's
// result is unspecified (the native executor packs such an operand).
// On amd64 the float32/float64 4×4 main kernel at native width runs as
// generated SSE2 or AVX code (Backend); every other case runs pure Go.
func GEMMStrided[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC, vl int, alpha E, ovw bool) {
	if mc == 4 && nc == 4 && gemm44asm(pa, pb, c, k, ldbk, ldbc, strideC, vl, alpha, ovw) {
		return
	}
	switch {
	case vl == 4 && mc == 4 && nc == 4:
		gemm44x4(pa, pb, c, k, ldbk, ldbc, strideC, alpha, ovw)
		return
	case vl == 2 && mc == 4 && nc == 4:
		gemm44x2(pa, pb, c, k, ldbk, ldbc, strideC, alpha, ovw)
		return
	case vl == 4:
		gemm4(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, alpha, ovw)
		return
	case vl == 2:
		gemm2(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, alpha, ovw)
		return
	}
	gemmGeneric(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, vl, alpha, ovw)
}

// gemmGeneric is the portable reference form of GEMMStrided for any lane
// count.
func gemmGeneric[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC, vl int, alpha E, ovw bool) {
	var acc [4][4]vec.V[E]
	ao := 0
	for l := 0; l < k; l++ {
		var av, bv [4]vec.V[E]
		for r := 0; r < mc; r++ {
			av[r] = vec.Load(pa[ao:], vl)
			ao += vl
		}
		for cc := 0; cc < nc; cc++ {
			bv[cc] = vec.Load(pb[(l*ldbk+cc*ldbc)*vl:], vl)
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				acc[r][cc] = vec.FMA(acc[r][cc], av[r], bv[cc])
			}
		}
	}
	va := vec.Dup(alpha)
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			off := (cc*strideC + r) * vl
			var cur vec.V[E]
			if !ovw {
				cur = vec.Load(c[off:], vl)
			}
			cur = vec.FMA(cur, acc[r][cc], va)
			vec.Store(c[off:], cur, vl)
		}
	}
}

// GEMMCplx is the complex form of GEMM: blocks are [re|im] pairs and the
// multiply-accumulate expands to the four-instruction complex pattern.
// mc ≤ 3, nc ≤ 2 (Table 1). It is GEMMCplxStrided over the packed
// panel's strides.
func GEMMCplx[E vec.Float](pa, pb, c []E, mc, nc, k, strideC, vl int, alphaRe, alphaIm E, ovw bool) {
	GEMMCplxStrided(pa, pb, c, mc, nc, k, nc, 1, strideC, vl, alphaRe, alphaIm, ovw)
}

// GEMMCplxStrided is GEMMCplx with B read through strides, in blocks of
// 2·vl elements, as in GEMMStrided. On amd64 the complex64/complex128
// 3×2 main kernel at native width runs as generated SSE2 code (Backend);
// every other case runs pure Go.
func GEMMCplxStrided[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC, vl int, alphaRe, alphaIm E, ovw bool) {
	if mc == 3 && nc == 2 && gemm32asm(pa, pb, c, k, ldbk, ldbc, strideC, vl, alphaRe, alphaIm, ovw) {
		return
	}
	switch vl {
	case 4:
		gemmCplx4(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, alphaRe, alphaIm, ovw)
		return
	case 2:
		gemmCplx2(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, alphaRe, alphaIm, ovw)
		return
	}
	gemmCplxGeneric(pa, pb, c, mc, nc, k, ldbk, ldbc, strideC, vl, alphaRe, alphaIm, ovw)
}

// gemmCplxGeneric is the portable reference form of GEMMCplxStrided.
func gemmCplxGeneric[E vec.Float](pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC, vl int, alphaRe, alphaIm E, ovw bool) {
	var accRe, accIm [3][2]vec.V[E]
	bl := 2 * vl
	ao := 0
	for l := 0; l < k; l++ {
		var aRe, aIm [3]vec.V[E]
		var bRe, bIm [2]vec.V[E]
		for r := 0; r < mc; r++ {
			aRe[r] = vec.Load(pa[ao:], vl)
			aIm[r] = vec.Load(pa[ao+vl:], vl)
			ao += bl
		}
		for cc := 0; cc < nc; cc++ {
			bo := (l*ldbk + cc*ldbc) * bl
			bRe[cc] = vec.Load(pb[bo:], vl)
			bIm[cc] = vec.Load(pb[bo+vl:], vl)
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				accRe[r][cc] = vec.FMA(accRe[r][cc], aRe[r], bRe[cc])
				accRe[r][cc] = vec.FMS(accRe[r][cc], aIm[r], bIm[cc])
				accIm[r][cc] = vec.FMA(accIm[r][cc], aRe[r], bIm[cc])
				accIm[r][cc] = vec.FMA(accIm[r][cc], aIm[r], bRe[cc])
			}
		}
	}
	vaRe, vaIm := vec.Dup(alphaRe), vec.Dup(alphaIm)
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			off := (cc*strideC + r) * bl
			var curRe, curIm vec.V[E]
			if !ovw {
				curRe = vec.Load(c[off:], vl)
				curIm = vec.Load(c[off+vl:], vl)
			}
			curRe = vec.FMA(curRe, accRe[r][cc], vaRe)
			curRe = vec.FMS(curRe, accIm[r][cc], vaIm)
			curIm = vec.FMA(curIm, accIm[r][cc], vaRe)
			curIm = vec.FMA(curIm, accRe[r][cc], vaIm)
			vec.Store(c[off:], curRe, vl)
			vec.Store(c[off+vl:], curIm, vl)
		}
	}
}

// Overlaps reports whether x and y share any memory.
func Overlaps[E any](x, y []E) bool {
	x0, y0 := uintptr(unsafe.Pointer(unsafe.SliceData(x))), uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(len(y))*unsafe.Sizeof(y[0]) && y0 < x0+uintptr(len(x))*unsafe.Sizeof(x[0])
}

// Tri solves the canonical lower triangular system for ncols columns of B
// in place (Algorithm 4): the packed triangle pa holds row-wise blocks
// with reciprocal diagonals; column c of B lives at c·strideB·vl.
// m ≤ 5 (real register budget).
func Tri[E vec.Float](pa, b []E, m, ncols, strideB, vl int) {
	switch vl {
	case 4:
		tri4(pa, b, m, ncols, strideB)
		return
	case 2:
		tri2(pa, b, m, ncols, strideB)
		return
	}
	triGeneric(pa, b, m, ncols, strideB, vl)
}

// triGeneric is the portable reference form of Tri.
func triGeneric[E vec.Float](pa, b []E, m, ncols, strideB, vl int) {
	var a [15]vec.V[E] // m(m+1)/2 ≤ 15
	n := m * (m + 1) / 2
	for i := 0; i < n; i++ {
		a[i] = vec.Load(pa[i*vl:], vl)
	}
	var x [5]vec.V[E]
	for l := 0; l < ncols; l++ {
		off := l * strideB * vl
		for i := 0; i < m; i++ {
			x[i] = vec.Load(b[off+i*vl:], vl)
		}
		for i := 0; i < m; i++ {
			row := i * (i + 1) / 2
			for j := 0; j < i; j++ {
				x[i] = vec.FMS(x[i], a[row+j], x[j])
			}
			x[i] = vec.Mul(x[i], a[row+i])
		}
		for i := 0; i < m; i++ {
			vec.Store(b[off+i*vl:], x[i], vl)
		}
	}
}

// TriCplx is the complex form of Tri; m ≤ 3.
func TriCplx[E vec.Float](pa, b []E, m, ncols, strideB, vl int) {
	bl := 2 * vl
	var aRe, aIm [6]vec.V[E] // m(m+1)/2 ≤ 6
	n := m * (m + 1) / 2
	for i := 0; i < n; i++ {
		aRe[i] = vec.Load(pa[i*bl:], vl)
		aIm[i] = vec.Load(pa[i*bl+vl:], vl)
	}
	var xRe, xIm [3]vec.V[E]
	for l := 0; l < ncols; l++ {
		off := l * strideB * bl
		for i := 0; i < m; i++ {
			xRe[i] = vec.Load(b[off+i*bl:], vl)
			xIm[i] = vec.Load(b[off+i*bl+vl:], vl)
		}
		for i := 0; i < m; i++ {
			row := i * (i + 1) / 2
			for j := 0; j < i; j++ {
				// x_i -= a(i,j)·x_j
				xRe[i] = vec.FMS(xRe[i], aRe[row+j], xRe[j])
				xRe[i] = vec.FMA(xRe[i], aIm[row+j], xIm[j])
				xIm[i] = vec.FMS(xIm[i], aRe[row+j], xIm[j])
				xIm[i] = vec.FMS(xIm[i], aIm[row+j], xRe[j])
			}
			// x_i *= recip(a_ii)
			re := vec.Sub(vec.Mul(xRe[i], aRe[row+i]), vec.Mul(xIm[i], aIm[row+i]))
			im := vec.Add(vec.Mul(xRe[i], aIm[row+i]), vec.Mul(xIm[i], aRe[row+i]))
			xRe[i], xIm[i] = re, im
		}
		for i := 0; i < m; i++ {
			vec.Store(b[off+i*bl:], xRe[i], vl)
			vec.Store(b[off+i*bl+vl:], xIm[i], vl)
		}
	}
}

// Rect applies the TRSM rectangular update (Eq. 4) to a B tile in place:
// B -= L·X, with L packed column-major (mc blocks per reduction step) and
// X read strided from the solved rows.
func Rect[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
	switch vl {
	case 4:
		rect4(pa, x, c, mc, nc, k, strideC, strideX)
		return
	case 2:
		rect2(pa, x, c, mc, nc, k, strideC, strideX)
		return
	}
	rectGeneric(pa, x, c, mc, nc, k, strideC, strideX, vl)
}

// rectGeneric is the portable reference form of Rect.
func rectGeneric[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
	var acc [4][4]vec.V[E]
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			acc[r][cc] = vec.Load(c[(cc*strideC+r)*vl:], vl)
		}
	}
	ao := 0
	for l := 0; l < k; l++ {
		var av, xv [4]vec.V[E]
		for r := 0; r < mc; r++ {
			av[r] = vec.Load(pa[ao:], vl)
			ao += vl
		}
		for cc := 0; cc < nc; cc++ {
			xv[cc] = vec.Load(x[(cc*strideX+l)*vl:], vl)
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				acc[r][cc] = vec.FMS(acc[r][cc], av[r], xv[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			vec.Store(c[(cc*strideC+r)*vl:], acc[r][cc], vl)
		}
	}
}

// RectCplx is the complex form of Rect; mc, nc ≤ 2.
func RectCplx[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
	bl := 2 * vl
	var accRe, accIm [2][2]vec.V[E]
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			off := (cc*strideC + r) * bl
			accRe[r][cc] = vec.Load(c[off:], vl)
			accIm[r][cc] = vec.Load(c[off+vl:], vl)
		}
	}
	ao := 0
	for l := 0; l < k; l++ {
		var aRe, aIm, xRe, xIm [2]vec.V[E]
		for r := 0; r < mc; r++ {
			aRe[r] = vec.Load(pa[ao:], vl)
			aIm[r] = vec.Load(pa[ao+vl:], vl)
			ao += bl
		}
		for cc := 0; cc < nc; cc++ {
			off := (cc*strideX + l) * bl
			xRe[cc] = vec.Load(x[off:], vl)
			xIm[cc] = vec.Load(x[off+vl:], vl)
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				accRe[r][cc] = vec.FMS(accRe[r][cc], aRe[r], xRe[cc])
				accRe[r][cc] = vec.FMA(accRe[r][cc], aIm[r], xIm[cc])
				accIm[r][cc] = vec.FMS(accIm[r][cc], aRe[r], xIm[cc])
				accIm[r][cc] = vec.FMS(accIm[r][cc], aIm[r], xRe[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			off := (cc*strideC + r) * bl
			vec.Store(c[off:], accRe[r][cc], vl)
			vec.Store(c[off+vl:], accIm[r][cc], vl)
		}
	}
}
