package kernels

import "iatf/internal/vec"

// TRMM kernels — the compact triangular matrix multiply, this library's
// extension of the IATF framework to a further level-3 routine (the
// paper's stated future work). The blocked algorithm mirrors TRSM with
// the dataflow reversed: panels are processed bottom-up so each panel's
// update reads only still-original rows.
//
//	B_i := Tri(i,i)·B_i            (TriMul, register-resident triangle)
//	B_i += L(i, j<i)·B_j           (RectAdd, FMLA form of the Eq. 4 kernel)
//
// The packed triangle stores true diagonal values (ones for Unit); alpha
// is pre-scaled into B exactly as in TRSM.

// TriMul multiplies ncols columns of B in place by the register-resident
// lower triangle (m ≤ 5 real). Rows are processed bottom-up so x_j
// (j < i) is still the original value when row i consumes it.
// On amd64 float32/float64 at native width with m ≤ 4 run as generated
// SSE2 code (Backend); every other case runs pure Go.
func TriMul[E vec.Float](pa, b []E, m, ncols, strideB, vl int) {
	if triMulAsm(pa, b, m, ncols, strideB, vl) {
		return
	}
	if vl == 4 {
		triMul4(pa, b, m, ncols, strideB)
		return
	}
	if vl == 2 {
		triMul2(pa, b, m, ncols, strideB)
		return
	}
	var a [15]vec.V[E]
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
		for i := m - 1; i >= 0; i-- {
			row := i * (i + 1) / 2
			acc := vec.Mul(x[i], a[row+i])
			for j := 0; j < i; j++ {
				acc = vec.FMA(acc, a[row+j], x[j])
			}
			x[i] = acc
		}
		for i := 0; i < m; i++ {
			vec.Store(b[off+i*vl:], x[i], vl)
		}
	}
}

// triMul4 is TriMul's pure-Go kernel for 4-lane blocks. Like tri4 it
// reads the packed triangle and the B column in place and keeps the row
// in scalar locals; rows run bottom-up, so the rows j < i that row i
// reads are still original.
func triMul4[E vec.Float](pa, b []E, m, ncols, strideB int) {
	pa = span(pa, 0, 2*m*(m+1))
	for l := 0; l < ncols; l++ {
		x := span(b, l*strideB*4, 4*m)
		for i := m - 1; i >= 0; i-- {
			k := 2 * i * (i + 1)
			d := k + 4*i
			x0, x1, x2, x3 := x[4*i]*pa[d], x[4*i+1]*pa[d+1], x[4*i+2]*pa[d+2], x[4*i+3]*pa[d+3]
			for j := 0; j < i; j++ {
				x0 += pa[k] * x[4*j]
				x1 += pa[k+1] * x[4*j+1]
				x2 += pa[k+2] * x[4*j+2]
				x3 += pa[k+3] * x[4*j+3]
				k += 4
			}
			x[4*i], x[4*i+1], x[4*i+2], x[4*i+3] = x0, x1, x2, x3
		}
	}
}

// triMul2 is TriMul's pure-Go kernel for 2-lane blocks.
func triMul2[E vec.Float](pa, b []E, m, ncols, strideB int) {
	pa = span(pa, 0, m*(m+1))
	for l := 0; l < ncols; l++ {
		x := span(b, l*strideB*2, 2*m)
		for i := m - 1; i >= 0; i-- {
			k := i * (i + 1)
			d := k + 2*i
			x0, x1 := x[2*i]*pa[d], x[2*i+1]*pa[d+1]
			for j := 0; j < i; j++ {
				x0 += pa[k] * x[2*j]
				x1 += pa[k+1] * x[2*j+1]
				k += 2
			}
			x[2*i], x[2*i+1] = x0, x1
		}
	}
}

// TriMulCplx is the complex form of TriMul (m ≤ 3).
func TriMulCplx[E vec.Float](pa, b []E, m, ncols, strideB, vl int) {
	bl := 2 * vl
	var aRe, aIm [6]vec.V[E]
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
		for i := m - 1; i >= 0; i-- {
			row := i * (i + 1) / 2
			dRe, dIm := aRe[row+i], aIm[row+i]
			accRe := vec.Sub(vec.Mul(xRe[i], dRe), vec.Mul(xIm[i], dIm))
			accIm := vec.Add(vec.Mul(xRe[i], dIm), vec.Mul(xIm[i], dRe))
			for j := 0; j < i; j++ {
				accRe = vec.FMA(accRe, aRe[row+j], xRe[j])
				accRe = vec.FMS(accRe, aIm[row+j], xIm[j])
				accIm = vec.FMA(accIm, aRe[row+j], xIm[j])
				accIm = vec.FMA(accIm, aIm[row+j], xRe[j])
			}
			xRe[i], xIm[i] = accRe, accIm
		}
		for i := 0; i < m; i++ {
			vec.Store(b[off+i*bl:], xRe[i], vl)
			vec.Store(b[off+i*bl+vl:], xIm[i], vl)
		}
	}
}

// RectAdd applies B_tile += L·X — the accumulating (FMLA) form of the
// TRSM rectangular kernel, used by the blocked TRMM. On amd64 the
// float32/float64 4×4 tile at native width runs as generated SSE2 code
// (Backend); every other case runs pure Go.
func RectAdd[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
	if rectAddAsm(pa, x, c, mc, nc, k, strideC, strideX, vl) {
		return
	}
	if vl == 4 {
		rectAdd4(pa, x, c, mc, nc, k, strideC, strideX)
		return
	}
	if vl == 2 {
		rectAdd2(pa, x, c, mc, nc, k, strideC, strideX)
		return
	}
	rectAddGeneric(pa, x, c, mc, nc, k, strideC, strideX, vl)
}

// rectAddGeneric is the portable reference form of RectAdd.
func rectAddGeneric[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
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
				acc[r][cc] = vec.FMA(acc[r][cc], av[r], xv[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			vec.Store(c[(cc*strideC+r)*vl:], acc[r][cc], vl)
		}
	}
}

// rectAdd4 is RectAdd for 4-lane blocks, in the form of rect4: one C
// block's lanes in scalar locals over the K loop, A and X read in place,
// each block written before the next is read.
func rectAdd4[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			d := (*[4]E)(c[(cc*strideC+r)*4:])
			s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
			ao, xo := r*4, cc*strideX*4
			for l := 0; l < k; l++ {
				a, b := (*[4]E)(pa[ao:]), (*[4]E)(x[xo:])
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
				s2 += a[2] * b[2]
				s3 += a[3] * b[3]
				ao += mc * 4
				xo += 4
			}
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		}
	}
}

// rectAdd2 is RectAdd for 2-lane blocks, in the form of rectAdd4.
func rectAdd2[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX int) {
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			d := (*[2]E)(c[(cc*strideC+r)*2:])
			s0, s1 := d[0], d[1]
			ao, xo := r*2, cc*strideX*2
			for l := 0; l < k; l++ {
				a, b := (*[2]E)(pa[ao:]), (*[2]E)(x[xo:])
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
				ao += mc * 2
				xo += 2
			}
			d[0], d[1] = s0, s1
		}
	}
}

// RectAddCplx is the complex form of RectAdd (mc, nc ≤ 2).
func RectAddCplx[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) {
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
				accRe[r][cc] = vec.FMA(accRe[r][cc], aRe[r], xRe[cc])
				accRe[r][cc] = vec.FMS(accRe[r][cc], aIm[r], xIm[cc])
				accIm[r][cc] = vec.FMA(accIm[r][cc], aRe[r], xIm[cc])
				accIm[r][cc] = vec.FMA(accIm[r][cc], aIm[r], xRe[cc])
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
