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
// lower triangle (m ≤ 5 real), B block (i, l) at o + i·rs + l·cs blocks
// as in TriStrided. Rows are processed bottom-up so x_j (j < i) is still
// the original value when row i consumes it.
// On amd64 float32/float64 at native width with m ≤ 4 run as generated
// SSE2 code (Backend); every other case runs pure Go.
func TriMul[E vec.Float](pa, b []E, o, m, ncols, rs, cs, vl int) {
	if triMulAsm(pa, b, o, m, ncols, rs, cs, vl) {
		return
	}
	if vl == 4 {
		triMul4(pa, b, o, m, ncols, rs, cs)
		return
	}
	if vl == 2 {
		triMul2(pa, b, o, m, ncols, rs, cs)
		return
	}
	var a [15]vec.V[E]
	n := m * (m + 1) / 2
	for i := 0; i < n; i++ {
		a[i] = vec.Load(pa[i*vl:], vl)
	}
	var x [5]vec.V[E]
	for l := 0; l < ncols; l++ {
		off := o + l*cs
		for i := 0; i < m; i++ {
			x[i] = vec.Load(b[(off+i*rs)*vl:], vl)
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
			vec.Store(b[(off+i*rs)*vl:], x[i], vl)
		}
	}
}

// triMul4 is TriMul's pure-Go kernel for 4-lane blocks. Like tri4 it
// reads the packed triangle and the B column in place and keeps the row
// in scalar locals; rows run bottom-up, so the rows j < i that row i
// reads are still original.
func triMul4[E vec.Float](pa, b []E, o, m, ncols, rs, cs int) {
	pa = span(pa, 0, 2*m*(m+1))
	rs, cs = 4*rs, 4*cs
	for col := 4 * o; ncols > 0; ncols-- {
		xi := col + (m-1)*rs
		for i := m - 1; i >= 0; i-- {
			k := 2 * i * (i + 1)
			d := k + 4*i
			x := (*[4]E)(b[xi:])
			x0, x1, x2, x3 := x[0]*pa[d], x[1]*pa[d+1], x[2]*pa[d+2], x[3]*pa[d+3]
			for j, xj := 0, col; j < i; j++ {
				y := (*[4]E)(b[xj:])
				x0 += pa[k] * y[0]
				x1 += pa[k+1] * y[1]
				x2 += pa[k+2] * y[2]
				x3 += pa[k+3] * y[3]
				k += 4
				xj += rs
			}
			x[0], x[1], x[2], x[3] = x0, x1, x2, x3
			xi -= rs
		}
		col += cs
	}
}

// triMul2 is TriMul's pure-Go kernel for 2-lane blocks.
func triMul2[E vec.Float](pa, b []E, o, m, ncols, rs, cs int) {
	pa = span(pa, 0, m*(m+1))
	rs, cs = 2*rs, 2*cs
	for col := 2 * o; ncols > 0; ncols-- {
		xi := col + (m-1)*rs
		for i := m - 1; i >= 0; i-- {
			k := i * (i + 1)
			d := k + 2*i
			x := (*[2]E)(b[xi:])
			x0, x1 := x[0]*pa[d], x[1]*pa[d+1]
			for j, xj := 0, col; j < i; j++ {
				y := (*[2]E)(b[xj:])
				x0 += pa[k] * y[0]
				x1 += pa[k+1] * y[1]
				k += 2
				xj += rs
			}
			x[0], x[1] = x0, x1
			xi -= rs
		}
		col += cs
	}
}

// TriMulCplx is the complex form of TriMul, in blocks of 2·vl (m ≤ 3).
func TriMulCplx[E vec.Float](pa, b []E, o, m, ncols, rs, cs, vl int) {
	bl := 2 * vl
	var aRe, aIm [6]vec.V[E]
	n := m * (m + 1) / 2
	for i := 0; i < n; i++ {
		aRe[i] = vec.Load(pa[i*bl:], vl)
		aIm[i] = vec.Load(pa[i*bl+vl:], vl)
	}
	var xRe, xIm [3]vec.V[E]
	for l := 0; l < ncols; l++ {
		off := o + l*cs
		for i := 0; i < m; i++ {
			e := (off + i*rs) * bl
			xRe[i] = vec.Load(b[e:], vl)
			xIm[i] = vec.Load(b[e+vl:], vl)
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
			e := (off + i*rs) * bl
			vec.Store(b[e:], xRe[i], vl)
			vec.Store(b[e+vl:], xIm[i], vl)
		}
	}
}

// RectAdd applies B_tile += L·X — the accumulating (FMLA) form of
// RectStrided, with its addressing, used by the blocked TRMM. On amd64
// the float32/float64 4×4 tile at native width runs as generated SSE2
// code (Backend); every other case runs pure Go.
func RectAdd[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) {
	if rectAddAsm(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX, vl) {
		return
	}
	if vl == 4 {
		rectAdd4(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX)
		return
	}
	if vl == 2 {
		rectAdd2(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX)
		return
	}
	rectAddGeneric(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX, vl)
}

// rectAddGeneric is the portable reference form of RectAdd.
func rectAddGeneric[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) {
	var acc [4][4]vec.V[E]
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			acc[r][cc] = vec.Load(c[(co+r*rs+cc*strideC)*vl:], vl)
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
			xv[cc] = vec.Load(x[(xo+l*rs+cc*strideX)*vl:], vl)
		}
		for cc := 0; cc < nc; cc++ {
			for r := 0; r < mc; r++ {
				acc[r][cc] = vec.FMA(acc[r][cc], av[r], xv[cc])
			}
		}
	}
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			vec.Store(c[(co+r*rs+cc*strideC)*vl:], acc[r][cc], vl)
		}
	}
}

// rectAdd4 is RectAdd for 4-lane blocks, in the form of rect4: one C
// block's lanes in scalar locals over the K loop, A and X read in place,
// each block written before the next is read.
func rectAdd4[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX int) {
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
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
				s2 += a[2] * b[2]
				s3 += a[3] * b[3]
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

// rectAdd2 is RectAdd for 2-lane blocks, in the form of rectAdd4.
func rectAdd2[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX int) {
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
				s0 += a[0] * b[0]
				s1 += a[1] * b[1]
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

// RectAddCplx is the complex form of RectAdd, in blocks of 2·vl (mc, nc
// ≤ 2).
func RectAddCplx[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) {
	bl := 2 * vl
	var accRe, accIm [2][2]vec.V[E]
	for cc := 0; cc < nc; cc++ {
		for r := 0; r < mc; r++ {
			off := (co + r*rs + cc*strideC) * bl
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
			off := (xo + l*rs + cc*strideX) * bl
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
			off := (co + r*rs + cc*strideC) * bl
			vec.Store(c[off:], accRe[r][cc], vl)
			vec.Store(c[off+vl:], accIm[r][cc], vl)
		}
	}
}
