//go:build !purego

package kernels

import (
	"unsafe"

	"iatf/internal/vec"
)

//go:generate sh -c "go run iatf/cmd/iatf-asm -op trmm-amd64 > trmm_amd64.s"

// trmmTri<M><t> are TriMul's register-resident triangles (M = 1…4)
// lowered from the ktmpl templates to SSE2 (trmm_amd64.s): ncols ≥ 1
// columns of b, each multiplied in place by the packed triangle at pa,
// with B block (i, l) at b + i·rs + l·cs blocks. trmmRect4x4<t> is
// RectAdd's 4×4 tile: C += A·X over k ≥ 1 K steps, X block (l, j) at x +
// l·rs + j·ldx blocks and C block (r, j) at c + r·rs + j·ldc. The
// strides may be negative. They check no bounds; triMulAsm and
// rectAddAsm do.
//
//go:noescape
func trmmTri1s(pa, b *float32, ncols, rs, cs int)

//go:noescape
func trmmTri2s(pa, b *float32, ncols, rs, cs int)

//go:noescape
func trmmTri3s(pa, b *float32, ncols, rs, cs int)

//go:noescape
func trmmTri4s(pa, b *float32, ncols, rs, cs int)

//go:noescape
func trmmTri1d(pa, b *float64, ncols, rs, cs int)

//go:noescape
func trmmTri2d(pa, b *float64, ncols, rs, cs int)

//go:noescape
func trmmTri3d(pa, b *float64, ncols, rs, cs int)

//go:noescape
func trmmTri4d(pa, b *float64, ncols, rs, cs int)

//go:noescape
func trmmRect4x4s(pa, x, c *float32, k, rs, ldx, ldc int)

//go:noescape
func trmmRect4x4d(pa, x, c *float64, k, rs, ldx, ldc int)

var (
	trmmTriS = [...]func(pa, b *float32, ncols, rs, cs int){trmmTri1s, trmmTri2s, trmmTri3s, trmmTri4s}
	trmmTriD = [...]func(pa, b *float64, ncols, rs, cs int){trmmTri1d, trmmTri2d, trmmTri3d, trmmTri4d}
)

// triMulAsm runs the generated triangle when E is float32 or float64 at
// its native width (one 128-bit block), m ≤ 4 and B's m·ncols blocks are
// distinct, and reports whether it did. It bounds-checks the triangle
// and the lowest and highest B block first; with rs < 0 those are not
// the first and last. The kernel holds the whole triangle in registers
// before it writes B, so a triangle sharing memory with B stays on pure
// Go, which rereads it.
func triMulAsm[E vec.Float](pa, b []E, o, m, ncols, rs, cs, vl int) bool {
	var e E
	bl := 16 / int(unsafe.Sizeof(e)) // the one width served; a constant of E
	if vl != bl || m < 1 || m > 4 || ncols < 1 || !disjoint(m, rs, ncols, cs) {
		return false
	}
	na := m * (m + 1) / 2 * bl
	lo, hi := extent(o, m, rs, ncols, cs)
	_, _, _ = pa[na-1], b[lo*bl], b[hi*bl+bl-1]
	if Overlaps(pa[:na], b[lo*bl:(hi+1)*bl]) {
		return false
	}
	if bl == 4 {
		trmmTriS[m-1](first[float32](pa), first[float32](b[o*bl:]), ncols, rs, cs)
	} else {
		trmmTriD[m-1](first[float64](pa), first[float64](b[o*bl:]), ncols, rs, cs)
	}
	return true
}

// rectAddAsm runs the generated rectangle for a 4×4 tile when E is
// float32 or float64 at its native width, k ≥ 1 and C's 16 blocks are
// distinct, and reports whether it did. It bounds-checks pa and the
// lowest and highest block of X and of C first. The kernel stores C's
// first two columns before it reads X's last two, so C must share no
// element with X or pa. The blocked TRMM passes C inside X's own column
// tile (belowInTile), which is accepted. Any other overlap stays on pure
// Go, so that such a call gives the same result in every build.
func rectAddAsm[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) bool {
	var e E
	bl := 16 / int(unsafe.Sizeof(e)) // the one width served; a constant of E
	if vl != bl || mc != 4 || nc != 4 || k < 1 || !disjoint(4, rs, 4, strideC) {
		return false
	}
	la := 4 * k * bl
	xlo, xhi := extent(xo, k, rs, 4, strideX)
	clo, chi := extent(co, 4, rs, 4, strideC)
	_, _, _, _, _ = pa[la-1], x[xlo*bl], x[xhi*bl+bl-1], c[clo*bl], c[chi*bl+bl-1]
	cb, x0, c0 := c[clo*bl:(chi+1)*bl], &x[xo*bl], &c[co*bl]
	d := int(uintptr(unsafe.Pointer(c0)) - uintptr(unsafe.Pointer(x0)))
	if Overlaps(cb, pa[:la]) || Overlaps(cb, x[xlo*bl:(xhi+1)*bl]) && !belowInTile(d, k, rs, strideX, strideC) {
		return false
	}
	if bl == 4 {
		trmmRect4x4s(first[float32](pa), (*float32)(unsafe.Pointer(x0)), (*float32)(unsafe.Pointer(c0)), k, rs, strideX, strideC)
	} else {
		trmmRect4x4d(first[float64](pa), (*float64)(unsafe.Pointer(x0)), (*float64)(unsafe.Pointer(c0)), k, rs, strideX, strideC)
	}
	return true
}

// extent returns the lowest and highest of the blocks o + i·s1 + j·s2,
// i < n1, j < n2.
func extent(o, n1, s1, n2, s2 int) (lo, hi int) {
	d1, d2 := (n1-1)*s1, (n2-1)*s2
	return o + min(d1, 0) + min(d2, 0), o + max(d1, 0) + max(d2, 0)
}

// disjoint reports whether the blocks i·s1 + j·s2, i < n1, j < n2, are
// pairwise distinct because one stride steps past the whole extent of
// the other: |s2| ≥ n1·|s1| > 0 or |s1| ≥ n2·|s2| > 0.
func disjoint(n1, s1, n2, s2 int) bool {
	a, b := max(s1, -s1), max(s2, -s2)
	return a > 0 && b >= n1*a || b > 0 && a >= n2*b
}

// first views the first element of s, whose element type has T's layout,
// as the *T the assembly takes.
func first[T, E any](s []E) *T {
	return (*T)(unsafe.Pointer(unsafe.SliceData(s)))
}

// belowInTile reports whether the 4-row C tile d bytes past the first
// block of X lies in X's column tile, r0 ≥ k rows below it under the
// same row stride and column stride, with no two of the tile's r0+4 rows
// sharing a block. Then X's rows [0, k) and C's rows [r0, r0+4) are
// disjoint in the tile's index space, and so in memory. Rows ±1 block
// apart (every Left-side call) need no division.
func belowInTile(d, k, rs, strideX, strideC int) bool {
	blocks := d / 16
	r0 := blocks * rs // = blocks / rs when rs = ±1
	if rs*rs != 1 {
		if rs == 0 || blocks%rs != 0 {
			return false
		}
		r0 = blocks / rs
	}
	return blocks*16 == d && strideC == strideX && r0 >= k && disjoint(r0+4, rs, 4, strideX)
}
