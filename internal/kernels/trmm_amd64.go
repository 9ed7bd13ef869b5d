//go:build !purego

package kernels

import (
	"unsafe"

	"iatf/internal/vec"
)

//go:generate sh -c "go run iatf/cmd/iatf-asm -op trmm-amd64 > trmm_amd64.s"

// trmmTri<M><t> are TriMul's register-resident triangles (M = 1…4)
// lowered from the ktmpl templates to SSE2 (trmm_amd64.s): ncols ≥ 1
// columns of b, ldb blocks apart, each multiplied in place by the
// packed triangle at pa. trmmRect4x4<t> is RectAdd's 4×4 tile: C += A·X
// over k ≥ 1 K steps, X and C columns ldx and ldc blocks apart. They
// check no bounds; triMulAsm and rectAddAsm do.
//
//go:noescape
func trmmTri1s(pa, b *float32, ncols, ldb int)

//go:noescape
func trmmTri2s(pa, b *float32, ncols, ldb int)

//go:noescape
func trmmTri3s(pa, b *float32, ncols, ldb int)

//go:noescape
func trmmTri4s(pa, b *float32, ncols, ldb int)

//go:noescape
func trmmTri1d(pa, b *float64, ncols, ldb int)

//go:noescape
func trmmTri2d(pa, b *float64, ncols, ldb int)

//go:noescape
func trmmTri3d(pa, b *float64, ncols, ldb int)

//go:noescape
func trmmTri4d(pa, b *float64, ncols, ldb int)

//go:noescape
func trmmRect4x4s(pa, x, c *float32, k, ldx, ldc int)

//go:noescape
func trmmRect4x4d(pa, x, c *float64, k, ldx, ldc int)

var (
	trmmTriS = [...]func(pa, b *float32, ncols, ldb int){trmmTri1s, trmmTri2s, trmmTri3s, trmmTri4s}
	trmmTriD = [...]func(pa, b *float64, ncols, ldb int){trmmTri1d, trmmTri2d, trmmTri3d, trmmTri4d}
)

// triMulAsm runs the generated triangle when E is float32 or float64 at
// its native width (one 128-bit block), m ≤ 4 and the B columns do not
// overlap, and reports whether it did. It bounds-checks the triangle and
// the last B column first. The kernel holds the whole triangle in
// registers before it writes B, so a triangle sharing memory with B
// stays on pure Go, which rereads it.
func triMulAsm[E vec.Float](pa, b []E, m, ncols, strideB, vl int) bool {
	var e E
	size := int(unsafe.Sizeof(e))
	if vl*size != 16 || m < 1 || m > 4 || ncols < 1 || strideB < m {
		return false
	}
	na, nb := m*(m+1)/2*vl, ((ncols-1)*strideB+m)*vl
	_, _ = pa[na-1], b[nb-1]
	if Overlaps(pa[:na], b[:nb]) {
		return false
	}
	if size == 4 {
		trmmTriS[m-1](first[float32](pa), first[float32](b), ncols, strideB)
	} else {
		trmmTriD[m-1](first[float64](pa), first[float64](b), ncols, strideB)
	}
	return true
}

// rectAddAsm runs the generated rectangle for a 4×4 tile when E is
// float32 or float64 at its native width and k ≥ 1, and reports whether
// it did. It bounds-checks pa, x and c first. The kernel stores C's
// first two columns before it reads X's last two, so C must share no
// element with X or pa. The blocked TRMM passes C inside X's own column
// tile (C rows r0…r0+3 below X rows 0…k−1 of the same columns, k ≤ r0),
// which is accepted. Any other overlap stays on pure Go, so that such a
// call gives the same result in every build.
func rectAddAsm[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) bool {
	var e E
	size := int(unsafe.Sizeof(e))
	if vl*size != 16 || mc != 4 || nc != 4 || k < 1 || strideC < 4 || strideX < 0 {
		return false
	}
	la, lx, lc := 4*k*vl, (3*strideX+k)*vl, (3*strideC+4)*vl
	_, _, _ = pa[la-1], x[lx-1], c[lc-1]
	if Overlaps(c[:lc], pa[:la]) || Overlaps(c[:lc], x[:lx]) && !belowInTile(x, c, k, strideX, strideC) {
		return false
	}
	if size == 4 {
		trmmRect4x4s(first[float32](pa), first[float32](x), first[float32](c), k, strideX, strideC)
	} else {
		trmmRect4x4d(first[float64](pa), first[float64](x), first[float64](c), k, strideX, strideC)
	}
	return true
}

// first views the first element of s, whose element type has T's layout,
// as the *T the assembly takes.
func first[T, E any](s []E) *T {
	return (*T)(unsafe.Pointer(unsafe.SliceData(s)))
}

// belowInTile reports whether the 4-row C tile lies in X's own column
// tile, r0 ≥ k blocks below X's first row, with the same column stride
// and its rows ending before the next column starts (r0+4 ≤ stride).
// Then X's rows [0, k) and C's rows [r0, r0+4) of every column are
// disjoint.
func belowInTile[E any](x, c []E, k, strideX, strideC int) bool {
	d := int(uintptr(unsafe.Pointer(unsafe.SliceData(c))) - uintptr(unsafe.Pointer(unsafe.SliceData(x))))
	r0 := d / 16
	return strideC == strideX && d%16 == 0 && r0 >= k && r0+4 <= strideX
}
