//go:build !purego

package kernels

import (
	"unsafe"

	"iatf/internal/vec"
)

//go:generate sh -c "go run iatf/cmd/iatf-asm -op gemm-amd64 > gemm_amd64.s"

// Backend names the generated machine code this build runs: SSE2 forms
// of the s/d GEMM 4×4 main kernel, the TRMM triangle for M ≤ 4 and the
// TRMM 4×4 rectangle (gemm_amd64.s, trmm_amd64.s).
const Backend = "amd64-sse2"

// gemm4x4s and gemm4x4d are the Table 1 s/d main kernels (mc = nc = 4)
// lowered from the ktmpl templates to SSE2 (gemm_amd64.s): k ≥ 1 packed
// K steps, C columns ldc blocks apart, ovw selecting the overwrite save.
// They check no bounds; gemm44asm does.
//
//go:noescape
func gemm4x4s(pa, pb, c *float32, k, ldc int, alpha float32, ovw bool)

//go:noescape
func gemm4x4d(pa, pb, c *float64, k, ldc int, alpha float64, ovw bool)

// gemm44asm runs the generated main kernel when E is float32 or float64
// at its native width (vl·size = one 128-bit block) and reports whether
// it did. It bounds-checks every block the kernel touches first. The
// kernel runs the K loop once per 4×2 column half and stores the first
// half before the second reads pa and pb again, so a C that shares
// memory with them (a GEMM whose C is its A or B) stays on pure Go,
// which reads all of A and B before it writes C.
func gemm44asm[E vec.Float](pa, pb, c []E, k, strideC, vl int, alpha E, ovw bool) bool {
	if k < 1 || strideC < 4 {
		return false
	}
	switch pa := any(pa).(type) {
	case []float32:
		if vl != 4 {
			return false
		}
		pb, c := any(pb).([]float32), any(c).([]float32)
		nab, nc := 16*k, (3*strideC+4)*4
		_, _, _ = pa[nab-1], pb[nab-1], c[nc-1]
		if overlaps(c[:nc], pa[:nab]) || overlaps(c[:nc], pb[:nab]) {
			return false
		}
		gemm4x4s(&pa[0], &pb[0], &c[0], k, strideC, float32(alpha), ovw)
		return true
	case []float64:
		if vl != 2 {
			return false
		}
		pb, c := any(pb).([]float64), any(c).([]float64)
		nab, nc := 8*k, (3*strideC+4)*2
		_, _, _ = pa[nab-1], pb[nab-1], c[nc-1]
		if overlaps(c[:nc], pa[:nab]) || overlaps(c[:nc], pb[:nab]) {
			return false
		}
		gemm4x4d(&pa[0], &pb[0], &c[0], k, strideC, float64(alpha), ovw)
		return true
	}
	return false
}

// overlaps reports whether x and y share any memory.
func overlaps[E any](x, y []E) bool {
	x0, y0 := uintptr(unsafe.Pointer(unsafe.SliceData(x))), uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(len(y))*unsafe.Sizeof(y[0]) && y0 < x0+uintptr(len(x))*unsafe.Sizeof(x[0])
}
