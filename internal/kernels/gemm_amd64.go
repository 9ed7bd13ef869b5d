//go:build !purego

package kernels

import (
	"unsafe"

	"iatf/internal/vec"
)

//go:generate sh -c "go run iatf/cmd/iatf-asm -op gemm-amd64 > gemm_amd64.s"

// Backend names the generated machine code this process runs, picked
// once from CPUID. "amd64-sse2" runs the GEMM main kernels (s/d 4×4, c/z
// 3×2), the TRMM triangle for M ≤ 4 and the s/d TRMM 4×4 rectangle as
// SSE2 (gemm_amd64.s, trmm_amd64.s). "amd64-avx", on a CPU with AVX,
// runs the s/d 4×4 main kernel on 256-bit registers instead and the
// rest as "amd64-sse2" does.
var Backend = backendName()

// gemmAVX selects the 256-bit s/d 4×4 main kernels.
var gemmAVX = hasAVX()

func backendName() string {
	if gemmAVX {
		return "amd64-avx"
	}
	return "amd64-sse2"
}

// cpuid and xgetbv run the instructions (cpu_amd64.s): cpuid with EAX
// and ECX set, xgetbv reading XCR0.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)
func xgetbv() (eax, edx uint32)

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS
// saves the YMM registers: OSXSAVE (bit 27) is set, and XCR0 enables
// both SSE and AVX state (XGETBV(0) & 6 == 6).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	eax, _ := xgetbv()
	return eax&6 == 6
}

// gemm4x4<t> and gemm3x2<t> are the Table 1 main kernels (s/d 4×4, c/z
// 3×2) lowered from the ktmpl templates to SSE2, and gemm4x4<t>AVX the
// s/d 4×4 kernel lowered to 256-bit AVX (gemm_amd64.s): k ≥ 1 K steps
// over packed A, B block (l, j) at pb + l·ldbk + j·ldbc blocks, C
// columns ldc blocks apart, ovw selecting the overwrite save. A complex
// block is 2 vectors, [re|im]. They check no bounds; gemm44asm and
// gemm32asm do.
//
//go:noescape
func gemm4x4s(pa, pb, c *float32, k, ldbk, ldbc, ldc int, alpha float32, ovw bool)

//go:noescape
func gemm4x4d(pa, pb, c *float64, k, ldbk, ldbc, ldc int, alpha float64, ovw bool)

//go:noescape
func gemm4x4sAVX(pa, pb, c *float32, k, ldbk, ldbc, ldc int, alpha float32, ovw bool)

//go:noescape
func gemm4x4dAVX(pa, pb, c *float64, k, ldbk, ldbc, ldc int, alpha float64, ovw bool)

//go:noescape
func gemm3x2c(pa, pb, c *float32, k, ldbk, ldbc, ldc int, alphaRe, alphaIm float32, ovw bool)

//go:noescape
func gemm3x2z(pa, pb, c *float64, k, ldbk, ldbc, ldc int, alphaRe, alphaIm float64, ovw bool)

// gemm44asm runs the generated real main kernel when E is float32 or
// float64 at its native width (vl·size = one 128-bit block) and reports
// whether it did: the AVX form when gemmAVX is set, else SSE2. It
// bounds-checks A, C and B's last block, (k−1)·ldbk + 3·ldbc, first. The
// SSE2 kernel runs the K loop once per 4×2 column half and stores the
// first half before the second reads pa and pb again, so a C that
// shares memory with them stays on pure Go in both forms: an overlapping
// call then gives the same result in every build.
func gemm44asm[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC, vl int, alpha E, ovw bool) bool {
	var e E
	size := int(unsafe.Sizeof(e))
	if vl*size != 16 || k < 1 || strideC < 4 || ldbk < 0 || ldbc < 0 {
		return false
	}
	na, nb, nc := 4*k*vl, ((k-1)*ldbk+3*ldbc+1)*vl, (3*strideC+4)*vl
	_, _, _ = pa[na-1], pb[nb-1], c[nc-1]
	if Overlaps(c[:nc], pa[:na]) || Overlaps(c[:nc], pb[:nb]) {
		return false
	}
	switch {
	case size == 4 && gemmAVX:
		gemm4x4sAVX(first[float32](pa), first[float32](pb), first[float32](c), k, ldbk, ldbc, strideC, float32(alpha), ovw)
	case size == 4:
		gemm4x4s(first[float32](pa), first[float32](pb), first[float32](c), k, ldbk, ldbc, strideC, float32(alpha), ovw)
	case gemmAVX:
		gemm4x4dAVX(first[float64](pa), first[float64](pb), first[float64](c), k, ldbk, ldbc, strideC, float64(alpha), ovw)
	default:
		gemm4x4d(first[float64](pa), first[float64](pb), first[float64](c), k, ldbk, ldbc, strideC, float64(alpha), ovw)
	}
	return true
}

// gemm32asm is gemm44asm for the complex 3×2 main kernel: blocks of
// 2·vl elements, B's last block (k−1)·ldbk + ldbc, and two 3×1 column
// halves.
func gemm32asm[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC, vl int, alphaRe, alphaIm E, ovw bool) bool {
	var e E
	size := int(unsafe.Sizeof(e))
	if vl*size != 16 || k < 1 || strideC < 3 || ldbk < 0 || ldbc < 0 {
		return false
	}
	bl := 2 * vl
	na, nb, nc := 3*k*bl, ((k-1)*ldbk+ldbc+1)*bl, (strideC+3)*bl
	_, _, _ = pa[na-1], pb[nb-1], c[nc-1]
	if Overlaps(c[:nc], pa[:na]) || Overlaps(c[:nc], pb[:nb]) {
		return false
	}
	if size == 4 {
		gemm3x2c(first[float32](pa), first[float32](pb), first[float32](c), k, ldbk, ldbc, strideC, float32(alphaRe), float32(alphaIm), ovw)
	} else {
		gemm3x2z(first[float64](pa), first[float64](pb), first[float64](c), k, ldbk, ldbc, strideC, float64(alphaRe), float64(alphaIm), ovw)
	}
	return true
}
