//go:build !amd64 || purego

package kernels

import "iatf/internal/vec"

// Backend names the generated machine code this build runs: none, so
// GEMM and TRMM run their pure-Go kernels.
const Backend = "purego"

// gemm44asm and gemm32asm report false: this build has no generated
// machine code, so GEMM runs the pure-Go main kernels.
func gemm44asm[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC, vl int, alpha E, ovw bool) bool {
	return false
}

func gemm32asm[E vec.Float](pa, pb, c []E, k, ldbk, ldbc, strideC, vl int, alphaRe, alphaIm E, ovw bool) bool {
	return false
}
