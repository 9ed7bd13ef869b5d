//go:build !amd64 || purego

package kernels

import "iatf/internal/vec"

// Backend names the native GEMM main kernel this build runs.
const Backend = "purego"

// gemm44asm reports false: this build has no generated machine code, so
// GEMM runs the pure-Go main kernels.
func gemm44asm[E vec.Float](pa, pb, c []E, k, strideC, vl int, alpha E, ovw bool) bool {
	return false
}
