//go:build !amd64 || purego

package kernels

import "iatf/internal/vec"

// triMulAsm and rectAddAsm report false: this build has no generated
// machine code, so TRMM runs the pure-Go kernels.
func triMulAsm[E vec.Float](pa, b []E, m, ncols, strideB, vl int) bool {
	return false
}

func rectAddAsm[E vec.Float](pa, x, c []E, mc, nc, k, strideC, strideX, vl int) bool {
	return false
}
