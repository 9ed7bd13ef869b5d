//go:build !amd64 || purego

package kernels

import "iatf/internal/vec"

// triMulAsm and rectAddAsm report false: this build has no generated
// machine code, so TRMM runs the pure-Go kernels.
func triMulAsm[E vec.Float](pa, b []E, o, m, ncols, rs, cs, vl int) bool {
	return false
}

func rectAddAsm[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) bool {
	return false
}
