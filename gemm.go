package iatf

import "context"

// The classic per-op entry points are compatibility wrappers over the
// request API: each builds a Request and runs it through Do on the
// process-wide default engine. The engine does all shape checking,
// resolves the cached execution plan (planning runs once per shape, not
// once per call), and executes with pooled packing buffers. Do/Submit
// add context support, the async queue, a private engine (WithEngine)
// and a worker split (WithWorkers).

// GEMM computes C = alpha·op(A)·op(B) + beta·C over every matrix of the
// compact batches. op(A) must be M×K, op(B) K×N and C M×N, with equal
// batch counts.
//
// The first call on a shape generates an input-aware execution plan
// (kernel sizes from the Table 1 registry for the concrete M, N, K,
// packing kernels or the no-packing fast path, and an L1-sized
// super-batch); the engine caches the plan, so repeated calls only pay
// for execution.
func GEMM[T Scalar](ta, tb Trans, alpha T, a, b *Compact[T], beta T, c *Compact[T]) error {
	return Do(context.Background(), Request[T]{
		Op: OpGEMM, TransA: ta, TransB: tb, Alpha: alpha, Beta: beta, A: a, B: b, C: c,
	})
}

// TRSM solves op(A)·X = alpha·B (Left) or X·op(A) = alpha·B (Right) for
// every matrix of the compact batches, overwriting B with X. A must be
// square (M×M for Left, N×N for Right) and triangular per uplo/diag; the
// other triangle is never read.
func TRSM[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) error {
	return Do(context.Background(), Request[T]{
		Op: OpTRSM, Side: side, Uplo: uplo, TransA: ta, Diag: diag, Alpha: alpha, A: a, B: b,
	})
}

// TRMM computes B = alpha·op(A)·B (Left) or B = alpha·B·op(A) (Right)
// for every matrix of the compact batches, where A is triangular per
// uplo/diag — the compact triangular matrix multiply, this library's
// extension of the framework beyond the paper's GEMM/TRSM (its stated
// future work). B is overwritten.
func TRMM[T Scalar](side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *Compact[T]) error {
	return Do(context.Background(), Request[T]{
		Op: OpTRMM, Side: side, Uplo: uplo, TransA: ta, Diag: diag, Alpha: alpha, A: a, B: b,
	})
}

// SYRK computes the symmetric rank-k update C = alpha·op(A)·op(A)ᵀ + beta·C
// for every matrix of the compact batches, touching only the uplo
// triangle of C (diagonal included). op(A) is N×K and C is N×N. With
// Transpose the update is alpha·op(A)ᵀ·op(A) on a K×N input. Part of the
// framework's level-3 extension set.
func SYRK[T Scalar](uplo Uplo, trans Trans, alpha T, a *Compact[T], beta T, c *Compact[T]) error {
	return Do(context.Background(), Request[T]{
		Op: OpSYRK, Uplo: uplo, TransA: trans, Alpha: alpha, Beta: beta, A: a, C: c,
	})
}
