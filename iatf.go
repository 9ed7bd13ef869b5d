// Package iatf is a compact batched BLAS for large groups of fixed-size
// small matrices, reproducing "IATF: An Input-Aware Tuning Framework for
// Compact BLAS Based on ARMv8 CPUs" (ICPP 2022).
//
// The library operates on batches of equally sized small matrices stored
// in the SIMD-friendly compact layout: element (i,j) of P consecutive
// matrices is interleaved so one vector register processes P matrices at
// once. Convert a conventional batch with Pack, run GEMM/TRSM on the
// compact handle, and Unpack the results:
//
//	batch := iatf.NewBatch[float64](16384, 8, 8) // 16384 8×8 matrices
//	// ... fill batch ...
//	a := iatf.Pack(batchA)
//	b := iatf.Pack(batchB)
//	c := iatf.Pack(batchC)
//	iatf.GEMM(iatf.NoTrans, iatf.NoTrans, 1.0, a, b, 1.0, c)
//	result := c.Unpack()
//
// Every call runs the paper's two-stage framework: the install-time stage
// (kernel templates, CMAR-optimal kernel sizes, instruction scheduling)
// produced the compiled kernels before the program ran; the run-time
// stage picks packing kernels, L1-sized super-batches and an execution
// plan from the input matrix properties, once per shape.
package iatf

import (
	"fmt"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Scalar is the set of supported element types: the BLAS s, d, c and z
// types.
type Scalar = matrix.Scalar

// Trans selects op(A) for an operand.
type Trans = matrix.Trans

// Side selects which side of X the triangular matrix A appears on in TRSM.
type Side = matrix.Side

// Uplo selects the stored triangle of A in TRSM.
type Uplo = matrix.Uplo

// Diag declares whether A has an implicit unit diagonal in TRSM.
type Diag = matrix.Diag

// BLAS mode constants.
const (
	NoTrans   = matrix.NoTrans
	Transpose = matrix.Transpose
	Left      = matrix.Left
	Right     = matrix.Right
	Lower     = matrix.Lower
	Upper     = matrix.Upper
	NonUnit   = matrix.NonUnit
	Unit      = matrix.Unit
)

// Batch is a group of equally sized matrices in conventional column-major
// storage, back to back — the interchange format with the rest of a Go
// program.
type Batch[T Scalar] struct {
	inner *matrix.Batch[T]
}

// NewBatch allocates a zeroed batch of count rows×cols matrices.
func NewBatch[T Scalar](count, rows, cols int) *Batch[T] {
	return &Batch[T]{inner: matrix.NewBatch[T](count, rows, cols)}
}

// Count returns the number of matrices.
func (b *Batch[T]) Count() int { return b.inner.Count }

// Rows returns the per-matrix row count.
func (b *Batch[T]) Rows() int { return b.inner.Rows }

// Cols returns the per-matrix column count.
func (b *Batch[T]) Cols() int { return b.inner.Cols }

// At returns element (i, j) of matrix m.
func (b *Batch[T]) At(m, i, j int) T { return b.inner.Mat(m).At(i, j) }

// Set assigns element (i, j) of matrix m.
func (b *Batch[T]) Set(m, i, j int, x T) { b.inner.Mat(m).Set(i, j, x) }

// Data exposes the underlying storage: Count contiguous column-major
// matrices.
func (b *Batch[T]) Data() []T { return b.inner.Data }

// dtypeOf maps a scalar type onto its BLAS data type.
func dtypeOf[T Scalar]() vec.DType {
	var z T
	switch any(z).(type) {
	case float32:
		return vec.S
	case float64:
		return vec.D
	case complex64:
		return vec.C
	default:
		return vec.Z
	}
}

// Compact is a batch in the SIMD-friendly compact layout — the format the
// computing kernels consume. Obtain one with Pack and convert back with
// Unpack.
type Compact[T Scalar] struct {
	dt  vec.DType
	f32 *layout.Compact[float32]
	f64 *layout.Compact[float64]
}

// Pack converts a conventional batch into the compact layout.
func Pack[T Scalar](b *Batch[T]) *Compact[T] {
	dt := dtypeOf[T]()
	c := &Compact[T]{dt: dt}
	switch src := any(b.inner).(type) {
	case *matrix.Batch[float32]:
		c.f32 = layout.FromBatch(dt, src)
	case *matrix.Batch[float64]:
		c.f64 = layout.FromBatch(dt, src)
	case *matrix.Batch[complex64]:
		c.f32 = layout.FromBatchComplex[complex64, float32](dt, src)
	case *matrix.Batch[complex128]:
		c.f64 = layout.FromBatchComplex[complex128, float64](dt, src)
	}
	return c
}

// Unpack converts the compact batch back to conventional storage.
func (c *Compact[T]) Unpack() *Batch[T] {
	var out any
	switch {
	case c.f32 != nil && !c.dt.IsComplex():
		out = layout.ToBatch(c.f32)
	case c.f64 != nil && !c.dt.IsComplex():
		out = layout.ToBatch(c.f64)
	case c.f32 != nil:
		out = layout.ToBatchComplex[complex64](c.f32)
	default:
		out = layout.ToBatchComplex[complex128](c.f64)
	}
	return &Batch[T]{inner: out.(*matrix.Batch[T])}
}

// Count returns the number of matrices (padding excluded).
func (c *Compact[T]) Count() int {
	if c.f32 != nil {
		return c.f32.Count
	}
	return c.f64.Count
}

// Rows returns the per-matrix row count.
func (c *Compact[T]) Rows() int {
	if c.f32 != nil {
		return c.f32.Rows
	}
	return c.f64.Rows
}

// Cols returns the per-matrix column count.
func (c *Compact[T]) Cols() int {
	if c.f32 != nil {
		return c.f32.Cols
	}
	return c.f64.Cols
}

// Prepack opts the compact batch into packed-operand reuse: the engine
// caches the packed image this operand takes inside each execution plan,
// so the packing kernels run once per (operand, shape) instead of once
// per call — the pack-once pattern for operands reused across calls
// (fixed weights, a factored triangle). Only GEMM's A and the TRSM/TRMM
// triangle have packed images: GEMM reads B in place. Operations that
// write an operand (GEMM's C, TRSM/TRMM's B, SYRK's C) invalidate its
// cached images automatically; results are bit-identical with or
// without Prepack.
// Idempotent and safe for concurrent use.
func (c *Compact[T]) Prepack() {
	if c.f32 != nil {
		c.f32.EnablePrepack()
	}
	if c.f64 != nil {
		c.f64.EnablePrepack()
	}
}

// Invalidate marks the batch's contents as changed, retiring any cached
// packed images so the next call re-packs the new contents. A no-op
// unless Prepack was called.
func (c *Compact[T]) Invalidate() {
	if c.f32 != nil {
		c.f32.Invalidate()
	}
	if c.f64 != nil {
		c.f64.Invalidate()
	}
}

// Clone returns a deep copy of the compact batch.
func (c *Compact[T]) Clone() *Compact[T] {
	out := &Compact[T]{dt: c.dt}
	if c.f32 != nil {
		out.f32 = c.f32.Clone()
	}
	if c.f64 != nil {
		out.f64 = c.f64.Clone()
	}
	return out
}

// scalarToComplex widens any supported scalar to complex128 for the
// planner.
func scalarToComplex[T Scalar](x T) complex128 {
	switch v := any(x).(type) {
	case float32:
		return complex(float64(v), 0)
	case float64:
		return complex(v, 0)
	case complex64:
		return complex128(v)
	case complex128:
		return v
	}
	return 0
}

// check rejects a nil/empty operand with the engine taxonomy, so
// errors.Is(err, ErrOperand) holds for nil-operand errors from every
// entry point, not just the ones dispatched through the engine.
func (c *Compact[T]) check(name string) error {
	if c == nil || (c.f32 == nil && c.f64 == nil) {
		return fmt.Errorf("iatf: operand %s: %w: nil or empty", name, ErrOperand)
	}
	return nil
}

// PackReplicated returns a compact batch of count logical copies of one
// rows×cols column-major matrix — the shared-operand pattern (a fixed
// operator applied to every matrix of a batch) — without materializing
// the copies in conventional storage first.
func PackReplicated[T Scalar](data []T, rows, cols, count int) (*Compact[T], error) {
	if len(data) < rows*cols {
		return nil, fmt.Errorf("iatf: PackReplicated needs %d elements, got %d", rows*cols, len(data))
	}
	if rows < 1 || cols < 1 || count < 1 {
		return nil, fmt.Errorf("iatf: invalid replicated batch %dx%d count %d", rows, cols, count)
	}
	dt := dtypeOf[T]()
	c := &Compact[T]{dt: dt}
	switch src := any(data).(type) {
	case []float32:
		c.f32 = layout.ReplicateReal(dt, src, rows, cols, count)
	case []float64:
		c.f64 = layout.ReplicateReal(dt, src, rows, cols, count)
	case []complex64:
		c.f32 = layout.ReplicateComplex[complex64, float32](dt, src, rows, cols, count)
	case []complex128:
		c.f64 = layout.ReplicateComplex[complex128, float64](dt, src, rows, cols, count)
	}
	return c, nil
}
