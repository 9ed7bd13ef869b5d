// Package layout implements the SIMD-friendly data layout (Kim et al.,
// SC'17) that IATF builds on: element (i,j) of P consecutive matrices is
// stored contiguously, so a single 128-bit vector load fills a register with
// the same element of P matrices (Figure 3 of the paper). P is the
// interleave factor of the data type: 4 for single precision, 2 for double.
//
// Complex matrices are stored as split planes: for each (i,j) the P real
// components are followed by the P imaginary components, so a complex
// element block occupies 2P real elements and the kernels consume one
// re-register and one im-register per load pair.
package layout

import (
	"fmt"
	"sync/atomic"

	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Compact is a batch of Count equally sized matrices in SIMD-friendly
// layout. E is the real component type (float32 for S/C, float64 for D/Z).
//
// Storage order: matrices are split into ceil(Count/P) groups of P. Within a
// group the matrix is column-major by element block, and each element block
// holds the P interleaved lanes (re plane then im plane for complex types):
//
//	offset(g, i, j, lane) = g·GroupLen + ((j·Rows + i)·comps)·P + lane
//
// Lanes of the final group beyond Count are zero padding, as in the paper.
type Compact[E vec.Float] struct {
	Type       vec.DType
	Count      int // number of real (non-padding) matrices
	Rows, Cols int
	Data       []E

	// prepackID/prepackGen are the reuse identity for the engine's
	// packed-operand cache: id 0 means the batch has not opted into pack
	// reuse; a nonzero id plus the current generation key cached packed
	// images of this batch. Plain words manipulated through sync/atomic
	// (not atomic.Uint64) so Clone's struct copy stays legal under vet.
	prepackID  uint64
	prepackGen uint64
}

// prepackIDs hands out process-unique reuse identities.
var prepackIDs uint64

// EnablePrepack opts the batch into packed-operand reuse, assigning a
// process-unique identity on first call. Safe for concurrent use;
// idempotent.
func (c *Compact[E]) EnablePrepack() {
	if atomic.LoadUint64(&c.prepackID) != 0 {
		return
	}
	id := atomic.AddUint64(&prepackIDs, 1)
	atomic.CompareAndSwapUint64(&c.prepackID, 0, id)
}

// PrepackState returns the batch's reuse identity and current
// generation. id 0 means reuse is not enabled.
func (c *Compact[E]) PrepackState() (id, gen uint64) {
	return atomic.LoadUint64(&c.prepackID), atomic.LoadUint64(&c.prepackGen)
}

// Invalidate bumps the generation after the caller mutated Data, so
// cached packed images of the previous contents stop matching. A no-op
// until EnablePrepack.
func (c *Compact[E]) Invalidate() {
	if atomic.LoadUint64(&c.prepackID) != 0 {
		atomic.AddUint64(&c.prepackGen, 1)
	}
}

// NewCompact allocates a zeroed compact batch. It panics if E does not
// match the real component type of dt, since that mismatch is always a
// programming error.
func NewCompact[E vec.Float](dt vec.DType, count, rows, cols int) *Compact[E] {
	var e E
	_, isF32 := any(e).(float32)
	if isF32 != (dt.Real() == vec.S) {
		panic(fmt.Sprintf("layout: element type %T does not match dtype %v", e, dt))
	}
	if count < 0 || rows < 0 || cols < 0 {
		panic("layout: negative dimension")
	}
	c := &Compact[E]{Type: dt, Count: count, Rows: rows, Cols: cols}
	c.Data = make([]E, c.Groups()*c.GroupLen())
	return c
}

// P returns the interleave factor (matrices per vector register).
func (c *Compact[E]) P() int { return c.Type.Pack() }

// Comps returns the number of real components per element (2 for complex).
func (c *Compact[E]) Comps() int {
	if c.Type.IsComplex() {
		return 2
	}
	return 1
}

// BlockLen returns the storage footprint in E elements of one matrix
// element across the group: P·Comps.
func (c *Compact[E]) BlockLen() int { return c.P() * c.Comps() }

// Groups returns the number of P-matrix groups, including the padded tail.
func (c *Compact[E]) Groups() int { return (c.Count + c.P() - 1) / c.P() }

// GroupLen returns the number of E elements one group occupies.
func (c *Compact[E]) GroupLen() int { return c.Rows * c.Cols * c.BlockLen() }

// Index returns the offset of the real-plane lane 0 of element (i, j) in
// group g. The imaginary plane, when present, starts P elements later.
func (c *Compact[E]) Index(g, i, j int) int {
	return g*c.GroupLen() + (j*c.Rows+i)*c.BlockLen()
}

// At returns the (re, im) components of element (i, j) of matrix v. im is
// zero for real types.
func (c *Compact[E]) At(v, i, j int) (re, im E) {
	g, lane := v/c.P(), v%c.P()
	off := c.Index(g, i, j) + lane
	re = c.Data[off]
	if c.Type.IsComplex() {
		im = c.Data[off+c.P()]
	}
	return re, im
}

// Set assigns the (re, im) components of element (i, j) of matrix v.
func (c *Compact[E]) Set(v, i, j int, re, im E) {
	g, lane := v/c.P(), v%c.P()
	off := c.Index(g, i, j) + lane
	c.Data[off] = re
	if c.Type.IsComplex() {
		c.Data[off+c.P()] = im
	}
}

// Clone returns a deep copy. The copy does not inherit the reuse
// identity: it is a distinct value that may diverge from the original.
func (c *Compact[E]) Clone() *Compact[E] {
	out := *c
	out.prepackID, out.prepackGen = 0, 0
	out.Data = make([]E, len(c.Data))
	copy(out.Data, c.Data)
	return &out
}

// FromBatch converts a conventional real-typed batch into compact layout.
// The conversion is an interleaving transpose done with direct index
// arithmetic — it runs at memory speed, since packing a large batch is on
// the application's critical path.
func FromBatch[E vec.Float](dt vec.DType, b *matrix.Batch[E]) *Compact[E] {
	if dt.IsComplex() {
		panic("layout: FromBatch requires a real dtype; use FromBatchComplex")
	}
	c := NewCompact[E](dt, b.Count, b.Rows, b.Cols)
	p := c.P()
	ml := b.Rows * b.Cols
	for g := 0; g < c.Groups(); g++ {
		lanes := b.Count - g*p
		if lanes > p {
			lanes = p
		}
		dst := c.Data[g*c.GroupLen():]
		for lane := 0; lane < lanes; lane++ {
			src := b.Data[(g*p+lane)*ml : (g*p+lane+1)*ml]
			for e, x := range src {
				dst[e*p+lane] = x
			}
		}
	}
	return c
}

// ToBatch converts a real-typed compact batch back to conventional layout,
// dropping padding lanes.
func ToBatch[E vec.Float](c *Compact[E]) *matrix.Batch[E] {
	if c.Type.IsComplex() {
		panic("layout: ToBatch requires a real dtype; use ToBatchComplex")
	}
	b := matrix.NewBatch[E](c.Count, c.Rows, c.Cols)
	p := c.P()
	ml := c.Rows * c.Cols
	for g := 0; g < c.Groups(); g++ {
		lanes := c.Count - g*p
		if lanes > p {
			lanes = p
		}
		src := c.Data[g*c.GroupLen():]
		for lane := 0; lane < lanes; lane++ {
			dst := b.Data[(g*p+lane)*ml : (g*p+lane+1)*ml]
			for e := range dst {
				dst[e] = src[e*p+lane]
			}
		}
	}
	return b
}

// Complex is the set of complex scalar types.
type Complex interface {
	~complex64 | ~complex128
}

// splitComplex returns the components of a complex scalar as float64
// (real/imag do not yet operate on type parameters, go.dev/issue/50937).
func splitComplex[T Complex](x T) (re, im float64) {
	switch v := any(x).(type) {
	case complex64:
		return float64(real(v)), float64(imag(v))
	case complex128:
		return real(v), imag(v)
	}
	return 0, 0
}

// FromBatchComplex converts a conventional complex batch into split-plane
// compact layout. T and E must correspond (complex64↔float32,
// complex128↔float64); dt selects which.
func FromBatchComplex[T Complex, E vec.Float](dt vec.DType, b *matrix.Batch[T]) *Compact[E] {
	if !dt.IsComplex() {
		panic("layout: FromBatchComplex requires a complex dtype")
	}
	c := NewCompact[E](dt, b.Count, b.Rows, b.Cols)
	p := c.P()
	ml := b.Rows * b.Cols
	for g := 0; g < c.Groups(); g++ {
		lanes := b.Count - g*p
		if lanes > p {
			lanes = p
		}
		dst := c.Data[g*c.GroupLen():]
		for lane := 0; lane < lanes; lane++ {
			src := b.Data[(g*p+lane)*ml : (g*p+lane+1)*ml]
			for e, x := range src {
				re, im := splitComplex(x)
				dst[e*2*p+lane] = E(re)
				dst[e*2*p+p+lane] = E(im)
			}
		}
	}
	return c
}

// ToBatchComplex converts a split-plane compact batch back to a
// conventional complex batch, dropping padding lanes.
func ToBatchComplex[T Complex, E vec.Float](c *Compact[E]) *matrix.Batch[T] {
	if !c.Type.IsComplex() {
		panic("layout: ToBatchComplex requires a complex dtype")
	}
	b := matrix.NewBatch[T](c.Count, c.Rows, c.Cols)
	p := c.P()
	ml := c.Rows * c.Cols
	for g := 0; g < c.Groups(); g++ {
		lanes := c.Count - g*p
		if lanes > p {
			lanes = p
		}
		src := c.Data[g*c.GroupLen():]
		for lane := 0; lane < lanes; lane++ {
			dst := b.Data[(g*p+lane)*ml : (g*p+lane+1)*ml]
			for e := range dst {
				dst[e] = T(complex(float64(src[e*2*p+lane]), float64(src[e*2*p+p+lane])))
			}
		}
	}
	return b
}

// ReplicateReal builds a compact batch whose every matrix equals the
// given rows×cols column-major source — the shared-operator pattern
// (e.g. one differentiation matrix applied to thousands of elements) —
// without materializing count conventional copies. Padding lanes carry
// the same value; they are never unpacked.
func ReplicateReal[E vec.Float](dt vec.DType, src []E, rows, cols, count int) *Compact[E] {
	if dt.IsComplex() {
		panic("layout: ReplicateReal requires a real dtype")
	}
	c := NewCompact[E](dt, count, rows, cols)
	p := c.P()
	g0 := c.Data[:c.GroupLen()]
	for e, x := range src[:rows*cols] {
		for lane := 0; lane < p; lane++ {
			g0[e*p+lane] = x
		}
	}
	for g := 1; g < c.Groups(); g++ {
		copy(c.Data[g*c.GroupLen():(g+1)*c.GroupLen()], g0)
	}
	return c
}

// ReplicateComplex is ReplicateReal for complex sources.
func ReplicateComplex[T Complex, E vec.Float](dt vec.DType, src []T, rows, cols, count int) *Compact[E] {
	if !dt.IsComplex() {
		panic("layout: ReplicateComplex requires a complex dtype")
	}
	c := NewCompact[E](dt, count, rows, cols)
	p := c.P()
	g0 := c.Data[:c.GroupLen()]
	for e, x := range src[:rows*cols] {
		re, im := splitComplex(x)
		for lane := 0; lane < p; lane++ {
			g0[e*2*p+lane] = E(re)
			g0[e*2*p+p+lane] = E(im)
		}
	}
	for g := 1; g < c.Groups(); g++ {
		copy(c.Data[g*c.GroupLen():(g+1)*c.GroupLen()], g0)
	}
	return c
}
