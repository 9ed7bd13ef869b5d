package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"iatf/internal/matrix"
)

// Stated tolerances. refTol bounds the library against the internal/matrix
// triple-loop reference (max abs error over max(1, max |want|)); roundTripTol
// bounds a TRSM→TRMM pair's return of B to its start, accumulated over
// every step of a run, on triangles whose diagonal dominates.
const (
	refTolS      = 1e-4
	refTolD      = 1e-10
	roundTripTol = 1e-9
)

func refTol(dt byte) float64 {
	if dt == 's' {
		return refTolS
	}
	return refTolD
}

// bitEqual reports whether got and want hold identical bit patterns
// (so -0 ≠ +0 and NaN payloads count), and the first differing index.
func bitEqual[T scalar](got, want []T) (bool, int) {
	if len(got) != len(want) {
		return false, -1
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return false, i
		}
	}
	return true, 0
}

func sameBits[T scalar](a, b T) bool {
	switch x := any(a).(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	default:
		y := any(b).(complex128)
		return math.Float64bits(real(x.(complex128))) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x.(complex128))) == math.Float64bits(imag(y))
	}
}

func abs[T scalar](v T) float64 {
	switch x := any(v).(type) {
	case float32:
		return math.Abs(float64(x))
	case float64:
		return math.Abs(x)
	default:
		return cmplx.Abs(x.(complex128))
	}
}

// relErr is max |got − want| over max(1, max |want|); NaN or a length
// mismatch reads as +Inf.
func relErr[T scalar](got, want []T) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	scale, worst := 1.0, 0.0
	for i := range want {
		scale = math.Max(scale, abs(want[i]))
		d := abs(got[i] - want[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst / scale
}

// checkClose returns an error naming what when got is not within tol of
// want.
func checkClose[T scalar](what string, got, want []T, tol float64) error {
	if e := relErr(got, want); !(e <= tol) {
		return fmt.Errorf("%s: relative error %.3g exceeds %.1g", what, e, tol)
	}
	return nil
}

func checkBits[T scalar](what string, got, want []T) error {
	if ok, i := bitEqual(got, want); !ok {
		if i < 0 {
			return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
		}
		return fmt.Errorf("%s: value %d is %v, want %v bit for bit", what, i, got[i], want[i])
	}
	return nil
}

// reference computes one call's written operand with the internal/matrix
// triple loops from conventional inputs (c is the written operand's
// start value and is not modified).
func reference[T scalar](p problem, a, b, c []T) []T {
	ar, ac := p.aDims()
	A := batchOf(a, p.count, ar, ac)
	switch p.op {
	case opGEMM:
		br, bc := p.bDims()
		cr, cc := p.cDims()
		C := batchOf(c, p.count, cr, cc)
		matrix.RefGEMMBatch(transOf(p.transA), transOf(p.transB), T(1), A, batchOf(b, p.count, br, bc), T(0), C)
		return C.Data
	case opSYRK:
		cr, cc := p.cDims()
		C := batchOf(c, p.count, cr, cc)
		matrix.RefSYRKBatch(matrix.Lower, matrix.NoTrans, T(1), A, T(0), C)
		return C.Data
	}
	br, bc := p.bDims()
	B := batchOf(b, p.count, br, bc)
	uplo, diag := p.modes()
	if p.op == opTRSM {
		matrix.RefTRSMBatch(matrix.Left, uplo, matrix.NoTrans, diag, T(1), A, B)
	} else {
		matrix.RefTRMMBatch(matrix.Left, uplo, matrix.NoTrans, diag, T(1), A, B)
	}
	return B.Data
}

func batchOf[T scalar](data []T, count, rows, cols int) *matrix.Batch[T] {
	b := matrix.NewBatch[T](count, rows, cols)
	copy(b.Data, data)
	return b
}

func transOf(t bool) matrix.Trans {
	if t {
		return matrix.Transpose
	}
	return matrix.NoTrans
}
