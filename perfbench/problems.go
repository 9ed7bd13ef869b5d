package main

import (
	"fmt"
	"math/rand"

	"iatf/internal/matrix"
)

type opKind int

const (
	opGEMM opKind = iota
	opTRSM
	opTRMM
	opSYRK
)

func (o opKind) String() string {
	return [...]string{"gemm", "trsm", "trmm", "syrk"}[o]
}

// problem is one distinct (op, dtype, modes, shape, count) the workloads
// send. Shapes follow BLAS: GEMM C is m×n with reduction k; TRSM/TRMM
// update B (m×n) with the m×m triangle; SYRK writes C (n×n) from A (n×k).
type problem struct {
	op             opKind
	dt             byte // 's', 'd' or 'z'
	m, n, k        int
	transA, transB bool
	upper, unit    bool // triangular operand of TRSM/TRMM
	count          int
}

func (p problem) name() string {
	s := fmt.Sprintf("%s_%c", p.op, p.dt)
	if p.transA || p.transB {
		s += "_" + modeLetter(p.transA) + modeLetter(p.transB)
	}
	if p.op == opTRSM || p.op == opTRMM {
		if p.upper {
			s += "_u"
		}
		if p.unit {
			s += "_unit"
		}
	}
	switch {
	case p.op == opSYRK && p.n == p.k:
		return fmt.Sprintf("%s_%d", s, p.n)
	case p.op == opSYRK:
		return fmt.Sprintf("%s_%dx%d", s, p.n, p.k)
	case p.m == p.n && (p.op != opGEMM || p.k == p.m):
		return fmt.Sprintf("%s_%d", s, p.m)
	}
	return fmt.Sprintf("%s_%dx%dx%d", s, p.m, p.n, p.k)
}

func modeLetter(t bool) string {
	if t {
		return "t"
	}
	return "n"
}

// flops is the useful floating-point work of one call (the core's
// formulas: 2mnk for GEMM, m²n for a left triangular op, n(n+1)k for
// SYRK; complex multiply-adds count 8).
func (p problem) flops() float64 {
	fpe := 2.0
	if p.dt == 'z' {
		fpe = 8
	}
	m, n, k, c := float64(p.m), float64(p.n), float64(p.k), float64(p.count)
	switch p.op {
	case opGEMM:
		return fpe * m * n * k * c
	case opSYRK:
		return fpe / 2 * n * (n + 1) * k * c
	}
	return fpe / 2 * m * m * n * c
}

func elemBytes(dt byte) int {
	switch dt {
	case 's':
		return 4
	case 'z':
		return 16
	}
	return 8
}

// footprintBytes is the conventional-storage size of every operand of
// one call.
func (p problem) footprintBytes() int {
	var elems int
	switch p.op {
	case opGEMM:
		elems = p.m*p.k + p.k*p.n + p.m*p.n
	case opSYRK:
		elems = p.n*p.k + p.n*p.n
	default:
		elems = p.m*p.m + p.m*p.n
	}
	return elems * p.count * elemBytes(p.dt)
}

// Operand dims in column-major storage.
func (p problem) aDims() (int, int) {
	switch p.op {
	case opGEMM:
		if p.transA {
			return p.k, p.m
		}
		return p.m, p.k
	case opSYRK:
		return p.n, p.k
	}
	return p.m, p.m
}

func (p problem) bDims() (int, int) {
	if p.op == opGEMM {
		if p.transB {
			return p.n, p.k
		}
		return p.k, p.n
	}
	return p.m, p.n
}

func (p problem) cDims() (int, int) {
	if p.op == opSYRK {
		return p.n, p.n
	}
	return p.m, p.n
}

// modes returns the triangle's stored half and diagonal of a TRSM/TRMM.
func (p problem) modes() (matrix.Uplo, matrix.Diag) {
	uplo, diag := matrix.Lower, matrix.NonUnit
	if p.upper {
		uplo = matrix.Upper
	}
	if p.unit {
		diag = matrix.Unit
	}
	return uplo, diag
}

// randA returns a seeded A operand: well-conditioned triangles for
// TRSM/TRMM, uniform values otherwise.
func randA[T scalar](rng *rand.Rand, p problem) []T {
	if p.op == opTRSM || p.op == opTRMM {
		return randTriangles[T](rng, p.count, p.m, p.upper, p.unit)
	}
	r, c := p.aDims()
	return randVals[T](rng, p.count*r*c)
}

// randVals fills n values uniform in [-1, 1).
func randVals[T scalar](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = fromParts[T](2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return out
}

// fromParts builds a T from real and imaginary parts (the imaginary part
// is dropped for real types).
func fromParts[T scalar](re, im float64) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(re)).(T)
	case float64:
		return any(re).(T)
	default:
		return any(complex(re, im)).(T)
	}
}

// randTriangles returns count well-conditioned n×n triangles: a diagonal
// of magnitude in [1.5, 2.5] (1 when unit) and off-diagonal entries below
// 0.5/n, so every triangle is strictly diagonally dominant and repeated
// solve/multiply pairs stay near their inputs. The unused triangle is
// filled with noise the routines must ignore.
func randTriangles[T scalar](rng *rand.Rand, count, n int, upper, unit bool) []T {
	out := make([]T, count*n*n)
	for v := 0; v < count; v++ {
		m := out[v*n*n : (v+1)*n*n]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				inTri := (i > j && !upper) || (i < j && upper)
				switch {
				case i == j:
					d := 1.5 + rng.Float64()
					if rng.Intn(2) == 0 {
						d = -d
					}
					if unit {
						d = 1
					}
					m[j*n+i] = fromParts[T](d, 0)
				case inTri:
					s := 0.5 / float64(n)
					m[j*n+i] = fromParts[T](s*(2*rng.Float64()-1), s*(2*rng.Float64()-1))
				default:
					m[j*n+i] = fromParts[T](7*rng.Float64(), 0)
				}
			}
		}
	}
	return out
}
