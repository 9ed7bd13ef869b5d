package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iatf/internal/vec"
)

// The width-specialized fast paths and the portable vec-based reference
// forms must agree bit for bit on every kernel shape.

func fill64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

func fill32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()
	}
	return s
}

// gemmAlphas covers the unit scale, a non-trivial scale, the zero scale
// (0·Inf = NaN) and the sign flip (−1·+0 = −0).
var gemmAlphas = []float64{1, 1.5, 0, -1}

// bMode is one way the native executor addresses a K×nc B tile: block
// (l, j) at l·ldbk + j·ldbc blocks.
type bMode struct {
	name       string
	ldbk, ldbc int
}

// bModes are the packed Z-shaped panel, a NoTrans B read in place
// (columns more than K blocks apart) and a Trans B read in place (K
// steps more than nc blocks apart).
func bModes(k, nc int) []bMode {
	return []bMode{{"packed", nc, 1}, {"NoTrans", 1, k + 1}, {"Trans", nc + 2, 1}}
}

// bLen is the length of a B whose last block, (k−1)·ldbk + (nc−1)·ldbc,
// ends at the slice's last element.
func bLen(m bMode, k, nc, bl int) int {
	return ((k-1)*m.ldbk + (nc-1)*m.ldbc + 1) * bl
}

// GEMM must equal the portable reference on ordinary inputs for every
// tile and B addressing mode, and the 4×4 main kernel it runs (generated
// machine code on amd64, in each variant the CPU runs) must match the
// pure-Go kernel it replaces bit for bit on hostile inputs: signed zeros
// agree and a NaN stays a NaN.
func TestGEMMFastMatchesGeneric(t *testing.T) {
	t.Run("f32", func(t *testing.T) { eachGEMMVariant(t, func(t *testing.T) { testGEMMFastMatchesGeneric(t, fill32) }) })
	t.Run("f64", func(t *testing.T) { eachGEMMVariant(t, func(t *testing.T) { testGEMMFastMatchesGeneric(t, fill64) }) })
}

func testGEMMFastMatchesGeneric[E vec.Float](t *testing.T, fill func(*rand.Rand, int) []E) {
	rng := rand.New(rand.NewSource(1))
	for _, vl := range []int{2, 4} {
		pure := gemm44x2[E]
		if vl == 4 {
			pure = gemm44x4[E]
		}
		for mc := 1; mc <= 4; mc++ {
			for nc := 1; nc <= 4; nc++ {
				for _, k := range []int{1, 2, 3, 8, 17} {
					for _, m := range bModes(k, nc) {
						for _, strideC := range []int{mc, mc + 1} {
							for _, ovw := range []bool{false, true} {
								for _, alpha := range gemmAlphas {
									name := fmt.Sprintf("vl=%d %dx%d k=%d B %s strideC=%d ovw=%v alpha=%v", vl, mc, nc, k, m.name, strideC, ovw, alpha)
									pa := fill(rng, k*mc*vl)
									pb := fill(rng, bLen(m, k, nc, vl))
									c := fill(rng, nc*strideC*vl)
									cGen := append([]E(nil), c...)
									GEMMStrided(pa, pb, c, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, E(alpha), ovw)
									gemmGeneric(pa, pb, cGen, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, E(alpha), ovw)
									for i := range c {
										if c[i] != cGen[i] {
											t.Fatalf("%s: fast/generic diverge at %d", name, i)
										}
									}
									if mc != 4 || nc != 4 {
										continue
									}
									for _, p := range []float64{0.05, 0.5, 1} {
										pa := hostile[E](rng, k*mc*vl, p)
										pb := hostile[E](rng, bLen(m, k, nc, vl), p)
										c := hostile[E](rng, nc*strideC*vl, p)
										cPure := append([]E(nil), c...)
										GEMMStrided(pa, pb, c, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, E(alpha), ovw)
										pure(pa, pb, cPure, k, m.ldbk, m.ldbc, strideC, E(alpha), ovw)
										for i := range c {
											if !sameBits(c[i], cPure[i]) {
												t.Fatalf("%s hostile p=%v: C[%d] = %v, pure Go %v", name, p, i, c[i], cPure[i])
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// hostile fills n values of which about a fraction p come from the
// special set (signed zeros, subnormals, infinities, NaN, extremes); the
// rest are ordinary values of either sign.
func hostile[E vec.Float](rng *rand.Rand, n int, p float64) []E {
	tiny, big := math.SmallestNonzeroFloat64, math.MaxFloat64
	var e E
	if _, f32 := any(e).(float32); f32 {
		tiny, big = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	special := []float64{0, math.Copysign(0, -1), tiny, -tiny, 1000 * tiny, math.Inf(1), math.Inf(-1), math.NaN(), big, -big, 1, -1}
	s := make([]E, n)
	for i := range s {
		if rng.Float64() < p {
			s[i] = E(special[rng.Intn(len(special))])
		} else {
			s[i] = E(4*rng.Float64() - 2)
		}
	}
	return s
}

// sameBits is bit equality, except that any NaN matches any NaN.
func sameBits[E vec.Float](x, y E) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

// GEMMCplx must equal the portable reference for every tile, B
// addressing mode and width, with float32 and float64 components: at
// float64 and 2 lanes the 3×2 tile runs the generated z kernel on amd64.
func TestGEMMCplxFastMatchesGeneric(t *testing.T) {
	testGEMMCplxFastMatchesGeneric(t, fill32)
	testGEMMCplxFastMatchesGeneric(t, fill64)
}

func testGEMMCplxFastMatchesGeneric[E vec.Float](t *testing.T, fill func(*rand.Rand, int) []E) {
	rng := rand.New(rand.NewSource(2))
	for _, vl := range []int{2, 4} {
		for mc := 1; mc <= 3; mc++ {
			for nc := 1; nc <= 2; nc++ {
				for _, k := range []int{1, 5} {
					for _, m := range bModes(k, nc) {
						for _, ovw := range []bool{false, true} {
							bl := 2 * vl
							strideC := mc + 1
							pa := fill(rng, k*mc*bl)
							pb := fill(rng, bLen(m, k, nc, bl))
							c := fill(rng, nc*strideC*bl)
							cGen := append([]E(nil), c...)
							GEMMCplxStrided(pa, pb, c, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, 1.5, -0.5, ovw)
							gemmCplxGeneric(pa, pb, cGen, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, 1.5, -0.5, ovw)
							for i := range c {
								if c[i] != cGen[i] {
									t.Fatalf("%T vl=%d %dx%d k=%d B %s ovw=%v: complex fast/generic diverge at %d", c[i], vl, mc, nc, k, m.name, ovw, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// The complex 3×2 main kernel the dispatch runs (generated machine code
// for c at 4 lanes and z at 2 on amd64) must match the pure-Go kernel
// bit for bit on hostile inputs, in every B addressing mode, with C
// columns further apart than the tile's rows, both saves and alpha 1,
// 1.5−0.5i, 0 and −1.
func TestGEMMCplxKernelMatchesGo(t *testing.T) {
	t.Run("c", func(t *testing.T) { testGEMMCplxKernelMatchesGo(t, 4, gemmCplx4[float32]) })
	t.Run("z", func(t *testing.T) { testGEMMCplxKernelMatchesGo(t, 2, gemmCplx2[float64]) })
}

func testGEMMCplxKernelMatchesGo[E vec.Float](t *testing.T, vl int, pure func(pa, pb, c []E, mc, nc, k, ldbk, ldbc, strideC int, alphaRe, alphaIm E, ovw bool)) {
	rng := rand.New(rand.NewSource(6))
	const mc, nc = 3, 2
	bl := 2 * vl
	for k := 1; k <= 9; k++ {
		for _, m := range bModes(k, nc) {
			for _, strideC := range []int{mc, mc + 2} {
				for _, ovw := range []bool{false, true} {
					for _, alpha := range []complex128{1, complex(1.5, -0.5), 0, -1} {
						for _, p := range []float64{0.05, 0.5, 1} {
							pa := hostile[E](rng, k*mc*bl, p)
							pb := hostile[E](rng, bLen(m, k, nc, bl), p)
							c := hostile[E](rng, nc*strideC*bl, p)
							cPure := append([]E(nil), c...)
							re, im := E(real(alpha)), E(imag(alpha))
							GEMMCplxStrided(pa, pb, c, mc, nc, k, m.ldbk, m.ldbc, strideC, vl, re, im, ovw)
							pure(pa, pb, cPure, mc, nc, k, m.ldbk, m.ldbc, strideC, re, im, ovw)
							for i := range c {
								if !sameBits(c[i], cPure[i]) {
									t.Fatalf("k=%d B %s strideC=%d ovw=%v alpha=%v p=%v: C[%d] = %v, pure Go %v",
										k, m.name, strideC, ovw, alpha, p, i, c[i], cPure[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// bLayout is one way the blocked triangular routines address a group's
// B (core's TriGeom.BStrides): canonical block (i, j) at o + i·rs + j·cs
// of a compact B of the given block count.
type bLayout struct {
	name      string
	o, rs, cs int
	blocks    int
}

// bLayouts are the four layouts of a canonical operand of m rows and n
// columns, stored with pad spare rows (Left: B is (m+pad)×n, canonical
// rows are B's rows, reversed when upper) or pad spare B rows (Right: B
// is (n+pad)×m, canonical rows are B's columns, reversed when upper).
// For one n and pad every layout's rs is the same whatever m is.
func bLayouts(m, n, pad int) []bLayout {
	r, c := m+pad, n+pad
	return []bLayout{
		{"left-lower", 0, 1, r, r * n},
		{"left-upper", r - 1, -1, r, r * n},
		{"right-lower", 0, c, 1, c * m},
		{"right-upper", (m - 1) * c, -c, 1, c * m},
	}
}

// The width-specialized triangles must equal the portable reference bit
// for bit in every B layout, on ordinary and hostile values.
func TestTriFastMatchesGeneric(t *testing.T) {
	t.Run("f32", func(t *testing.T) { testTriFastMatchesGeneric[float32](t) })
	t.Run("f64", func(t *testing.T) { testTriFastMatchesGeneric[float64](t) })
}

func testTriFastMatchesGeneric[E vec.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, vl := range []int{2, 4} {
		for m := 1; m <= 5; m++ {
			for _, ncols := range []int{1, 3} {
				for _, p := range []float64{0, 0.05, 0.5} {
					for _, lay := range bLayouts(m, ncols, 2) {
						// Reciprocal-style diagonal values are already
						// arbitrary multipliers for the equivalence check.
						pa := hostile[E](rng, m*(m+1)/2*vl, p)
						b := hostile[E](rng, lay.blocks*vl, p)
						bGen := append([]E(nil), b...)
						TriStrided(pa, b, lay.o, m, ncols, lay.rs, lay.cs, vl)
						triGeneric(pa, bGen, lay.o, m, ncols, lay.rs, lay.cs, vl)
						for i := range b {
							if !sameBits(b[i], bGen[i]) {
								t.Fatalf("vl=%d m=%d ncols=%d %s p=%v: tri fast/generic diverge at %d", vl, m, ncols, lay.name, p, i)
							}
						}
					}
				}
			}
		}
	}
}

// The width-specialized rectangles, RectStrided's (FMLS) and RectAdd's
// (FMLA), must equal the portable references bit for bit: every tile up
// to 4×4, f32 and f64, K 1, 4, 8 and 12, in every B layout, on ordinary
// and hostile values, with C apart from X and with C inside X's own
// column tile below its K rows, as triWorker calls them.
func TestRectFastMatchesGeneric(t *testing.T) {
	t.Run("f32", func(t *testing.T) { testRectFastMatchesGeneric(t, RectStrided[float32], rectGeneric[float32]) })
	t.Run("f64", func(t *testing.T) { testRectFastMatchesGeneric(t, RectStrided[float64], rectGeneric[float64]) })
}

func TestRectAddFastMatchesGeneric(t *testing.T) {
	t.Run("f32", func(t *testing.T) { testRectFastMatchesGeneric(t, rectAddGo[float32], rectAddGeneric[float32]) })
	t.Run("f64", func(t *testing.T) { testRectFastMatchesGeneric(t, rectAddGo[float64], rectAddGeneric[float64]) })
}

// rectAddGo is RectAdd without the generated kernel: the pure-Go
// rectangle of vl's width.
func rectAddGo[E vec.Float](pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int) {
	if vl == 4 {
		rectAdd4(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX)
	} else {
		rectAdd2(pa, x, c, xo, co, mc, nc, k, rs, strideC, strideX)
	}
}

type rectKernel[E vec.Float] func(pa, x, c []E, xo, co, mc, nc, k, rs, strideC, strideX, vl int)

func testRectFastMatchesGeneric[E vec.Float](t *testing.T, fast, generic rectKernel[E]) {
	rng := rand.New(rand.NewSource(4))
	same := func(name string, got, want []E) {
		t.Helper()
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: element %d = %v, generic %v", name, i, got[i], want[i])
			}
		}
	}
	for _, vl := range []int{2, 4} {
		for _, k := range []int{1, 4, 8, 12} {
			for _, p := range []float64{0, 0.05, 0.5} {
				for mc := 1; mc <= 4; mc++ {
					for nc := 1; nc <= 4; nc++ {
						// C rows [r0, r0+mc) of X's own columns, r0 ≥ k.
						r0 := k + mc%2
						xs, cs, tiles := bLayouts(k, nc, 1), bLayouts(mc, nc, 1), bLayouts(r0+mc, nc, 1)
						for i := range xs {
							lx, lc, lt := xs[i], cs[i], tiles[i]
							name := fmt.Sprintf("vl=%d %dx%d k=%d %s hostile p=%v", vl, mc, nc, k, lx.name, p)
							pa := hostile[E](rng, k*mc*vl, p)
							x := hostile[E](rng, lx.blocks*vl, p)
							c := hostile[E](rng, lc.blocks*vl, p)
							want := append([]E(nil), c...)
							fast(pa, x, c, lx.o, lc.o, mc, nc, k, lx.rs, lc.cs, lx.cs, vl)
							generic(pa, x, want, lx.o, lc.o, mc, nc, k, lx.rs, lc.cs, lx.cs, vl)
							same(name, c, want)

							col := hostile[E](rng, lt.blocks*vl, p)
							want = append([]E(nil), col...)
							co := lt.o + r0*lt.rs
							fast(pa, col, col, lt.o, co, mc, nc, k, lt.rs, lt.cs, lt.cs, vl)
							generic(pa, want, want, lt.o, co, mc, nc, k, lt.rs, lt.cs, lt.cs, vl)
							same(name+" column tile", col, want)
						}
					}
				}
			}
		}
	}
}

func TestOverwriteSave(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const mc, nc, k, vl = 4, 4, 3, 4
	pa := fill32(rng, k*mc*vl)
	pb := fill32(rng, k*nc*vl)
	c := fill32(rng, nc*mc*vl)
	acc := append([]float32(nil), c...)
	GEMM(pa, pb, c, mc, nc, k, mc, vl, 2.0, true) // overwrite
	GEMM(pa, pb, acc, mc, nc, k, mc, vl, 2.0, false)
	// acc = orig + 2AB; c = 2AB; they must differ by exactly orig.
	for i := range c {
		if acc[i] == c[i] {
			t.Fatalf("overwrite ignored prior C at %d", i)
		}
	}
	// A second overwrite run is idempotent.
	c2 := append([]float32(nil), c...)
	GEMM(pa, pb, c2, mc, nc, k, mc, vl, 2.0, true)
	for i := range c {
		if c[i] != c2[i] {
			t.Fatalf("overwrite not idempotent at %d", i)
		}
	}
}
