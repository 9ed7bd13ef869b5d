package kernels

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"iatf/internal/asm"
	"iatf/internal/ktmpl"
	"iatf/internal/vec"
)

// gemm_amd64.s must be exactly what the ktmpl templates lower to today,
// so the machine code cannot drift from the kernels the VM validates.
func TestGEMMAssemblyIsRegenerated(t *testing.T) {
	want, err := ktmpl.GenGEMMAMD64()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("gemm_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gemm_amd64.s is stale: run go generate ./internal/kernels")
	}
}

// In every variant, the 4×4 main kernel GEMMStrided runs matches, bit
// for bit on hostile values, the VM running the ktmpl loop pieces it is
// lowered from: Zero, k Steps reading B in place, then Save or SaveOvw.
func TestGEMMMainKernelMatchesVM(t *testing.T) {
	eachGEMMVariant(t, func(t *testing.T) {
		t.Run("f32", func(t *testing.T) { testGEMMMainKernelMatchesVM[float32](t, vec.S, 4) })
		t.Run("f64", func(t *testing.T) { testGEMMMainKernelMatchesVM[float64](t, vec.D, 2) })
	})
}

func testGEMMMainKernelMatchesVM[E vec.Float](t *testing.T, dt vec.DType, vl int) {
	rng := rand.New(rand.NewSource(31))
	const strideC = 5
	for _, k := range []int{1, 4, 7} {
		ldbc := k + 1 // a NoTrans B read in place
		l, err := ktmpl.GenGEMMLoop(ktmpl.GEMMSpec{DT: dt, MC: 4, NC: 4, StrideC: strideC}, ldbc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ovw := range []bool{false, true} {
			prog := append(asm.Prog(nil), l.Zero...)
			for i := 0; i < k; i++ {
				prog = append(prog, l.Step...)
			}
			if ovw {
				prog = append(prog, l.SaveOvw...)
			} else {
				prog = append(prog, l.Save...)
			}
			for _, p := range []float64{0.05, 0.5, 1} {
				for _, alpha := range gemmAlphas {
					name := fmt.Sprintf("k=%d ovw=%v hostile p=%v alpha=%v", k, ovw, p, alpha)
					na, nb, nc := 4*k*vl, (3*ldbc+k)*vl, (3*strideC+4)*vl
					mem := hostile[E](rng, na+nb+nc+1, p)
					mem[na+nb+nc] = E(alpha)
					c := append([]E(nil), mem[na+nb:na+nb+nc]...)
					GEMMStrided(mem[:na], mem[na:na+nb], c, 4, 4, k, 1, ldbc, strideC, vl, E(alpha), ovw)
					vm := &asm.VM[E]{Mem: mem}
					vm.P[asm.PB], vm.P[asm.PC], vm.P[asm.PAlpha] = na, na+nb, na+nb+nc
					if err := vm.Run(prog); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, v := range c {
						if !sameBits(v, mem[na+nb+i]) {
							t.Fatalf("%s: C[%d] = %v, VM %v", name, i, v, mem[na+nb+i])
						}
					}
				}
			}
		}
	}
}

// The generated kernel serves exactly the native-width 4×4 tile of a
// build that has it (Backend), in each variant the CPU runs and every B
// addressing mode, also when B's last block is the slice's last element;
// VL overrides, k = 0, overlapping C columns, negative strides and a C
// sharing memory with pa or pb stay on pure Go.
func TestGEMMMainKernelDispatch(t *testing.T) {
	eachGEMMVariant(t, testGEMMMainKernelDispatch)
}

func testGEMMMainKernelDispatch(t *testing.T) {
	native := Backend != "purego"
	s := make([]float32, 3*4*4*8)
	d := make([]float64, 3*4*4*8)
	sa, sb, sc := s[:128], s[128:256], s[256:]
	da, db, dc := d[:64], d[64:128], d[128:]
	const k = 2
	cases := []struct {
		name      string
		run       func() bool
		generated bool
	}{
		{"f32 vl=4", func() bool { return gemm44asm(sa, sb, sc, k, 4, 1, 4, 4, 1, false) }, native},
		{"f64 vl=2", func() bool { return gemm44asm(da, db, dc, k, 4, 1, 5, 2, 1, true) }, native},
		{"f32 vl=2", func() bool { return gemm44asm(sa, sb, sc, k, 4, 1, 4, 2, 1, false) }, false},
		{"f64 vl=4", func() bool { return gemm44asm(da, db, dc, k, 4, 1, 4, 4, 1, false) }, false},
		{"k=0", func() bool { return gemm44asm(sa, sb, sc, 0, 4, 1, 4, 4, 1, false) }, false},
		{"strideC=3", func() bool { return gemm44asm(da, db, dc, k, 4, 1, 3, 2, 1, false) }, false},
		{"ldbk<0", func() bool { return gemm44asm(da, db[40:], dc, k, -1, 1, 4, 2, 1, false) }, false},
		{"ldbc<0", func() bool { return gemm44asm(da, db[40:], dc, k, 4, -1, 4, 2, 1, false) }, false},
		{"C is A", func() bool { return gemm44asm(sa, sb, sa, k, 4, 1, 4, 4, 1, false) }, false},
		{"C overlaps B", func() bool { return gemm44asm(da, db, d[79:], k, 4, 1, 4, 2, 1, true) }, false},
		{"C overlaps B's last column", func() bool { return gemm44asm(da, d[64:], d[64+2*(3*9+1):], k, 1, 9, 4, 2, 1, true) }, false},
	}
	for _, m := range bModes(k, 4) {
		n := bLen(m, k, 4, 2)
		cases = append(cases, struct {
			name      string
			run       func() bool
			generated bool
		}{"f64 B " + m.name + " ending the slice", func() bool { return gemm44asm(da, db[:n], dc, k, m.ldbk, m.ldbc, 4, 2, 1, false) }, native})
	}
	for _, tc := range cases {
		if got := tc.run(); got != tc.generated {
			t.Errorf("%s: generated kernel ran = %v, want %v (Backend %q)", tc.name, got, tc.generated, Backend)
		}
	}
}

// The generated complex kernels serve exactly the 3×2 tile, c at 4
// lanes and z at 2, in every B addressing mode, also when B's last block
// is the slice's last element; mismatched widths, k = 0, overlapping C
// columns and a C sharing memory with pa or pb stay on pure Go.
func TestGEMMCplxMainKernelDispatch(t *testing.T) {
	native := Backend != "purego"
	s := make([]float32, 1024)
	d := make([]float64, 1024)
	const k = 3
	sa, sb, sc := s[:3*k*8], s[256:], s[768:]
	da, db, dc := d[:3*k*4], d[256:], d[768:]
	cases := []struct {
		name      string
		run       func() bool
		generated bool
	}{
		{"c vl=4", func() bool { return gemm32asm(sa, sb, sc, k, 2, 1, 3, 4, 1, 0, false) }, native},
		{"z vl=2", func() bool { return gemm32asm(da, db, dc, k, 2, 1, 4, 2, 1.5, -0.5, true) }, native},
		{"c vl=2", func() bool { return gemm32asm(sa, sb, sc, k, 2, 1, 3, 2, 1, 0, false) }, false},
		{"z vl=4", func() bool { return gemm32asm(da, db, dc, k, 2, 1, 3, 4, 1, 0, false) }, false},
		{"k=0", func() bool { return gemm32asm(da, db, dc, 0, 2, 1, 3, 2, 1, 0, false) }, false},
		{"strideC=2", func() bool { return gemm32asm(da, db, dc, k, 2, 1, 2, 2, 1, 0, false) }, false},
		{"C is A", func() bool { return gemm32asm(da, db, da, k, 2, 1, 3, 2, 1, 0, false) }, false},
		{"C overlaps B", func() bool { return gemm32asm(sa, sb, s[256+8*5:], k, 2, 1, 3, 4, 1, 0, true) }, false},
	}
	for _, m := range bModes(k, 2) {
		ns, nd := bLen(m, k, 2, 8), bLen(m, k, 2, 4)
		cases = append(cases, []struct {
			name      string
			run       func() bool
			generated bool
		}{
			{"c B " + m.name + " ending the slice", func() bool { return gemm32asm(sa, sb[:ns], sc, k, m.ldbk, m.ldbc, 3, 4, 1, 0, false) }, native},
			{"z B " + m.name + " ending the slice", func() bool { return gemm32asm(da, db[:nd], dc, k, m.ldbk, m.ldbc, 3, 2, 1, 0, false) }, native},
		}...)
	}
	for _, tc := range cases {
		if got := tc.run(); got != tc.generated {
			t.Errorf("%s: generated kernel ran = %v, want %v (Backend %q)", tc.name, got, tc.generated, Backend)
		}
	}
}

// In each variant and every B addressing mode, an operand one element
// short panics before any main kernel, real or complex, writes C;
// operands of exactly the right length, B's last block ending the slice,
// run.
func TestGEMMMainKernelBoundsChecked(t *testing.T) {
	eachGEMMVariant(t, testGEMMMainKernelBoundsChecked)
}

func testGEMMMainKernelBoundsChecked(t *testing.T) {
	const k, strideC, vl = 3, 5, 2
	for _, tc := range []struct {
		name   string
		mc, nc int
		bl     int
		run    func(ops [][]float64, m bMode)
	}{
		{"real 4x4", 4, 4, vl, func(o [][]float64, m bMode) {
			GEMMStrided(o[0], o[1], o[2], 4, 4, k, m.ldbk, m.ldbc, strideC, vl, 1, false)
		}},
		{"complex 3x2", 3, 2, 2 * vl, func(o [][]float64, m bMode) {
			GEMMCplxStrided(o[0], o[1], o[2], 3, 2, k, m.ldbk, m.ldbc, strideC, vl, 1, 0.5, false)
		}},
	} {
		for _, m := range bModes(k, tc.nc) {
			lens := []int{k * tc.mc * tc.bl, bLen(m, k, tc.nc, tc.bl), ((tc.nc-1)*strideC + tc.mc) * tc.bl}
			for short := -1; short < len(lens); short++ {
				ops := make([][]float64, len(lens))
				for j, n := range lens {
					ops[j] = make([]float64, n)
					for e := range ops[j] {
						ops[j][e] = 2
					}
				}
				if short >= 0 {
					ops[short] = ops[short][:len(ops[short])-1]
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					tc.run(ops, m)
					return false
				}()
				if panicked != (short >= 0) {
					t.Errorf("%s, B %s, operand %d short: panicked = %v", tc.name, m.name, short, panicked)
				}
				if short < 0 || Backend == "purego" {
					continue // the Go kernels may panic part-way
				}
				for e, v := range ops[2] {
					if v != 2 {
						t.Fatalf("%s, B %s, operand %d short: C element %d written before the panic", tc.name, m.name, short, e)
					}
				}
			}
		}
	}
}

// trmm_amd64.s must be exactly what the ktmpl TRMM templates lower to
// today.
func TestTRMMAssemblyIsRegenerated(t *testing.T) {
	want, err := ktmpl.GenTRMMAMD64()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("trmm_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trmm_amd64.s is stale: run go generate ./internal/kernels")
	}
}

// The generated TRMM kernels serve float32 at 4 lanes and float64 at 2:
// triangles of M ≤ 4 and the 4×4 rectangle, in every B layout the
// blocked TRMM uses (rows ±1 or ±M blocks apart), also inside its column
// tile (X rows [0, k) and C rows [r0, r0+4) of the same columns under
// the same strides, k ≤ r0). VL overrides, M = 5, narrow tiles, blocks
// that coincide, a triangle that shares memory with B and a C that
// overlaps X any other way stay on pure Go.
func TestTRMMKernelDispatch(t *testing.T) {
	native := Backend != "purego"
	s := make([]float32, 1024)
	d := make([]float64, 1024)
	const k, stride, rows = 3, 8, 5
	sa, da := s[:4*k*4], d[:4*k*2]
	sb, db := s[128:], d[128:]
	for _, tc := range []struct {
		name      string
		run       func() bool
		generated bool
	}{
		{"tri f32 vl=4 M=4", func() bool { return triMulAsm(s[:40], sb, 0, 4, 3, 1, 4, 4) }, native},
		{"tri f64 vl=2 M=1", func() bool { return triMulAsm(d[:2], db, 0, 1, 5, 1, 2, 2) }, native},
		{"tri f64 vl=2 M=4", func() bool { return triMulAsm(d[:20], db, 0, 4, 2, 1, 6, 2) }, native},
		{"tri f32 rs=-1", func() bool { return triMulAsm(s[:40], sb, 3, 4, 3, -1, 4, 4) }, native},
		{"tri f64 rs=-1", func() bool { return triMulAsm(d[:20], db, 3, 4, 2, -1, 4, 2) }, native},
		{"tri f32 rs=M", func() bool { return triMulAsm(s[:40], sb, 0, 4, 3, rows, 1, 4) }, native},
		{"tri f64 rs=M", func() bool { return triMulAsm(d[:20], db, 0, 4, 3, rows, 1, 2) }, native},
		{"tri f64 rs=-M", func() bool { return triMulAsm(d[:20], db, 3*rows, 4, 3, -rows, 1, 2) }, native},
		{"tri f32 vl=2", func() bool { return triMulAsm(s[:20], sb, 0, 4, 2, 1, 4, 2) }, false},
		{"tri f64 vl=4", func() bool { return triMulAsm(d[:40], db, 0, 4, 2, 1, 4, 4) }, false},
		{"tri M=5", func() bool { return triMulAsm(d[:30], db, 0, 5, 2, 1, 5, 2) }, false},
		{"tri ncols=0", func() bool { return triMulAsm(d[:20], db, 0, 4, 0, 1, 4, 2) }, false},
		{"tri columns interleave", func() bool { return triMulAsm(d[:20], db, 0, 4, 2, 1, 3, 2) }, false},
		{"tri rows coincide", func() bool { return triMulAsm(d[:20], db, 0, 4, 2, 0, 4, 2) }, false},
		{"tri overlaps B", func() bool { return triMulAsm(d[120:], db, 0, 4, 2, 1, 4, 2) }, false},
		{"rect f32 4x4", func() bool { return rectAddAsm(sa, sb, s[512:], 0, 0, 4, 4, k, 1, 4, k, 4) }, native},
		{"rect f64 4x4", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 4, 4, k, 1, 5, stride, 2) }, native},
		{"rect f64 4x4 rs=-1", func() bool { return rectAddAsm(da, db, d[512:], stride-1, 3, 4, 4, k, -1, stride, stride, 2) }, native},
		{"rect f64 column tile", func() bool { return rectAddAsm(da, db, db, 0, k, 4, 4, k, 1, stride, stride, 2) }, native},
		{"rect f32 column tile", func() bool { return rectAddAsm(sa, sb, sb, 0, k+1, 4, 4, k, 1, stride, stride, 4) }, native},
		{"rect f32 column tile rs=-1", func() bool { return rectAddAsm(sa, sb, sb, stride-1, stride-1-k, 4, 4, k, -1, stride, stride, 4) }, native},
		{"rect f64 column tile rs=-1", func() bool { return rectAddAsm(da, db, db, stride-1, stride-1-k, 4, 4, k, -1, stride, stride, 2) }, native},
		{"rect f32 column tile rs=M", func() bool { return rectAddAsm(sa, sb, sb, 0, k*rows, 4, 4, k, rows, 1, 1, 4) }, native},
		{"rect f64 column tile rs=M", func() bool { return rectAddAsm(da, db, db, 0, k*rows, 4, 4, k, rows, 1, 1, 2) }, native},
		{"rect f64 column tile rs=-M", func() bool {
			return rectAddAsm(da, db, db, (k+3)*rows, 3*rows, 4, 4, k, -rows, 1, 1, 2)
		}, native},
		{"rect f32 vl=2", func() bool { return rectAddAsm(sa, sb, s[512:], 0, 0, 4, 4, k, 1, 4, k, 2) }, false},
		{"rect f64 vl=4", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 4, 4, k, 1, 4, k, 4) }, false},
		{"rect 4x3", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 4, 3, k, 1, 4, k, 2) }, false},
		{"rect 3x4", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 3, 4, k, 1, 4, k, 2) }, false},
		{"rect k=0", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 4, 4, 0, 1, 4, k, 2) }, false},
		{"rect C blocks coincide", func() bool { return rectAddAsm(da, db, d[512:], 0, 0, 4, 4, k, 3, 1, 1, 2) }, false},
		{"rect C is X", func() bool { return rectAddAsm(da, db, db, 0, 0, 4, 4, k, 1, stride, stride, 2) }, false},
		{"rect C above X's last row", func() bool { return rectAddAsm(da, db, db, 0, k-1, 4, 4, k, 1, stride, stride, 2) }, false},
		{"rect C above X's last row rs=M", func() bool { return rectAddAsm(da, db, db, 0, (k-1)*rows, 4, 4, k, rows, 1, 1, 2) }, false},
		{"rect C runs into X's next column", func() bool { return rectAddAsm(da, db, db, 0, k, 4, 4, k, 1, k+3, k+3, 2) }, false},
		{"rect C and X strides differ", func() bool { return rectAddAsm(da, db, db, 0, k, 4, 4, k, 1, stride+1, stride, 2) }, false},
		{"rect C in a lane of X", func() bool { return rectAddAsm(sa, sb, sb[k*4+1:], 0, 0, 4, 4, k, 1, stride, stride, 4) }, false},
		{"rect C overlaps A", func() bool { return rectAddAsm(da, db, d[16:], 0, 0, 4, 4, k, 1, stride, stride, 2) }, false},
	} {
		if got := tc.run(); got != tc.generated {
			t.Errorf("%s: generated kernel ran = %v, want %v (Backend %q)", tc.name, got, tc.generated, Backend)
		}
	}
}

// An operand one element short panics before the generated TRMM kernels
// write anything, and so does a B one block short at its low end when
// rows run upward (rs < 0), where the lowest block is not the first.
func TestTRMMKernelsBoundsChecked(t *testing.T) {
	const m, ncols, strideB, k, strideC, strideX, vl = 4, 3, 5, 3, 5, 4, 2
	for _, tc := range []struct {
		name string
		lens []int // the operands; the last one is written
		run  func(ops [][]float64)
	}{
		{"TriMul", []int{m * (m + 1) / 2 * vl, ((ncols-1)*strideB + m) * vl},
			func(o [][]float64) { TriMul(o[0], o[1], 0, m, ncols, 1, strideB, vl) }},
		{"RectAdd", []int{4 * k * vl, (3*strideX + k) * vl, (3*strideC + 4) * vl},
			func(o [][]float64) { RectAdd(o[0], o[1], o[2], 0, 0, 4, 4, k, 1, strideC, strideX, vl) }},
	} {
		for i := range tc.lens {
			ops := make([][]float64, len(tc.lens))
			for j, n := range tc.lens {
				ops[j] = twos(n)
			}
			ops[i] = ops[i][:len(ops[i])-1]
			panicsUnwritten(t, fmt.Sprintf("%s, operand %d short", tc.name, i), ops[len(ops)-1], func() { tc.run(ops) })
		}
	}

	// Rows upward: block 0 of a full B is the lowest one, row m−1 of the
	// first column (TriMul) or row r0+3 of C (RectAdd in its column tile,
	// r0 = k); the short B starts one block later.
	const tile = k + 4
	tri, pa := twos(m*(m+1)/2*vl), twos(4*k*vl)
	b := twos(((ncols-1)*strideB + m) * vl)[vl:]
	panicsUnwritten(t, "TriMul rs<0, B short at its low end", b, func() { TriMul(tri, b, m-2, m, ncols, -1, strideB, vl) })
	b = twos(4 * tile * vl)[vl:]
	panicsUnwritten(t, "RectAdd rs<0, B short at its low end", b, func() {
		RectAdd(pa, b, b, tile-2, tile-2-k, 4, 4, k, -1, tile, tile, vl)
	})
}

// twos is n elements of 2.
func twos(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 2
	}
	return s
}

// panicsUnwritten requires run to panic and, on a build with generated
// kernels, to leave out unwritten.
func panicsUnwritten(t *testing.T, name string, out []float64, run func()) {
	t.Helper()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		run()
	}()
	if Backend == "purego" {
		return // the Go kernels may panic part-way
	}
	for e, v := range out {
		if v != 2 {
			t.Fatalf("%s: element %d written before the panic", name, e)
		}
	}
}
