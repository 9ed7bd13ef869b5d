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
// triangles of M ≤ 4 and the 4×4 rectangle, also inside the blocked
// TRMM's column tile (X rows [0, k) and C rows [r0, r0+4) of the same
// columns, k ≤ r0). VL overrides, M = 5, narrow tiles, a triangle that
// shares memory with B and a C that overlaps X any other way stay on
// pure Go.
func TestTRMMKernelDispatch(t *testing.T) {
	native := Backend != "purego"
	s := make([]float32, 1024)
	d := make([]float64, 1024)
	const k, stride = 3, 8
	sa, da := s[:4*k*4], d[:4*k*2]
	sb, db := s[128:], d[128:]
	for _, tc := range []struct {
		name      string
		run       func() bool
		generated bool
	}{
		{"tri f32 vl=4 M=4", func() bool { return triMulAsm(s[:40], sb, 4, 3, 4, 4) }, native},
		{"tri f64 vl=2 M=1", func() bool { return triMulAsm(d[:2], db, 1, 5, 2, 2) }, native},
		{"tri f64 vl=2 M=4", func() bool { return triMulAsm(d[:20], db, 4, 2, 6, 2) }, native},
		{"tri f32 vl=2", func() bool { return triMulAsm(s[:20], sb, 4, 2, 4, 2) }, false},
		{"tri f64 vl=4", func() bool { return triMulAsm(d[:40], db, 4, 2, 4, 4) }, false},
		{"tri M=5", func() bool { return triMulAsm(d[:30], db, 5, 2, 5, 2) }, false},
		{"tri ncols=0", func() bool { return triMulAsm(d[:20], db, 4, 0, 4, 2) }, false},
		{"tri strideB<M", func() bool { return triMulAsm(d[:20], db, 4, 2, 3, 2) }, false},
		{"tri overlaps B", func() bool { return triMulAsm(d[120:], db, 4, 2, 4, 2) }, false},
		{"rect f32 4x4", func() bool { return rectAddAsm(sa, sb, s[512:], 4, 4, k, 4, k, 4) }, native},
		{"rect f64 4x4", func() bool { return rectAddAsm(da, db, d[512:], 4, 4, k, 5, stride, 2) }, native},
		{"rect f64 column tile", func() bool { return rectAddAsm(da, db, db[k*2:], 4, 4, k, stride, stride, 2) }, native},
		{"rect f32 column tile", func() bool { return rectAddAsm(sa, sb, sb[(k+1)*4:], 4, 4, k, stride, stride, 4) }, native},
		{"rect f32 vl=2", func() bool { return rectAddAsm(sa, sb, s[512:], 4, 4, k, 4, k, 2) }, false},
		{"rect f64 vl=4", func() bool { return rectAddAsm(da, db, d[512:], 4, 4, k, 4, k, 4) }, false},
		{"rect 4x3", func() bool { return rectAddAsm(da, db, d[512:], 4, 3, k, 4, k, 2) }, false},
		{"rect 3x4", func() bool { return rectAddAsm(da, db, d[512:], 3, 4, k, 4, k, 2) }, false},
		{"rect k=0", func() bool { return rectAddAsm(da, db, d[512:], 4, 4, 0, 4, k, 2) }, false},
		{"rect C is X", func() bool { return rectAddAsm(da, db, db, 4, 4, k, stride, stride, 2) }, false},
		{"rect C above X's last row", func() bool { return rectAddAsm(da, db, db[(k-1)*2:], 4, 4, k, stride, stride, 2) }, false},
		{"rect C runs into X's next column", func() bool { return rectAddAsm(da, db, db[k*2:], 4, 4, k, k+3, k+3, 2) }, false},
		{"rect C and X strides differ", func() bool { return rectAddAsm(da, db, db[k*2:], 4, 4, k, stride+1, stride, 2) }, false},
		{"rect C in a lane of X", func() bool { return rectAddAsm(sa, sb, sb[k*4+1:], 4, 4, k, stride, stride, 4) }, false},
		{"rect C overlaps A", func() bool { return rectAddAsm(da, db, d[16:], 4, 4, k, stride, stride, 2) }, false},
	} {
		if got := tc.run(); got != tc.generated {
			t.Errorf("%s: generated kernel ran = %v, want %v (Backend %q)", tc.name, got, tc.generated, Backend)
		}
	}
}

// An operand one element short panics before the generated TRMM kernels
// write anything.
func TestTRMMKernelsBoundsChecked(t *testing.T) {
	const m, ncols, strideB, k, strideC, strideX, vl = 4, 3, 5, 3, 5, 4, 2
	for _, tc := range []struct {
		name string
		lens []int // the operands; the last one is written
		run  func(ops [][]float64)
	}{
		{"TriMul", []int{m * (m + 1) / 2 * vl, ((ncols-1)*strideB + m) * vl},
			func(o [][]float64) { TriMul(o[0], o[1], m, ncols, strideB, vl) }},
		{"RectAdd", []int{4 * k * vl, (3*strideX + k) * vl, (3*strideC + 4) * vl},
			func(o [][]float64) { RectAdd(o[0], o[1], o[2], 4, 4, k, strideC, strideX, vl) }},
	} {
		for i := range tc.lens {
			ops := make([][]float64, len(tc.lens))
			for j, n := range tc.lens {
				ops[j] = make([]float64, n)
				for e := range ops[j] {
					ops[j][e] = 2
				}
			}
			ops[i] = ops[i][:len(ops[i])-1]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, operand %d short: no panic", tc.name, i)
					}
				}()
				tc.run(ops)
			}()
			if Backend == "purego" {
				continue // the Go kernels may panic part-way
			}
			for e, v := range ops[len(ops)-1] {
				if v != 2 {
					t.Fatalf("%s, operand %d short: element %d written before the panic", tc.name, i, e)
				}
			}
		}
	}
}
