package kernels

import (
	"bytes"
	"os"
	"testing"

	"iatf/internal/ktmpl"
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

// The generated kernel serves exactly the native-width 4×4 tile of a
// build that has it (Backend); VL overrides, k = 0, overlapping C
// columns and a C sharing memory with pa or pb stay on pure Go.
func TestGEMMMainKernelDispatch(t *testing.T) {
	native := Backend != "purego"
	s := make([]float32, 3*4*4*8)
	d := make([]float64, 3*4*4*8)
	sa, sb, sc := s[:128], s[128:256], s[256:]
	da, db, dc := d[:64], d[64:128], d[128:]
	for _, tc := range []struct {
		name      string
		run       func() bool
		generated bool
	}{
		{"f32 vl=4", func() bool { return gemm44asm(sa, sb, sc, 2, 4, 4, 1, false) }, native},
		{"f64 vl=2", func() bool { return gemm44asm(da, db, dc, 2, 5, 2, 1, true) }, native},
		{"f32 vl=2", func() bool { return gemm44asm(sa, sb, sc, 2, 4, 2, 1, false) }, false},
		{"f64 vl=4", func() bool { return gemm44asm(da, db, dc, 2, 4, 4, 1, false) }, false},
		{"k=0", func() bool { return gemm44asm(sa, sb, sc, 0, 4, 4, 1, false) }, false},
		{"strideC=3", func() bool { return gemm44asm(da, db, dc, 2, 3, 2, 1, false) }, false},
		{"C is A", func() bool { return gemm44asm(sa, sb, sa, 2, 4, 4, 1, false) }, false},
		{"C overlaps B", func() bool { return gemm44asm(da, db, d[79:], 2, 4, 2, 1, true) }, false},
	} {
		if got := tc.run(); got != tc.generated {
			t.Errorf("%s: generated kernel ran = %v, want %v (Backend %q)", tc.name, got, tc.generated, Backend)
		}
	}
}

// An operand one element short panics before any kernel touches memory.
func TestGEMMMainKernelBoundsChecked(t *testing.T) {
	const k, strideC, vl = 3, 5, 2
	for i, name := range []string{"pa", "pb", "c"} {
		ops := [][]float64{make([]float64, k*4*vl), make([]float64, k*4*vl), make([]float64, (3*strideC+4)*vl)}
		ops[i] = ops[i][:len(ops[i])-1]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: no panic", name)
				}
			}()
			GEMM(ops[0], ops[1], ops[2], 4, 4, k, strideC, vl, 1, false)
		}()
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
