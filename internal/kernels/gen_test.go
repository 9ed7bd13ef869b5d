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
