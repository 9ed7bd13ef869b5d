package ktmpl

import (
	"math/rand"
	"strings"
	"testing"

	"iatf/internal/asm"
	"iatf/internal/vec"
)

// packedGEMMData synthesizes the packed operand buffers one kernel
// invocation consumes, for one interleave group of P matrices:
//
//	pA: K steps × mc blocks (N-shape panel)
//	pB: K steps × nc blocks (Z-shape panel), or with strideB > 0 block
//	    (k, c) at c·strideB + k (a NoTrans B read in place)
//	pC: C tile, column c at StrideC blocks
//
// Complex blocks are [re lanes | im lanes].
type packedGEMMData[E vec.Float] struct {
	mem                []E
	pa, pb, pc, palpha int
	a, b, c            [][][]complex128 // [lane][row][col] logical values
	alpha              complex128
}

func buildGEMM[E vec.Float](rng *rand.Rand, s GEMMSpec, strideB int) *packedGEMMData[E] {
	vl := s.vl()
	comps := s.comps()
	bl := s.blockLen()
	d := &packedGEMMData[E]{alpha: complex(1.5, 0)}
	if s.DT.IsComplex() {
		d.alpha = complex(1.5, -0.5)
	}
	randVal := func() complex128 {
		if s.DT.IsComplex() {
			return complex(rng.Float64(), rng.Float64())
		}
		return complex(rng.Float64(), 0)
	}
	alloc3 := func(rows, cols int) [][][]complex128 {
		out := make([][][]complex128, vl)
		for l := range out {
			out[l] = make([][]complex128, rows)
			for r := range out[l] {
				out[l][r] = make([]complex128, cols)
				for c := range out[l][r] {
					out[l][r][c] = randVal()
				}
			}
		}
		return out
	}
	d.a = alloc3(s.MC, s.K)
	d.b = alloc3(s.K, s.NC)
	d.c = alloc3(s.MC, s.NC)

	writeBlock := func(mem []E, off int, vals func(lane int) complex128) {
		for lane := 0; lane < vl; lane++ {
			v := vals(lane)
			mem[off+lane] = E(real(v))
			if comps == 2 {
				mem[off+vl+lane] = E(imag(v))
			}
		}
	}

	lenA := s.K * s.MC * bl
	lenB := s.K * s.NC * bl
	bOff := func(k, c int) int { return (k*s.NC + c) * bl }
	if strideB > 0 {
		lenB = s.NC * strideB * bl
		bOff = func(k, c int) int { return (c*strideB + k) * bl }
	}
	lenC := s.NC * s.StrideC * bl
	d.pa, d.pb, d.pc = 0, lenA, lenA+lenB
	d.palpha = d.pc + lenC
	d.mem = make([]E, d.palpha+2)

	for k := 0; k < s.K; k++ {
		for r := 0; r < s.MC; r++ {
			writeBlock(d.mem, d.pa+(k*s.MC+r)*bl, func(l int) complex128 { return d.a[l][r][k] })
		}
		for c := 0; c < s.NC; c++ {
			writeBlock(d.mem, d.pb+bOff(k, c), func(l int) complex128 { return d.b[l][k][c] })
		}
	}
	for c := 0; c < s.NC; c++ {
		for r := 0; r < s.MC; r++ {
			writeBlock(d.mem, d.pc+(c*s.StrideC+r)*bl, func(l int) complex128 { return d.c[l][r][c] })
		}
	}
	d.mem[d.palpha] = E(real(d.alpha))
	d.mem[d.palpha+1] = E(imag(d.alpha))
	return d
}

// want returns the expected C value: C + alpha·A·B.
func (d *packedGEMMData[E]) want(s GEMMSpec, lane, r, c int) complex128 {
	sum := complex(0, 0)
	for k := 0; k < s.K; k++ {
		sum += d.a[lane][r][k] * d.b[lane][k][c]
	}
	return d.c[lane][r][c] + d.alpha*sum
}

// got reads back the computed C value from packed memory.
func (d *packedGEMMData[E]) got(s GEMMSpec, lane, r, c int) complex128 {
	off := d.pc + (c*s.StrideC+r)*s.blockLen() + lane
	re := float64(d.mem[off])
	im := 0.0
	if s.comps() == 2 {
		im = float64(d.mem[off+s.vl()])
	}
	return complex(re, im)
}

// runGEMMKernel runs prog in the VM and checks C + alpha·A·B, or with
// ovw the overwrite result alpha·A·B (C's stale contents must be ignored).
// strideB lays B out as buildGEMM does.
func runGEMMKernel[E vec.Float](t *testing.T, s GEMMSpec, prog asm.Prog, ovw bool, strideB int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*s.MC + 100*s.NC + s.K)))
	d := buildGEMM[E](rng, s, strideB)
	if ovw {
		for _, lane := range d.c {
			for _, row := range lane {
				clear(row)
			}
		}
	}
	vm := &asm.VM[E]{Mem: d.mem}
	vm.P[asm.PA] = d.pa
	vm.P[asm.PB] = d.pb
	vm.P[asm.PC] = d.pc
	vm.P[asm.PAlpha] = d.palpha
	if err := vm.Run(prog); err != nil {
		t.Fatalf("%v %dx%d K=%d: %v", s.DT, s.MC, s.NC, s.K, err)
	}
	tol := 1e-12 * float64(s.K+1)
	var e E
	if _, ok := any(e).(float32); ok {
		tol = 1e-4 * float64(s.K+1)
	}
	for lane := 0; lane < s.vl(); lane++ {
		for r := 0; r < s.MC; r++ {
			for c := 0; c < s.NC; c++ {
				w, g := d.want(s, lane, r, c), d.got(s, lane, r, c)
				if dabs(real(w)-real(g)) > tol || dabs(imag(w)-imag(g)) > tol {
					t.Fatalf("%v %dx%d K=%d lane=%d C(%d,%d) = %v, want %v",
						s.DT, s.MC, s.NC, s.K, lane, r, c, g, w)
				}
			}
		}
	}
}

func dabs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Every Table 1 kernel size × every K composition path must compute
// C + alpha·A·B exactly, for all four data types.
func TestGenGEMMCorrectAllSizes(t *testing.T) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 13}
	for _, dt := range vec.DTypes {
		for _, sz := range GEMMKernelSizes(dt) {
			for _, k := range ks {
				s := GEMMSpec{DT: dt, MC: sz.MC, NC: sz.NC, K: k, StrideC: sz.MC + 2}
				prog, err := GenGEMM(s)
				if err != nil {
					t.Fatalf("%v %dx%d K=%d: %v", dt, sz.MC, sz.NC, k, err)
				}
				if err := GEMMFirstIsFirstK(s, prog); err != nil {
					t.Fatal(err)
				}
				switch dt.Real() {
				case vec.S:
					runGEMMKernel[float32](t, s, prog, false, 0)
				default:
					runGEMMKernel[float64](t, s, prog, false, 0)
				}
			}
		}
	}
}

// The loop pieces a machine-code backend runs — Zero, then Step K
// times, then Save or SaveOvw — compute C + alpha·A·B and alpha·A·B,
// with B packed or read in place by columns.
func TestGenGEMMLoopCorrect(t *testing.T) {
	for _, dt := range vec.DTypes {
		sz := MainGEMMKernel(dt)
		for _, k := range []int{1, 2, 7} {
			s := GEMMSpec{DT: dt, MC: sz.MC, NC: sz.NC, K: k, StrideC: sz.MC + 1}
			// Packed B, then B read in place: columns k or k+2 blocks apart.
			for _, strideB := range []int{0, k, k + 2} {
				l, err := GenGEMMLoop(s, strideB)
				if err != nil {
					t.Fatal(err)
				}
				for _, ovw := range []bool{false, true} {
					prog := append(asm.Prog(nil), l.Zero...)
					for i := 0; i < k; i++ {
						prog = append(prog, l.Step...)
					}
					save := l.Save
					if ovw {
						save = l.SaveOvw
					}
					prog = append(prog, save...)
					switch dt.Real() {
					case vec.S:
						runGEMMKernel[float32](t, s, prog, ovw, strideB)
					default:
						runGEMMKernel[float64](t, s, prog, ovw, strideB)
					}
				}
			}
		}
	}
}

// No generated kernel may reference a vector register beyond V31 or leave
// the defined pointer set.
func TestGeneratedKernelsRespectRegisterFile(t *testing.T) {
	for _, dt := range vec.DTypes {
		for _, sz := range GEMMKernelSizes(dt) {
			s := GEMMSpec{DT: dt, MC: sz.MC, NC: sz.NC, K: 9, StrideC: sz.MC}
			prog, err := GenGEMM(s)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range prog {
				for _, r := range []uint8{in.D, in.D2, in.A, in.B} {
					if r >= asm.NumVRegs {
						t.Fatalf("%v %dx%d instr %d uses V%d", dt, sz.MC, sz.NC, i, r)
					}
				}
				if in.P >= asm.NumPRegs {
					t.Fatalf("%v %dx%d instr %d uses pointer %d", dt, sz.MC, sz.NC, i, in.P)
				}
			}
		}
	}
}

// The generated TEMPLATE_I of the 4×4 DGEMM kernel must match the
// "original code" column of Figure 5: A into q0–q7, B into q8–q15 with
// interleaved pointer bumps, then the 16 FMULs v16–v31 in column order.
func TestFigure5OriginalTemplateI(t *testing.T) {
	s := GEMMSpec{DT: vec.D, MC: 4, NC: 4, K: 4, StrideC: 4}
	prog, err := GenGEMMTemplate(s, TplI)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	syn := asm.SyntaxFor(8)
	for _, in := range prog {
		f := syn.Format(in)
		if i := strings.Index(f, "//"); i >= 0 {
			f = strings.TrimSpace(f[:i])
		}
		lines = append(lines, f)
	}
	want := []string{
		"ldp q0, q1, [pA]",
		"add pA, pA, #32",
		"ldp q2, q3, [pA]",
		"add pA, pA, #32",
		"ldp q4, q5, [pA]",
		"add pA, pA, #32",
		"ldp q6, q7, [pA]",
		"add pA, pA, #32",
		"ldp q8, q9, [pB]",
		"add pB, pB, #32",
		"ldp q10, q11, [pB]",
		"add pB, pB, #32",
		"ldp q12, q13, [pB]",
		"add pB, pB, #32",
		"ldp q14, q15, [pB]",
		"add pB, pB, #32",
		"fmul v16.2d, v0.2d, v8.2d",
		"fmul v17.2d, v1.2d, v8.2d",
		"fmul v18.2d, v2.2d, v8.2d",
		"fmul v19.2d, v3.2d, v8.2d",
		"fmul v20.2d, v0.2d, v9.2d",
		"fmul v21.2d, v1.2d, v9.2d",
		"fmul v22.2d, v2.2d, v9.2d",
		"fmul v23.2d, v3.2d, v9.2d",
		"fmul v24.2d, v0.2d, v10.2d",
		"fmul v25.2d, v1.2d, v10.2d",
		"fmul v26.2d, v2.2d, v10.2d",
		"fmul v27.2d, v3.2d, v10.2d",
		"fmul v28.2d, v0.2d, v11.2d",
		"fmul v29.2d, v1.2d, v11.2d",
		"fmul v30.2d, v2.2d, v11.2d",
		"fmul v31.2d, v3.2d, v11.2d",
	}
	if len(lines) != len(want) {
		t.Fatalf("TEMPLATE_I has %d instructions, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// The per-K-step instruction counts of the templates must match
// Algorithm 2: M1/M2/SUB load mc+nc blocks and compute mc·nc FMAs; E only
// computes.
func TestTemplateShape(t *testing.T) {
	s := GEMMSpec{DT: vec.S, MC: 4, NC: 4, K: 8, StrideC: 4}
	counts := func(tpl TemplateID) (mem, fp int) {
		p, err := GenGEMMTemplate(s, tpl)
		if err != nil {
			t.Fatal(err)
		}
		return p.Counts()
	}
	if mem, fp := counts(TplI); mem != 8 || fp != 16 { // 2 steps of (4+4) = 8 LDPs
		t.Errorf("I: mem=%d fp=%d, want 8/16", mem, fp)
	}
	for _, tpl := range []TemplateID{TplM1, TplM2, TplSUB} {
		if mem, fp := counts(tpl); mem != 4 || fp != 16 {
			t.Errorf("%v: mem=%d fp=%d, want 4/16", tpl, mem, fp)
		}
	}
	if mem, fp := counts(TplE); mem != 0 || fp != 16 {
		t.Errorf("E: mem=%d fp=%d, want 0/16", mem, fp)
	}
	// SAVE: per column 2 LDPs + 4 FMAs + 2 STPs, plus the alpha ld1r.
	if mem, fp := counts(TplSAVE); mem != 4*4+1 || fp != 16 {
		t.Errorf("SAVE: mem=%d fp=%d, want 17/16", mem, fp)
	}
}

// Complex kernels must carry 4 FP instructions per element per K step —
// the numerator of Eq. 3.
func TestComplexTemplateShape(t *testing.T) {
	s := GEMMSpec{DT: vec.Z, MC: 3, NC: 2, K: 8, StrideC: 3}
	p, err := GenGEMMTemplate(s, TplM1)
	if err != nil {
		t.Fatal(err)
	}
	mem, fp := p.Counts()
	if fp != 4*3*2 {
		t.Errorf("complex M1 fp = %d, want 24", fp)
	}
	// Loads: (mc+nc)·2 registers = 10 regs = 5 LDPs.
	if mem != 5 {
		t.Errorf("complex M1 mem = %d, want 5", mem)
	}
}

// Kernels generated at AVX-512 lane widths (the MKL-compact model) must
// still compute correctly at NEON widths ≤ 4 and scale their offsets.
func TestVLOverrideScalesOffsets(t *testing.T) {
	s2 := GEMMSpec{DT: vec.D, MC: 2, NC: 2, K: 2, StrideC: 2, VL: 2}
	s8 := GEMMSpec{DT: vec.D, MC: 2, NC: 2, K: 2, StrideC: 2, VL: 8}
	p2, err := GenGEMM(s2)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := GenGEMM(s8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != len(p8) {
		t.Fatalf("instruction counts differ: %d vs %d", len(p2), len(p8))
	}
	for i := range p2 {
		if p2[i].Op == asm.ADDI && p8[i].Off != 4*p2[i].Off {
			t.Errorf("instr %d: VL=8 offset %d, want %d", i, p8[i].Off, 4*p2[i].Off)
		}
	}
}

// The complex 3×2 main kernel lowers as two 3×1 column halves that each
// fit X0–X15: 6 A registers in X0–X5, B's re and im in X7–X8, the
// product in X9 and 6 accumulators in X10–X15; the save broadcasts α.re
// and α.im from consecutive arguments, and B advances by the run-time
// K step in R12. The real 4×4 kernel keeps its two 4×2 halves.
func TestGEMMAMD64Layout(t *testing.T) {
	src, err := GenGEMMAMD64()
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	z := text[strings.Index(text, "TEXT ·gemm3x2z"):]
	for _, want := range []string{
		"\tMOVUPD (SI), X0\n\tMOVUPD (DI), X7\n\tMOVAPD X0, X9\n\tMULPD X7, X9\n\tADDPD X9, X10\n",
		"\tMOVUPD 16(SI), X1\n\tMOVUPD 16(DI), X8\n\tMOVAPD X1, X9\n\tMULPD X8, X9\n\tSUBPD X9, X10\n",
		"\tMOVUPD (DI)(R10*1), X7\n",
		"\tMOVSD alphaRe+56(FP), X0\n\tUNPCKLPD X0, X0\n",
		"\tMOVSD alphaIm+64(FP), X1\n\tUNPCKLPD X1, X1\n",
		"\tCMPB ovw+72(FP), $0\n",
		"\tXORPD X15, X15\n",
	} {
		if !strings.Contains(z, want) {
			t.Errorf("gemm3x2z lacks %q", want)
		}
	}
	for name, halves := range map[string]int{"gemm4x4s": 2, "gemm4x4d": 2, "gemm3x2c": 2, "gemm3x2z": 2} {
		fn := text[strings.Index(text, "TEXT ·"+name):]
		if next := strings.Index(fn[1:], "TEXT ·"); next > 0 {
			fn = fn[:next]
		}
		if n := strings.Count(fn, "\tADDQ R12, DI\n"); n != halves {
			t.Errorf("%s advances B by the run-time K step %d times, want once per half (%d)", name, n, halves)
		}
		if strings.Contains(fn, "X16") || strings.Contains(fn, "VFMADD") {
			t.Errorf("%s uses a register or instruction SSE2 lacks", name)
		}
	}
}
