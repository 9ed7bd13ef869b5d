package asm

import (
	"fmt"
	"strings"
	"testing"
)

// lowerable is a 2×1 real kernel in the shape ktmpl emits: A in V0–V1,
// B in V8 (pB advancing one block per K step), accumulators V16–V17,
// alpha in V0 and C in V1–V2 at save. Its one column group puts the
// accumulators in X14–X15, the temporary in X13 and B in X12.
func lowerable() AMD64GEMM {
	return AMD64GEMM{
		Name: "k", ElemBytes: 8, StrideB: 1, StrideC: 2,
		Zero: Prog{{Op: MOVI, D: 16}, {Op: MOVI, D: 17}},
		Step: Prog{
			{Op: LDP, D: 0, D2: 1, P: PA}, {Op: ADDI, P: PA, Off: 4},
			{Op: LDR, D: 8, P: PB}, {Op: ADDI, P: PB, Off: 2},
			{Op: FMLA, D: 16, A: 0, B: 8}, {Op: FMLA, D: 17, A: 1, B: 8},
		},
		Save: Prog{
			{Op: LD1R, D: 0, P: PAlpha}, {Op: LDP, D: 1, D2: 2, P: PC},
			{Op: FMLA, D: 1, A: 16, B: 0}, {Op: FMLA, D: 2, A: 17, B: 0},
			{Op: STP, D: 1, D2: 2, P: PC},
		},
		SaveOvw: Prog{
			{Op: LD1R, D: 0, P: PAlpha},
			{Op: FMUL, D: 1, A: 16, B: 0}, {Op: FMUL, D: 2, A: 17, B: 0},
			{Op: STP, D: 1, D2: 2, P: PC},
		},
	}
}

// kernelIR is a rows×cols real float64 kernel in ktmpl's strided-B
// register layout, one block per LDR/STR: A in V0…, B column c in V8+c
// (columns one block apart, pB advancing one block per K step), the
// accumulator of (r, c) in V16+c·rows+r, alpha in V0 and C in V1… at
// save.
func kernelIR(rows, cols int) AMD64GEMM {
	k := AMD64GEMM{Name: "k", ElemBytes: 8, StrideB: 1, StrideC: rows}
	acc := func(r, c int) uint8 { return uint8(16 + c*rows + r) }
	for i := 0; i < rows*cols; i++ {
		k.Zero = append(k.Zero, Instr{Op: MOVI, D: uint8(16 + i)})
	}
	for r := 0; r < rows; r++ {
		k.Step = append(k.Step, Instr{Op: LDR, D: uint8(r), P: PA, Off: int32(2 * r)})
	}
	k.Step = append(k.Step, Instr{Op: ADDI, P: PA, Off: int32(2 * rows)})
	for c := 0; c < cols; c++ {
		k.Step = append(k.Step, Instr{Op: LDR, D: uint8(8 + c), P: PB, Off: int32(2 * c)})
	}
	k.Step = append(k.Step, Instr{Op: ADDI, P: PB, Off: 2})
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			k.Step = append(k.Step, Instr{Op: FMLA, D: acc(r, c), A: uint8(r), B: uint8(8 + c)})
		}
	}
	k.Save = Prog{{Op: LD1R, D: 0, P: PAlpha}}
	k.SaveOvw = Prog{{Op: LD1R, D: 0, P: PAlpha}}
	for c := 0; c < cols; c++ {
		var load, fmla, fmul, store Prog
		for r := 0; r < rows; r++ {
			off := int32(2 * (c*rows + r))
			load = append(load, Instr{Op: LDR, D: uint8(1 + r), P: PC, Off: off})
			fmla = append(fmla, Instr{Op: FMLA, D: uint8(1 + r), A: acc(r, c), B: 0})
			fmul = append(fmul, Instr{Op: FMUL, D: uint8(1 + r), A: acc(r, c), B: 0})
			store = append(store, Instr{Op: STR, D: uint8(1 + r), P: PC, Off: off})
		}
		k.Save = append(append(append(k.Save, load...), fmla...), store...)
		k.SaveOvw = append(append(k.SaveOvw, fmul...), store...)
	}
	return k
}

// A 4×4 kernel runs as two 4×2 column groups. In both saves each group
// stores its own two columns (C columns 2 and 3 sit at R8·2 and R9) and
// nothing else: in the overwrite save, stores of registers another
// group computes must be dropped as well.
func TestLowerAMD64GroupsStoreOwnColumns(t *testing.T) {
	src, err := LowerAMD64("gemm", kernelIR(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for g, sec := range []string{
		text[strings.Index(text, "save0:"):strings.Index(text, "done0:")],
		text[strings.Index(text, "save1:"):strings.Index(text, "done1:")],
	} {
		stores := 0
		for _, line := range strings.Split(sec, "\n") {
			if !strings.HasPrefix(line, "\tMOVUPD X") {
				continue // a load or not a move
			}
			stores++
			if hi := strings.Contains(line, "(R8*2)") || strings.Contains(line, "(R9*1)"); hi != (g == 1) {
				t.Errorf("group %d stores another group's column: %s", g, line)
			}
		}
		if stores != 16 {
			t.Errorf("group %d: %d stores, want 2 saves × 2 columns × 4 rows", g, stores)
		}
	}
}

// Every FMLA lowers to a separate multiply and add (never a fused
// VFMADD), and the overwrite save never loads C.
func TestLowerAMD64SplitsFMLA(t *testing.T) {
	src, err := LowerAMD64("gemm", lowerable())
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if strings.Contains(text, "VFMADD") || strings.Count(text, "MULPD") != 6 || strings.Count(text, "ADDPD") != 4 {
		t.Fatalf("want 6 MULPD (2 step, 2 save, 2 overwrite) and 4 ADDPD:\n%s", text)
	}
	ovw := text[strings.Index(text, "ovw0:"):]
	if strings.Contains(ovw, "MOVUPD (DX), X") {
		t.Fatalf("overwrite save loads C:\n%s", ovw)
	}
}

// Input the lowering cannot reproduce exactly is refused, not guessed.
func TestLowerAMD64Rejects(t *testing.T) {
	for name, mut := range map[string]func(*AMD64GEMM){
		"element size":     func(k *AMD64GEMM) { k.ElemBytes = 2 },
		"no accumulate":    func(k *AMD64GEMM) { k.Step = k.Step[:4] },
		"unzeroed":         func(k *AMD64GEMM) { k.Zero = k.Zero[:1] },
		"alpha offset":     func(k *AMD64GEMM) { k.Save[0].Off = 1 },
		"read before load": func(k *AMD64GEMM) { k.Save = k.Save[2:] },
		"store to pA":      func(k *AMD64GEMM) { k.SaveOvw[3].P = PA },
		"B K step":         func(k *AMD64GEMM) { k.Step[3].Off = 4 },
		"no B stride":      func(k *AMD64GEMM) { k.StrideB = 0 },
	} {
		k := lowerable()
		k.Step, k.Save, k.SaveOvw = append(Prog(nil), k.Step...), append(Prog(nil), k.Save...), append(Prog(nil), k.SaveOvw...)
		mut(&k)
		if _, err := LowerAMD64("gemm", k); err == nil {
			t.Errorf("%s: lowered without error", name)
		}
	}
	// A fused subtract lowers to two roundings, like vec.FMS: A into the
	// temporary, times B, subtracted from the accumulator.
	k := lowerable()
	k.Step = append(Prog(nil), k.Step...)
	k.Step[4].Op = FMLS
	lowersTo(t, k, "fmls v16.2d, v0.2d, v8.2d",
		"MOVUPD (SI), X0", "MOVUPD (DI), X12", "MOVAPD X0, X13", "MULPD X12, X13", "SUBPD X13, X14")
}

// lowersTo checks that the instruction commented as ir lowers to want.
func lowersTo(t *testing.T, k AMD64Kernel, ir string, want ...string) {
	t.Helper()
	src, err := LowerAMD64("k", k)
	if err != nil {
		t.Fatalf("%s: %v", ir, err)
	}
	text := string(src)
	i := strings.Index(text, "\t// "+ir+"\n")
	if i < 0 {
		t.Fatalf("no %q in:\n%s", ir, text)
	}
	got := strings.Split(text[i:], "\n")[1 : 1+len(want)]
	for j := range want {
		if got[j] != "\t"+want[j] {
			t.Fatalf("%s lowers to %q, want %q", ir, got, want)
		}
	}
}

// rectIR is a 4×4 float64 TRMM rectangle in ktmpl's register layout,
// one block per LDR/STR: A in V0–V3, the X block of column c in V8+c
// read strideX blocks apart from pX, and the accumulator of (r, c) in
// V16+4c+r, preloaded from and stored back to C columns 4 blocks apart.
func rectIR(strideX int) AMD64RectAdd {
	k := AMD64RectAdd{Name: "r", ElemBytes: 8, StrideC: 4, StrideX: strideX}
	acc := func(r, c int) uint8 { return uint8(16 + 4*c + r) }
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			off := int32(2 * (4*c + r))
			k.Preload = append(k.Preload, Instr{Op: LDR, D: acc(r, c), P: PC, Off: off})
			k.Store = append(k.Store, Instr{Op: STR, D: acc(r, c), P: PC, Off: off})
		}
	}
	for r := 0; r < 4; r++ {
		k.Step = append(k.Step, Instr{Op: LDR, D: uint8(r), P: PA, Off: int32(2 * r)})
	}
	k.Step = append(k.Step, Instr{Op: ADDI, P: PA, Off: 8})
	for c := 0; c < 4; c++ {
		k.Step = append(k.Step, Instr{Op: LDR, D: uint8(8 + c), P: PX, Off: int32(2 * c * strideX)})
	}
	k.Step = append(k.Step, Instr{Op: ADDI, P: PX, Off: 2})
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			k.Step = append(k.Step, Instr{Op: FMLA, D: acc(r, c), A: uint8(r), B: uint8(8 + c)})
		}
	}
	return k
}

// triIR is an m×m float64 TRMM triangle in ktmpl's register layout, one
// block per LDR/STR: the B column in V0…, block (i, j) of the packed
// triangle in V2m+i(i+1)/2+j, rows multiplied bottom-up.
func triIR(m int) AMD64TriMul {
	k := AMD64TriMul{Name: "t", ElemBytes: 8}
	a := func(i, j int) uint8 { return uint8(2*m + i*(i+1)/2 + j) }
	for i := 0; i < m*(m+1)/2; i++ {
		k.Load = append(k.Load, Instr{Op: LDR, D: uint8(2*m + i), P: PA, Off: int32(2 * i)})
	}
	for i := 0; i < m; i++ {
		k.Col = append(k.Col, Instr{Op: LDR, D: uint8(i), P: PB, Off: int32(2 * i)})
	}
	for i := m - 1; i >= 0; i-- {
		k.Col = append(k.Col, Instr{Op: FMUL, D: uint8(i), A: uint8(i), B: a(i, i)})
		for j := 0; j < i; j++ {
			k.Col = append(k.Col, Instr{Op: FMLA, D: uint8(i), A: a(i, j), B: uint8(j)})
		}
	}
	for i := 0; i < m; i++ {
		k.Col = append(k.Col, Instr{Op: STR, D: uint8(i), P: PB, Off: int32(2 * i)})
	}
	return k
}

// The rectangle's accumulators are loaded from C before each group's K
// loop, never zeroed: group 0 fills X8–X15 from C columns 0–1, group 1
// from columns 2–3.
func TestLowerAMD64PreloadsAccumulators(t *testing.T) {
	src, err := LowerAMD64("trmm", rectIR(5))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if strings.Contains(text, "XORPD") {
		t.Fatalf("rectangle zeroes an accumulator:\n%s", text)
	}
	for g, sec := range []string{
		text[strings.Index(text, "MOVQ pa+0(FP)"):strings.Index(text, "loop0:")],
		text[strings.Index(text, "save0:"):strings.Index(text, "loop1:")],
	} {
		cols := [2][]string{{"(DX)", "(DX)(R8*1)"}, {"(DX)(R8*2)", "(DX)(R9*1)"}}[g]
		for x := 8; x < 16; x++ {
			col, row := cols[(x-8)/4], (x-8)%4
			want := fmt.Sprintf("\tMOVUPD %s, X%d\n", col, x)
			if row > 0 {
				want = fmt.Sprintf("\tMOVUPD %d%s, X%d\n", 16*row, col, x)
			}
			if !strings.Contains(sec, want) {
				t.Errorf("group %d does not preload X%d with %q:\n%s", g, x, want, sec)
			}
		}
	}
}

// X is read through the run-time column stride: ldx blocks in R10 (3·ldx
// in R11), column c at DI + c·R10, and DI advances one block per K step.
func TestLowerAMD64StridesX(t *testing.T) {
	src, err := LowerAMD64("trmm", rectIR(7))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, want := range []string{
		"\tMOVQ ldx+32(FP), R10\n\tSHLQ $4, R10\n\tLEAQ (R10)(R10*2), R11\n",
		"\tMOVUPD (DI), X6\n", "\tMOVUPD (DI)(R10*1), X6\n",
		"\tMOVUPD (DI)(R10*2), X6\n", "\tMOVUPD (DI)(R11*1), X6\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\tADDQ $16, DI\n"); n != 2 {
		t.Errorf("DI advances by one block %d times, want once per group's K step (2)", n)
	}
	if strings.Contains(text, "112(DI)") || strings.Contains(text, "224(DI)") {
		t.Errorf("an X column is addressed by its generated stride, not ldx:\n%s", text)
	}
}

// The diagonal multiply FMUL r, r, d is one MULPD into r's register;
// only the FMLA's product goes through the temporary (X15 in a
// triangle). The column loop steps DI by ldb.
func TestLowerAMD64InPlaceFMUL(t *testing.T) {
	src, err := LowerAMD64("trmm", triIR(2))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if strings.Count(text, "MULPD") != 3 || strings.Count(text, "MOVAPD") != 1 || strings.Count(text, "ADDPD") != 1 {
		t.Fatalf("want 3 MULPD (2 FMUL, 1 FMLA), 1 MOVAPD and 1 ADDPD:\n%s", text)
	}
	if !strings.Contains(text, "\tMOVAPD X1, X15\n") || !strings.Contains(text, "\tADDQ R8, DI\n\tDECQ CX\n\tJNE loop\n") {
		t.Fatalf("want the product in X15 and a column loop over ldb:\n%s", text)
	}
	fmul := text[strings.Index(text, "// fmul v1.2d, v1.2d, v6.2d"):]
	if lines := strings.SplitN(fmul, "\n", 4); lines[1] != "\tMOVUPD 16(DI), X4" || lines[2] != "\tMULPD X2, X4" {
		t.Fatalf("in-place FMUL lowers to %q, want a load of V1 then MULPD X2, X4", lines[1:3])
	}
}

// The TRMM forms lower FMLS as MOVAPx, MULPx, SUBPx (in the rectangle
// the temporary is X7, in the triangle X15), and refuse what they cannot
// run exactly: a triangle too large for X0–X15 (M = 5 needs 21) and a
// column that overwrites the triangle the loop keeps in registers.
func TestLowerAMD64RejectsTRMM(t *testing.T) {
	if _, err := LowerAMD64("trmm", triIR(4)); err != nil {
		t.Fatalf("M = 4 triangle: %v", err)
	}
	fmlsRect := rectIR(5)
	fmlsRect.Step = append(Prog(nil), fmlsRect.Step...)
	fmlsRect.Step[len(fmlsRect.Step)-1].Op = FMLS
	lowersTo(t, fmlsRect, "fmls v31.2d, v3.2d, v11.2d", "MOVAPD X3, X7", "MULPD X6, X7", "SUBPD X7, X15")
	fmlsTri, keep := triIR(3), triIR(3)
	fmlsTri.Col[len(fmlsTri.Col)-4].Op = FMLS
	lowersTo(t, fmlsTri, "fmls v0.2d, v0.2d, v6.2d", "MOVAPD X6, X15", "MULPD X0, X15", "SUBPD X15, X6")
	keep.Col[3].D = keep.Col[3].B
	for name, k := range map[string]AMD64Kernel{
		"M = 5":               triIR(5),
		"overwrites triangle": keep,
	} {
		if _, err := LowerAMD64("trmm", k); err == nil {
			t.Errorf("%s: lowered without error", name)
		}
	}
}

// The 256-bit form puts rows 2i and 2i+1 of a C column in one YMM
// register: a 4×4 tile's 8 accumulators, 2 A pairs, the B broadcast and
// the temporary fit Y0–Y15, so the K loop runs once, not once per column
// group. Every FMLA is a VMULPD then a VADDPD (never a fused VFMADD),
// the overwrite save never loads C, no SSE register is touched, and
// VZEROUPPER precedes the one RET.
func TestLowerAMD64AVXPairsRows(t *testing.T) {
	k := kernelIR(4, 4)
	k.AVX = true
	src, err := LowerAMD64("gemm", k)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	switch {
	case strings.Count(text, "JNE loop") != 1:
		t.Errorf("want one K loop:\n%s", text)
	case strings.Contains(text, "VFMADD") || strings.Count(text, "VMULPD") != 24 || strings.Count(text, "VADDPD") != 16:
		t.Errorf("want 24 VMULPD (8 step, 8 save, 8 overwrite) and 16 VADDPD:\n%s", text)
	case strings.Contains(text, " X"):
		t.Errorf("the AVX form uses an SSE register:\n%s", text)
	case strings.Count(text, "RET") != 1 || !strings.HasSuffix(text, "\tVZEROUPPER\n\tRET\n"):
		t.Errorf("want VZEROUPPER right before the one RET:\n%s", text)
	case strings.Contains(text[strings.Index(text, "ovw:"):], "VMOVUPD (DX), Y"):
		t.Errorf("overwrite save loads C:\n%s", text)
	}
	// Rows 0 and 1 of column 0: one A load, one B broadcast, one
	// multiply into the temporary Y7 and one add into accumulator Y8.
	lowersTo(t, k, "fmla v17.2d, v1.2d, v8.2d",
		"VMOVUPD (SI), Y0", "VBROADCASTF128 (DI), Y6", "VMULPD Y6, Y0, Y7", "VADDPD Y7, Y8, Y8")
	// Their save: alpha broadcast, C's two rows loaded whole, C + α·acc.
	lowersTo(t, k, "fmla v2.2d, v17.2d, v0.2d",
		"VBROADCASTSD alpha+56(FP), Y0", "VMOVUPD (DX), Y1", "VMULPD Y0, Y8, Y7", "VADDPD Y7, Y1, Y1")
}

// What the 256-bit form cannot pair is refused: complex blocks, an odd
// row count, A blocks or C rows that are not adjacent in memory, a row
// without its partner and a tile too large for one K loop.
func TestLowerAMD64AVXRejects(t *testing.T) {
	for name, mut := range map[string]func(*AMD64GEMM){
		"complex":             func(k *AMD64GEMM) { k.Complex = true },
		"odd rows":            func(k *AMD64GEMM) { *k = kernelIR(3, 4) },
		"A rows apart":        func(k *AMD64GEMM) { k.Step[1].Off = 6 },
		"C rows apart":        func(k *AMD64GEMM) { k.Save[2].Off += 2 },
		"C stores apart":      func(k *AMD64GEMM) { k.Save[10].Off += 2 },
		"row without partner": func(k *AMD64GEMM) { k.Step = append(k.Step[:11:11], k.Step[12:]...) },
		"mixed pair":          func(k *AMD64GEMM) { k.Step[12].Op = FMLS },
		"tile too large":      func(k *AMD64GEMM) { *k = kernelIR(6, 4) },
		"unzeroed half":       func(k *AMD64GEMM) { k.Zero = k.Zero[1:] },
	} {
		k := kernelIR(4, 4)
		mut(&k)
		k.AVX = true
		if _, err := LowerAMD64("gemm", k); err == nil {
			t.Errorf("%s: lowered without error", name)
		}
	}
}
