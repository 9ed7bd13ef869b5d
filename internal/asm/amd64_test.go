package asm

import (
	"strings"
	"testing"
)

// lowerable is a 2×1 real kernel in the shape ktmpl emits: A in V0–V1,
// B in V8, accumulators V16–V17, alpha in V0 and C in V1–V2 at save.
func lowerable() AMD64GEMM {
	return AMD64GEMM{
		Name: "k", ElemBytes: 8, StrideC: 2,
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

// kernelIR is a rows×cols real float64 kernel in ktmpl's register
// layout, one block per LDR/STR: A in V0…, B in V8…, the accumulator of
// (r, c) in V16+c·rows+r, alpha in V0 and C in V1… at save.
func kernelIR(rows, cols int) AMD64GEMM {
	k := AMD64GEMM{Name: "k", ElemBytes: 8, StrideC: rows}
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
	k.Step = append(k.Step, Instr{Op: ADDI, P: PB, Off: int32(2 * cols)})
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
	src, err := LowerAMD64(kernelIR(4, 4))
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
	src, err := LowerAMD64(lowerable())
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
		"fused subtract":   func(k *AMD64GEMM) { k.Step[4].Op = FMLS },
		"no accumulate":    func(k *AMD64GEMM) { k.Step = k.Step[:4] },
		"unzeroed":         func(k *AMD64GEMM) { k.Zero = k.Zero[:1] },
		"alpha offset":     func(k *AMD64GEMM) { k.Save[0].Off = 1 },
		"read before load": func(k *AMD64GEMM) { k.Save = k.Save[2:] },
		"store to pA":      func(k *AMD64GEMM) { k.SaveOvw[3].P = PA },
	} {
		k := lowerable()
		k.Step, k.Save, k.SaveOvw = append(Prog(nil), k.Step...), append(Prog(nil), k.Save...), append(Prog(nil), k.SaveOvw...)
		mut(&k)
		if _, err := LowerAMD64(k); err == nil {
			t.Errorf("%s: lowered without error", name)
		}
	}
}
