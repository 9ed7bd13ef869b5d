package ktmpl

import (
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/vec"
)

// Register allocation of the GEMM templates (paper §4.2.1/§4.2.2).
//
// Real types (2mc + 2nc + mc·nc registers):
//
//	A ping-pong buffer b (0,1), block r:  V[b·mc + r]
//	B ping-pong buffer b, block c:        V[2mc + b·nc + c]
//	C accumulator (r, c):                 V[2(mc+nc) + c·mc + r]
//
// Complex types use register pairs (re, im) in the same arrangement
// (4mc + 4nc + 2mc·nc registers). For the 4×4 double-precision kernel this
// reproduces Figure 5 exactly: A in v0–v7, B in v8–v15, C in v16–v31.
type gemmGen struct {
	s    GEMMSpec
	prog asm.Prog
	// xStride, when nonzero, reads the B operand by columns instead of
	// from a packed Z-shaped panel: one block per column, xStride blocks
	// apart, from xPtr (pX for the TRSM/TRMM rectangles' in-place X, pB
	// for the strided GEMM step), advancing one block per K step.
	xStride int
	xPtr    asm.PReg
}

func (g *gemmGen) emit(in asm.Instr) { g.prog = append(g.prog, in) }

// aReg returns the register(s base index) of A buffer b, block r.
func (g *gemmGen) aReg(b, r, comp int) uint8 {
	if g.s.DT.IsComplex() {
		return uint8(2*(b*g.s.MC+r) + comp)
	}
	return uint8(b*g.s.MC + r)
}

func (g *gemmGen) bReg(b, c, comp int) uint8 {
	if g.s.DT.IsComplex() {
		return uint8(4*g.s.MC + 2*(b*g.s.NC+c) + comp)
	}
	return uint8(2*g.s.MC + b*g.s.NC + c)
}

func (g *gemmGen) cReg(r, c, comp int) uint8 {
	if g.s.DT.IsComplex() {
		return uint8(4*(g.s.MC+g.s.NC) + 2*(c*g.s.MC+r) + comp)
	}
	return uint8(2*(g.s.MC+g.s.NC) + c*g.s.MC + r)
}

// loadSeq loads nregs consecutive vector registers starting at reg from
// pointer p, advancing the pointer — the "ldp/add" idiom of Figure 5.
func (g *gemmGen) loadSeq(p asm.PReg, reg, nregs int, cmt string) {
	vl := g.s.vl()
	i := 0
	for ; i+1 < nregs; i += 2 {
		g.emit(asm.Instr{Op: asm.LDP, D: uint8(reg + i), D2: uint8(reg + i + 1), P: p, Comment: cmt})
		cmt = ""
		g.emit(asm.Instr{Op: asm.ADDI, P: p, Off: int32(2 * vl)})
	}
	if i < nregs {
		g.emit(asm.Instr{Op: asm.LDR, D: uint8(reg + i), P: p, Comment: cmt})
		g.emit(asm.Instr{Op: asm.ADDI, P: p, Off: int32(vl)})
	}
}

// loadA loads one K-step of A (mc blocks) into buffer b.
func (g *gemmGen) loadA(b int, cmt string) {
	g.loadSeq(asm.PA, int(g.aReg(b, 0, 0)), g.s.MC*g.s.comps(), cmt)
}

// loadB loads one K-step of B (nc blocks) into buffer b: from the packed
// panel at pB, or, in the strided form, one block per column at stride
// xStride from xPtr, advancing one block row afterwards.
func (g *gemmGen) loadB(b int, cmt string) {
	if g.xStride == 0 {
		g.loadSeq(asm.PB, int(g.bReg(b, 0, 0)), g.s.NC*g.s.comps(), cmt)
		return
	}
	bl := g.s.blockLen()
	for c := 0; c < g.s.NC; c++ {
		off := int32(c * g.xStride * bl)
		if g.s.DT.IsComplex() {
			g.emit(asm.Instr{Op: asm.LDP, D: g.bReg(b, c, 0), D2: g.bReg(b, c, 1), P: g.xPtr, Off: off, Comment: cmt})
		} else {
			g.emit(asm.Instr{Op: asm.LDR, D: g.bReg(b, c, 0), P: g.xPtr, Off: off, Comment: cmt})
		}
		cmt = ""
	}
	g.emit(asm.Instr{Op: asm.ADDI, P: g.xPtr, Off: int32(bl)})
}

// accMode selects the accumulation flavour of the templates: the normal
// GEMM form (TEMPLATE_I overwrites with FMUL, the rest accumulate), the
// FMLS form of the TRSM rectangular kernel (Eq. 4), or the FMLA form of
// the TRMM rectangular kernel — both latter forms preload the C registers
// and never FMUL.
type accMode int

const (
	modeNormal accMode = iota
	modeSub
	modeAdd
)

// compute emits the mc×nc (complex: 4·mc·nc) multiply-accumulate body for
// ping-pong buffer b.
func (g *gemmGen) compute(b int, first bool, mode accMode) {
	for c := 0; c < g.s.NC; c++ {
		for r := 0; r < g.s.MC; r++ {
			if g.s.DT.IsComplex() {
				g.computeComplex(b, r, c, first, mode)
				continue
			}
			op := asm.FMLA
			switch {
			case mode == modeSub:
				op = asm.FMLS
			case mode == modeNormal && first:
				op = asm.FMUL
			}
			g.emit(asm.Instr{Op: op, D: g.cReg(r, c, 0), A: g.aReg(b, r, 0), B: g.bReg(b, c, 0)})
		}
	}
}

// computeComplex emits the four-instruction complex multiply-accumulate:
//
//	Cre ±= Are·Bre ∓ Aim·Bim
//	Cim ±= Are·Bim ± Aim·Bre
func (g *gemmGen) computeComplex(b, r, c int, first bool, mode accMode) {
	ar, ai := g.aReg(b, r, 0), g.aReg(b, r, 1)
	br, bi := g.bReg(b, c, 0), g.bReg(b, c, 1)
	cr, ci := g.cReg(r, c, 0), g.cReg(r, c, 1)
	acc, inv := asm.FMLA, asm.FMLS
	if mode == modeSub {
		acc, inv = asm.FMLS, asm.FMLA
	}
	if first && mode == modeNormal {
		g.emit(asm.Instr{Op: asm.FMUL, D: cr, A: ar, B: br})
		g.emit(asm.Instr{Op: asm.FMLS, D: cr, A: ai, B: bi})
		g.emit(asm.Instr{Op: asm.FMUL, D: ci, A: ar, B: bi})
		g.emit(asm.Instr{Op: asm.FMLA, D: ci, A: ai, B: br})
		return
	}
	g.emit(asm.Instr{Op: acc, D: cr, A: ar, B: br})
	g.emit(asm.Instr{Op: inv, D: cr, A: ai, B: bi})
	g.emit(asm.Instr{Op: acc, D: ci, A: ar, B: bi})
	g.emit(asm.Instr{Op: acc, D: ci, A: ai, B: br})
}

// template emits one of the K-loop templates of Algorithm 2.
func (g *gemmGen) template(t TemplateID, mode accMode) {
	switch t {
	case TplI:
		g.loadA(0, "For I")
		g.loadA(1, "For M2")
		g.loadB(0, "For I")
		g.loadB(1, "For M2")
		g.compute(0, true, mode)
	case TplM1:
		g.loadA(1, "For M2")
		g.loadB(1, "For M2")
		g.compute(0, false, mode)
	case TplM2:
		g.loadA(0, "For M1")
		g.loadB(0, "For M1")
		g.compute(1, false, mode)
	case TplE:
		g.compute(1, false, mode)
	case TplSUB:
		g.loadA(0, "For SUB")
		g.loadB(0, "For SUB")
		g.compute(0, false, mode)
	case TplSAVE:
		g.save(false)
	}
}

// zeroC emits MOVI for every accumulator (the K==1 entry of Algorithm 3).
func (g *gemmGen) zeroC() {
	n := g.s.MC * g.s.NC * g.s.comps()
	base := int(g.cReg(0, 0, 0))
	for i := 0; i < n; i++ {
		g.emit(asm.Instr{Op: asm.MOVI, D: uint8(base + i)})
	}
}

// storeSeq writes nregs consecutive registers starting at reg to p at an
// immediate element offset.
func (g *gemmGen) storeSeq(p asm.PReg, reg, nregs, elemOff int) {
	vl := g.s.vl()
	i := 0
	for ; i+1 < nregs; i += 2 {
		g.emit(asm.Instr{Op: asm.STP, D: uint8(reg + i), D2: uint8(reg + i + 1), P: p, Off: int32(elemOff + i*vl)})
	}
	if i < nregs {
		g.emit(asm.Instr{Op: asm.STR, D: uint8(reg + i), P: p, Off: int32(elemOff + i*vl)})
	}
}

func (g *gemmGen) loadSeqAt(p asm.PReg, reg, nregs, elemOff int, cmt string) {
	vl := g.s.vl()
	i := 0
	for ; i+1 < nregs; i += 2 {
		g.emit(asm.Instr{Op: asm.LDP, D: uint8(reg + i), D2: uint8(reg + i + 1), P: p, Off: int32(elemOff + i*vl), Comment: cmt})
		cmt = ""
	}
	if i < nregs {
		g.emit(asm.Instr{Op: asm.LDR, D: uint8(reg + i), P: p, Off: int32(elemOff + i*vl), Comment: cmt})
	}
}

// save emits TEMPLATE_SAVE: originC ← originC + alpha·acc, column by
// column, reusing the (now dead) A/B registers for alpha and the loaded C
// values. Alpha lives at [pAl] (real) or [pAl], [pAl,#1] (complex re, im).
// ovw emits the beta = 0 overwrite form instead, originC ← alpha·acc: C is
// never loaded and each output's first multiply-accumulate becomes FMUL,
// the rounding sequence of the native kernels' overwrite save.
func (g *gemmGen) save(ovw bool) {
	mc, nc := g.s.MC, g.s.NC
	first := asm.FMLA
	if ovw {
		first = asm.FMUL
	}
	if !g.s.DT.IsComplex() {
		const valpha = 0
		g.emit(asm.Instr{Op: asm.LD1R, D: valpha, P: asm.PAlpha, Comment: "For SAVE: alpha"})
		for c := 0; c < nc; c++ {
			off := c * g.s.StrideC * g.s.blockLen()
			if !ovw {
				g.loadSeqAt(asm.PC, 1, mc, off, "originC")
			}
			for r := 0; r < mc; r++ {
				g.emit(asm.Instr{Op: first, D: uint8(1 + r), A: g.cReg(r, c, 0), B: valpha})
			}
			g.storeSeq(asm.PC, 1, mc, off)
		}
		return
	}
	const valR, valI = 0, 1
	g.emit(asm.Instr{Op: asm.LD1R, D: valR, P: asm.PAlpha, Comment: "For SAVE: alpha.re"})
	g.emit(asm.Instr{Op: asm.LD1R, D: valI, P: asm.PAlpha, Off: 1, Comment: "For SAVE: alpha.im"})
	for c := 0; c < nc; c++ {
		off := c * g.s.StrideC * g.s.blockLen()
		if !ovw {
			g.loadSeqAt(asm.PC, 2, 2*mc, off, "originC")
		}
		for r := 0; r < mc; r++ {
			or, oi := uint8(2+2*r), uint8(2+2*r+1)
			cr, ci := g.cReg(r, c, 0), g.cReg(r, c, 1)
			g.emit(asm.Instr{Op: first, D: or, A: cr, B: valR})
			g.emit(asm.Instr{Op: asm.FMLS, D: or, A: ci, B: valI})
			g.emit(asm.Instr{Op: first, D: oi, A: ci, B: valR})
			g.emit(asm.Instr{Op: asm.FMLA, D: oi, A: cr, B: valI})
		}
		g.storeSeq(asm.PC, 2, 2*mc, off)
	}
}

// body emits the K-loop template sequence of Algorithm 3. sub selects the
// TRSM rectangular variant: FMLS accumulation onto preloaded C registers
// and no TEMPLATE_SAVE scaling.
//
// For odd K ≥ 5 the paper's pseudo-code ends with SUB directly after M2,
// which would re-advance pA/pB past data M2 already consumed; the
// generator instead ends M1, E, SUB, which computes the same K steps with
// each packed element loaded exactly once.
func (g *gemmGen) body(mode accMode) {
	k := g.s.K
	switch {
	case k == 1:
		if mode == modeNormal {
			g.zeroC()
		}
		g.template(TplSUB, mode)
	case k == 2:
		g.template(TplI, mode)
		g.template(TplE, mode)
	case k == 3:
		g.template(TplI, mode)
		g.template(TplE, mode)
		g.template(TplSUB, mode)
	default:
		g.template(TplI, mode)
		g.template(TplM2, mode)
		k -= 2
		for k > 3 {
			g.template(TplM1, mode)
			g.template(TplM2, mode)
			k -= 2
		}
		g.template(TplM1, mode)
		g.template(TplE, mode)
		if k == 3 {
			g.template(TplSUB, mode)
		}
	}
}

// GenGEMM generates the complete compact GEMM computing kernel for the
// spec: the Algorithm 3 template composition followed by TEMPLATE_SAVE.
// Calling convention: pA → packed A panel (N-shape), pB → packed B panel
// (Z-shape), pC → C tile, pAl → alpha.
func GenGEMM(s GEMMSpec) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &gemmGen{s: s}
	g.body(modeNormal)
	g.template(TplSAVE, modeNormal)
	return g.prog, nil
}

// GEMMLoop is a GEMM kernel cut into the pieces a machine-code backend
// wraps around a run-time K loop instead of unrolling K: Zero clears the
// accumulators (MOVI), Step is one TEMPLATE_SUB K step, Save is
// TEMPLATE_SAVE (C += alpha·acc) and SaveOvw its beta = 0 overwrite form
// (C = alpha·acc). Every Step advances pA past one K step of the packed
// A panel, and pB past one K step of B.
type GEMMLoop struct {
	Zero, Step, Save, SaveOvw asm.Prog
}

// GenGEMMLoop generates the GEMMLoop pieces of a spec; s.K is ignored.
// strideB picks how Step reads B. At 0 it reads the packed Z-shaped
// panel and advances pB past its nc blocks. At n > 0 it reads one block
// per column, n blocks apart, and advances pB one block: the strided-B
// form, which reads a NoTrans B where the compact layout stores it, and
// in which a machine-code backend replaces the column distance and the
// one-block K step by run-time strides.
func GenGEMMLoop(s GEMMSpec, strideB int) (GEMMLoop, error) {
	s.K = 1
	if err := s.Validate(); err != nil {
		return GEMMLoop{}, err
	}
	part := func(emit func(g *gemmGen)) asm.Prog {
		g := &gemmGen{s: s, xStride: strideB, xPtr: asm.PB}
		emit(g)
		return g.prog
	}
	return GEMMLoop{
		Zero:    part(func(g *gemmGen) { g.zeroC() }),
		Step:    part(func(g *gemmGen) { g.template(TplSUB, modeNormal) }),
		Save:    part(func(g *gemmGen) { g.save(false) }),
		SaveOvw: part(func(g *gemmGen) { g.save(true) }),
	}, nil
}

// GenGEMMNoPingPong generates the kernel without the ping-pong double
// buffering: every K step is a TEMPLATE_SUB (load what you need, compute).
// This is the ablation baseline for the paper's pipeline-bubble argument —
// each step's computation directly depends on the loads just issued.
func GenGEMMNoPingPong(s GEMMSpec) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l, err := GenGEMMLoop(s, 0)
	if err != nil {
		return nil, err
	}
	prog := append(asm.Prog(nil), l.Zero...)
	for k := 0; k < s.K; k++ {
		prog = append(prog, l.Step...)
	}
	return append(prog, l.Save...), nil
}

// GenGEMMTemplate generates a single template in isolation — the form the
// paper's Figure 5 displays (TEMPLATE_I of the 4×4 DGEMM kernel).
func GenGEMMTemplate(s GEMMSpec, t TemplateID) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &gemmGen{s: s}
	g.template(t, modeNormal)
	return g.prog, nil
}

// GEMMFirstIsFirstK reports K-step accounting used by tests: total A
// blocks loaded by a generated kernel must equal MC·K.
func GEMMFirstIsFirstK(s GEMMSpec, p asm.Prog) error {
	wantA := s.MC * s.comps() * s.K
	got := 0
	for _, in := range p {
		if in.Op == asm.LDP && in.P == asm.PA {
			got += 2
		}
		if in.Op == asm.LDR && in.P == asm.PA {
			got++
		}
	}
	if got != wantA {
		return fmt.Errorf("ktmpl: kernel loads %d A registers, want %d", got, wantA)
	}
	return nil
}

// GenGEMMAMD64 generates internal/kernels/gemm_amd64.s: the Table 1
// main kernels, 4×4 for s/d and 3×2 for c/z, lowered to SSE2 Go assembly
// as gemm4x4s, gemm4x4d, gemm3x2c and gemm3x2z, and the real ones again
// to 256-bit AVX as gemm4x4sAVX and gemm4x4dAVX. Each runs one strided-B
// TEMPLATE_SUB per iteration of a run-time K loop, with B's K-step and
// column strides and C's column stride as run-time arguments.
func GenGEMMAMD64() ([]byte, error) {
	var ks []asm.AMD64Kernel
	for _, v := range []struct {
		dt  vec.DType
		avx bool
	}{{vec.S, false}, {vec.D, false}, {vec.C, false}, {vec.Z, false}, {vec.S, true}, {vec.D, true}} {
		sz := MainGEMMKernel(v.dt)
		s := GEMMSpec{DT: v.dt, MC: sz.MC, NC: sz.NC, StrideC: sz.MC}
		l, err := GenGEMMLoop(s, sz.MC)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("gemm%dx%d%v", sz.MC, sz.NC, v.dt)
		if v.avx {
			name += "AVX"
		}
		ks = append(ks, asm.AMD64GEMM{
			Name:      name,
			ElemBytes: v.dt.ElemBytes(),
			Complex:   v.dt.IsComplex(),
			StrideB:   sz.MC, StrideC: s.StrideC,
			Zero: l.Zero, Step: l.Step, Save: l.Save, SaveOvw: l.SaveOvw,
			AVX: v.avx,
		})
	}
	return asm.LowerAMD64("gemm", ks...)
}
