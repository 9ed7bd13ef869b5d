package ktmpl

import (
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/vec"
)

// TRMM kernel generation — the IR twins of the native TRMM kernels, so
// the extension routine runs on the VM/cycle-model backend exactly like
// GEMM and TRSM.

// GenTRMMTri generates the triangular multiply kernel: the register-
// resident triangle (true diagonal values, ones for Unit handled by
// packing) multiplies NCols columns of B in place, rows bottom-up so
// still-original values feed each row's accumulation. The TriSpec calling
// convention matches GenTRSMTri; DivDiag is rejected.
func GenTRMMTri(s TriSpec) (asm.Prog, error) {
	g, err := newTRMMTri(s)
	if err != nil {
		return nil, err
	}
	g.loadTri()
	g.loadCol(0, 0, "For column 0")
	for l := 0; l < s.NCols; l++ {
		buf := l % 2
		if l+1 < s.NCols {
			g.loadCol(1-buf, l+1, fmt.Sprintf("For column %d", l+1))
		}
		g.mulCol(buf)
		g.storeCol(buf, l)
	}
	return g.prog, nil
}

func newTRMMTri(s TriSpec) (*triGen, error) {
	if s.DivDiag {
		return nil, fmt.Errorf("ktmpl: TRMM has no division to ablate")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &triGen{s: s}, nil
}

// TRMMTriLoop is the TRMM triangle kernel cut into the pieces a
// machine-code backend wraps around a run-time column loop: Load brings
// the packed triangle into registers once, and Col multiplies the B
// column at pB in place (load, bottom-up multiply, store). Col leaves pB
// where it is; the backend steps it by the column stride.
type TRMMTriLoop struct {
	Load, Col asm.Prog
}

// GenTRMMTriLoop generates the TRMMTriLoop pieces of a spec; s.NCols and
// s.StrideB are ignored.
func GenTRMMTriLoop(s TriSpec) (TRMMTriLoop, error) {
	s.NCols, s.StrideB = 1, s.M
	g, err := newTRMMTri(s)
	if err != nil {
		return TRMMTriLoop{}, err
	}
	g.loadTri()
	load := g.prog
	g.prog = nil
	g.loadCol(0, 0, "For column 0")
	g.mulCol(0)
	g.storeCol(0, 0)
	return TRMMTriLoop{Load: load, Col: g.prog}, nil
}

// mulCol emits the bottom-up triangular multiply for the column in
// buffer b: x_i = Σ_{j<i} a(i,j)·x_j + a(i,i)·x_i, rows descending.
func (g *triGen) mulCol(b int) {
	for i := g.s.M - 1; i >= 0; i-- {
		if g.s.DT.IsComplex() {
			g.mulColComplexRow(b, i)
			continue
		}
		r := g.bReg(b, i, 0)
		// x_i *= a_ii first (x_i's old value is only needed here), then
		// accumulate the sub-diagonal terms from still-original rows.
		g.emit(asm.Instr{Op: asm.FMUL, D: r, A: r, B: g.aReg(i, i, 0)})
		for j := 0; j < i; j++ {
			g.emit(asm.Instr{Op: asm.FMLA, D: r, A: g.aReg(i, j, 0), B: g.bReg(b, j, 0)})
		}
	}
}

// mulColComplexRow emits one complex row of the bottom-up multiply using
// the two scratch registers for the in-place complex product.
func (g *triGen) mulColComplexRow(b, i int) {
	br, bi := g.bReg(b, i, 0), g.bReg(b, i, 1)
	dr, di := g.aReg(i, i, 0), g.aReg(i, i, 1)
	// (br, bi) := (br, bi)·(dr, di), via scratch copies of the old value.
	g.emit(asm.Instr{Op: asm.MOVV, D: triScratch0, A: br})
	g.emit(asm.Instr{Op: asm.MOVV, D: triScratch1, A: bi})
	g.emit(asm.Instr{Op: asm.FMUL, D: br, A: triScratch0, B: dr})
	g.emit(asm.Instr{Op: asm.FMLS, D: br, A: triScratch1, B: di})
	g.emit(asm.Instr{Op: asm.FMUL, D: bi, A: triScratch0, B: di})
	g.emit(asm.Instr{Op: asm.FMLA, D: bi, A: triScratch1, B: dr})
	// += a(i,j)·x_j for the still-original rows.
	for j := 0; j < i; j++ {
		ar, ai := g.aReg(i, j, 0), g.aReg(i, j, 1)
		xr, xi := g.bReg(b, j, 0), g.bReg(b, j, 1)
		g.emit(asm.Instr{Op: asm.FMLA, D: br, A: ar, B: xr})
		g.emit(asm.Instr{Op: asm.FMLS, D: br, A: ai, B: xi})
		g.emit(asm.Instr{Op: asm.FMLA, D: bi, A: ar, B: xi})
		g.emit(asm.Instr{Op: asm.FMLA, D: bi, A: ai, B: xr})
	}
}

// GenTRMMRect generates the rectangular accumulation kernel of the
// blocked TRMM: B_tile += L·X — the FMLA twin of the TRSM rectangular
// kernel, with the same calling convention.
func GenTRMMRect(s RectSpec) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &gemmGen{s: s.gemm(), xStride: s.StrideX, xPtr: asm.PX}
	g.loadTile()
	g.body(modeAdd)
	g.storeTile()
	return g.prog, nil
}

// TRMMRectLoop is the TRMM rectangle kernel cut around a run-time K loop,
// as GEMMLoop cuts GEMM: Preload loads the B tile into the accumulators,
// Step is one TEMPLATE_SUB K step in FMLA form (A from pA, one X block
// per column from pX at the column stride; both advance) and Store
// writes the tile back.
type TRMMRectLoop struct {
	Preload, Step, Store asm.Prog
}

// GenTRMMRectLoop generates the TRMMRectLoop pieces of a spec; s.K is
// ignored.
func GenTRMMRectLoop(s RectSpec) (TRMMRectLoop, error) {
	s.K = 1
	if err := s.Validate(); err != nil {
		return TRMMRectLoop{}, err
	}
	part := func(emit func(g *gemmGen)) asm.Prog {
		g := &gemmGen{s: s.gemm(), xStride: s.StrideX, xPtr: asm.PX}
		emit(g)
		return g.prog
	}
	return TRMMRectLoop{
		Preload: part(func(g *gemmGen) { g.loadTile() }),
		Step:    part(func(g *gemmGen) { g.template(TplSUB, modeAdd) }),
		Store:   part(func(g *gemmGen) { g.storeTile() }),
	}, nil
}

// GenTRMMAMD64 generates internal/kernels/trmm_amd64.s: the s/d TRMM
// triangles for M = 1…4 and the 4×4 rectangle, lowered to SSE2 Go
// assembly as trmmTri<M><t> and trmmRect4x4<t>, each with its column or
// K loop at run time. M = 5 needs 21 X registers and stays in Go.
func GenTRMMAMD64() ([]byte, error) {
	var ks []asm.AMD64Kernel
	for _, dt := range []vec.DType{vec.S, vec.D} {
		for m := 1; m <= 4; m++ {
			l, err := GenTRMMTriLoop(TriSpec{DT: dt, M: m})
			if err != nil {
				return nil, err
			}
			ks = append(ks, asm.AMD64TriMul{
				Name: fmt.Sprintf("trmmTri%d%v", m, dt), ElemBytes: dt.ElemBytes(),
				Load: l.Load, Col: l.Col,
			})
		}
		sz := MainTRSMKernel(dt)
		s := RectSpec{DT: dt, MC: sz.MC, NC: sz.NC, StrideC: sz.MC, StrideX: sz.MC}
		l, err := GenTRMMRectLoop(s)
		if err != nil {
			return nil, err
		}
		ks = append(ks, asm.AMD64RectAdd{
			Name: fmt.Sprintf("trmmRect%dx%d%v", sz.MC, sz.NC, dt), ElemBytes: dt.ElemBytes(),
			StrideC: s.StrideC, StrideX: s.StrideX,
			Preload: l.Preload, Step: l.Step, Store: l.Store,
		})
	}
	return asm.LowerAMD64("trmm", ks...)
}
