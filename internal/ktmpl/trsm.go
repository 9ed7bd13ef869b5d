package ktmpl

import (
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/vec"
)

// MaxTriM returns the largest triangular-block size whose A triangle fits
// in registers alongside a ping-pong pair of B columns (paper §4.2.2):
// 2M + M(M+1)/2 ≤ 32 gives M ≤ 5 for real types; the complex equivalent
// 4M + M(M+1) ≤ 32 gives M ≤ 3.
func MaxTriM(dt vec.DType) int {
	if dt.IsComplex() {
		return 3
	}
	return 5
}

// TriRegistersNeeded returns the vector-register demand of the triangular
// kernel for block size m.
func TriRegistersNeeded(dt vec.DType, m int) int {
	if dt.IsComplex() {
		return 4*m + m*(m+1)
	}
	return 2*m + m*(m+1)/2
}

// TriSpec determines one generated compact TRSM triangular kernel
// (Algorithm 4). The kernel solves the canonical form — lower triangular,
// non-transposed — against NCols columns of B in place; the packing stage
// canonicalizes every Side/Uplo/Trans/Diag mode into this form, with the
// diagonal stored as reciprocals so the kernel multiplies instead of
// dividing.
//
// Calling convention: pA → packed triangle (row-wise, M(M+1)/2 blocks),
// pB → first B column of the tile. Column c of B lives at element offset
// c·StrideB·blockLen from pB.
type TriSpec struct {
	DT      vec.DType
	M       int // triangle size, 1..MaxTriM
	NCols   int // columns of B solved by this kernel
	StrideB int // blocks between consecutive B columns in storage
	VL      int // lane override (0 = native)
	// DivDiag emits FDIV by the (non-reciprocal) diagonal instead of FMUL
	// by the packed reciprocal — the ablation for the reciprocal-diagonal
	// packing design (§4.4). Real types only.
	DivDiag bool
}

func (s TriSpec) vl() int {
	if s.VL != 0 {
		return s.VL
	}
	return s.DT.Pack()
}

func (s TriSpec) comps() int {
	if s.DT.IsComplex() {
		return 2
	}
	return 1
}

func (s TriSpec) blockLen() int { return s.vl() * s.comps() }

// Validate checks the register budget of Algorithm 4.
func (s TriSpec) Validate() error {
	if s.M < 1 || s.M > MaxTriM(s.DT) {
		return fmt.Errorf("ktmpl: triangular kernel M=%d outside 1..%d for %v", s.M, MaxTriM(s.DT), s.DT)
	}
	if s.NCols < 1 {
		return fmt.Errorf("ktmpl: triangular kernel NCols=%d invalid", s.NCols)
	}
	if s.StrideB < s.M {
		return fmt.Errorf("ktmpl: StrideB=%d smaller than M=%d", s.StrideB, s.M)
	}
	if s.DivDiag && s.DT.IsComplex() {
		return fmt.Errorf("ktmpl: DivDiag ablation is real-only")
	}
	return nil
}

type triGen struct {
	s    TriSpec
	prog asm.Prog
}

func (g *triGen) emit(in asm.Instr) { g.prog = append(g.prog, in) }

// bReg returns the register of B row i in ping-pong buffer b.
func (g *triGen) bReg(b, i, comp int) uint8 {
	return uint8((b*g.s.M+i)*g.s.comps() + comp)
}

// aReg returns the register of triangle block (i, j), j ≤ i, stored
// row-wise after the B buffers.
func (g *triGen) aReg(i, j, comp int) uint8 {
	base := 2 * g.s.M * g.s.comps()
	return uint8(base + (i*(i+1)/2+j)*g.s.comps() + comp)
}

// scratch registers for the in-place complex diagonal multiply; the
// register budget proof (TriRegistersNeeded ≤ 24 for complex M ≤ 3)
// guarantees V30/V31 are free.
const (
	triScratch0 = 30
	triScratch1 = 31
)

// loadCol loads B column c into buffer b at its storage offset.
func (g *triGen) loadCol(b, c int, cmt string) {
	off := c * g.s.StrideB * g.s.blockLen()
	n := g.s.M * g.s.comps()
	reg := int(g.bReg(b, 0, 0))
	vl := g.s.vl()
	i := 0
	for ; i+1 < n; i += 2 {
		g.emit(asm.Instr{Op: asm.LDP, D: uint8(reg + i), D2: uint8(reg + i + 1), P: asm.PB, Off: int32(off + i*vl), Comment: cmt})
		cmt = ""
	}
	if i < n {
		g.emit(asm.Instr{Op: asm.LDR, D: uint8(reg + i), P: asm.PB, Off: int32(off + i*vl), Comment: cmt})
	}
}

// storeCol writes buffer b back to B column c.
func (g *triGen) storeCol(b, c int) {
	off := c * g.s.StrideB * g.s.blockLen()
	n := g.s.M * g.s.comps()
	reg := int(g.bReg(b, 0, 0))
	vl := g.s.vl()
	i := 0
	for ; i+1 < n; i += 2 {
		g.emit(asm.Instr{Op: asm.STP, D: uint8(reg + i), D2: uint8(reg + i + 1), P: asm.PB, Off: int32(off + i*vl)})
	}
	if i < n {
		g.emit(asm.Instr{Op: asm.STR, D: uint8(reg + i), P: asm.PB, Off: int32(off + i*vl)})
	}
}

// solveCol emits the forward substitution of Algorithm 4 lines 6–9 for the
// column in buffer b: for each row i, subtract the already-solved rows and
// multiply by the reciprocal diagonal.
func (g *triGen) solveCol(b int) {
	for i := 0; i < g.s.M; i++ {
		for j := 0; j < i; j++ {
			if g.s.DT.IsComplex() {
				// B[i] -= A(i,j)·B[j], complex.
				bir, bii := g.bReg(b, i, 0), g.bReg(b, i, 1)
				ar, ai := g.aReg(i, j, 0), g.aReg(i, j, 1)
				xr, xi := g.bReg(b, j, 0), g.bReg(b, j, 1)
				g.emit(asm.Instr{Op: asm.FMLS, D: bir, A: ar, B: xr})
				g.emit(asm.Instr{Op: asm.FMLA, D: bir, A: ai, B: xi})
				g.emit(asm.Instr{Op: asm.FMLS, D: bii, A: ar, B: xi})
				g.emit(asm.Instr{Op: asm.FMLS, D: bii, A: ai, B: xr})
				continue
			}
			g.emit(asm.Instr{Op: asm.FMLS, D: g.bReg(b, i, 0), A: g.aReg(i, j, 0), B: g.bReg(b, j, 0)})
		}
		// Multiply by the reciprocal diagonal (packing stored 1/a_ii).
		if g.s.DT.IsComplex() {
			br, bi := g.bReg(b, i, 0), g.bReg(b, i, 1)
			dr, di := g.aReg(i, i, 0), g.aReg(i, i, 1)
			g.emit(asm.Instr{Op: asm.MOVV, D: triScratch0, A: br})
			g.emit(asm.Instr{Op: asm.MOVV, D: triScratch1, A: bi})
			g.emit(asm.Instr{Op: asm.FMUL, D: br, A: triScratch0, B: dr})
			g.emit(asm.Instr{Op: asm.FMLS, D: br, A: triScratch1, B: di})
			g.emit(asm.Instr{Op: asm.FMUL, D: bi, A: triScratch0, B: di})
			g.emit(asm.Instr{Op: asm.FMLA, D: bi, A: triScratch1, B: dr})
			continue
		}
		r := g.bReg(b, i, 0)
		op := asm.FMUL
		if g.s.DivDiag {
			op = asm.FDIV
		}
		g.emit(asm.Instr{Op: op, D: r, A: r, B: g.aReg(i, i, 0)})
	}
}

// GenTRSMTri generates the triangular computing kernel: load the whole
// triangle into registers once (Algorithm 4 lines 1–3), then solve the B
// columns with ping-pong double buffering — while column l is being
// solved, column l+1 is already loading.
func GenTRSMTri(s TriSpec) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &triGen{s: s}
	g.loadTri()
	g.loadCol(0, 0, "For column 0")
	for l := 0; l < s.NCols; l++ {
		buf := l % 2
		if l+1 < s.NCols {
			g.loadCol(1-buf, l+1, fmt.Sprintf("For column %d", l+1))
		}
		g.solveCol(buf)
		g.storeCol(buf, l)
	}
	return g.prog, nil
}

// loadTri loads the packed triangle, M(M+1)/2 blocks contiguous from pA,
// into its registers.
func (g *triGen) loadTri() {
	nregs := (g.s.M * (g.s.M + 1) / 2) * g.s.comps()
	base := int(g.aReg(0, 0, 0))
	vl := g.s.vl()
	cmt := "load triangle of A"
	i := 0
	for ; i+1 < nregs; i += 2 {
		g.emit(asm.Instr{Op: asm.LDP, D: uint8(base + i), D2: uint8(base + i + 1), P: asm.PA, Off: int32(i * vl), Comment: cmt})
		cmt = ""
	}
	if i < nregs {
		g.emit(asm.Instr{Op: asm.LDR, D: uint8(base + i), P: asm.PA, Off: int32(i * vl), Comment: cmt})
	}
}

// RectSpec determines one generated TRSM rectangular kernel — the
// fixed-format GEMM of Eq. 4 (alpha = −1, beta = 1) realized with FMLS so
// that the mc·nc extra multiplies of a general GEMM SAVE are not paid. The
// kernel updates a B tile in place:
//
//	B[tile] -= L(panel, 0..K-1) · X(0..K-1, tile)
//
// Calling convention: pA → packed L row panel (column-major blocks,
// contiguous), pX → solved X rows (column c at offset c·StrideX blocks),
// pC → B tile being updated (column c at offset c·StrideC blocks).
type RectSpec struct {
	DT      vec.DType
	MC      int // tile rows (panel height)
	NC      int // tile columns
	K       int // rows already solved above this panel
	StrideC int // blocks between B-tile columns (the matrix row count)
	StrideX int // blocks between X columns (the matrix row count)
	VL      int
}

func (s RectSpec) gemm() GEMMSpec {
	return GEMMSpec{DT: s.DT, MC: s.MC, NC: s.NC, K: s.K, StrideC: s.StrideC, VL: s.VL}
}

// Validate checks the register budget (same as the GEMM templates).
func (s RectSpec) Validate() error {
	if s.StrideX < 1 {
		return fmt.Errorf("ktmpl: StrideX=%d invalid", s.StrideX)
	}
	return s.gemm().Validate()
}

// GenTRSMRect generates the rectangular update kernel: preload the B tile
// into the accumulator registers, run the Algorithm 3 template sequence in
// FMLS form reading X with per-column strides, and store the tile back.
func GenTRSMRect(s RectSpec) (asm.Prog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &gemmGen{s: s.gemm(), xStride: s.StrideX, xPtr: asm.PX}
	g.loadTile()
	g.body(modeSub)
	g.storeTile()
	return g.prog, nil
}

// loadTile preloads the B tile into the C accumulators, column by column.
func (g *gemmGen) loadTile() {
	cmt := "preload B tile"
	for c := 0; c < g.s.NC; c++ {
		g.loadSeqAt(asm.PC, int(g.cReg(0, c, 0)), g.s.MC*g.s.comps(), c*g.s.StrideC*g.s.blockLen(), cmt)
		cmt = ""
	}
}

// storeTile writes the accumulators back to the B tile.
func (g *gemmGen) storeTile() {
	for c := 0; c < g.s.NC; c++ {
		g.storeSeq(asm.PC, int(g.cReg(0, c, 0)), g.s.MC*g.s.comps(), c*g.s.StrideC*g.s.blockLen())
	}
}
