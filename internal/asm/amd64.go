package asm

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Lowering of kernel IR to Go amd64 assembly (SSE2, and AVX for the real
// GEMM kernel).
//
// The IR is written for the 32-register NEON file; SSE2, which every
// amd64 CPU has, gives X0–X15. Three kernel forms are lowered:
//
//   - AMD64GEMM, the GEMM main kernel, real or complex: accumulators
//     zeroed, a K loop over packed A and a B read in place through a
//     run-time K-step and column stride, then the alpha save.
//   - AMD64RectAdd, the TRMM rectangle: accumulators preloaded from C, a
//     K loop over packed A and an X read through a run-time row and
//     column stride, then the tile stored back; C's rows share X's row
//     stride.
//   - AMD64TriMul, the TRMM triangle: the packed triangle loaded into
//     registers once, then a loop over B columns cs blocks apart, each
//     multiplied in place with its rows rs apart.
//
// Row strides may be negative: amd64 addressing adds a signed index.
//
// The tile forms split the C tile into column groups, one column per B
// block (a complex column's re and im B registers count once), and run
// the K loop once per group. A group's accumulators take the top X
// registers, the product temporary the one below them and the B block's
// registers (one real; re and im complex) the ones below that. Every
// other IR register keeps its number, so A blocks must lie below B, and
// the save's alpha and loaded C below the temporary. A real 4×4 tile
// runs as two 4×2 halves (4 A + 1 B + 1 + 8 accumulators), a complex
// 3×2 tile as two 3×1 halves (6 A + 2 B + 1 + 6 accumulators). The
// ping-pong buffers are dropped: A blocks keep their own registers and
// each B (or X) block is loaded into the B registers right before the
// multiply-accumulates that read it. Loads are emitted lazily, at first
// use, so a group loads only the blocks it computes with.
//
// An FMLA becomes MULPS/MULPD into the temporary, then ADDPS/ADDPD; an
// FMLS the same multiply, then SUBPS/SUBPD. That is two roundings, as in
// vec.FMA, vec.FMS and the pure-Go kernels, so the generated code is
// bit-identical to both. A fused VFMADD would not be. An FMUL whose
// destination is its first source (the triangle's diagonal multiply)
// becomes one MULPS/MULPD into that register.
//
// A real AMD64GEMM with AVX set lowers instead to 256-bit VEX code on
// Y0–Y15, two rows of a C column per register (ymmGen). The kernels
// package picks that form or the SSE2 one per process from CPUID.

// numXRegs is the SSE2 register file, X0–X15.
const numXRegs = 16

// AMD64Kernel is one kernel LowerAMD64 renders as a Go assembly
// function: an AMD64GEMM, AMD64RectAdd or AMD64TriMul.
type AMD64Kernel interface {
	lowerAMD64(g *amd64Gen) error
}

// AMD64GEMM is one GEMM micro-kernel to lower, given as the
// ktmpl.GEMMLoop pieces of its strided-B spec. The generated TEXT block
// implements
//
//	func Name(pa, pb, c *E, k, ldbk, ldbc, ldc int, alpha E, ovw bool)
//	func Name(pa, pb, c *E, k, ldbk, ldbc, ldc int, alphaRe, alphaIm E, ovw bool)
//
// (real, then complex) for E float32 (ElemBytes 4) or float64
// (ElemBytes 8): k K steps over packed A, B block (l, j) at pb +
// l·ldbk + j·ldbc blocks, C columns ldc blocks apart, and ovw selecting
// SaveOvw over Save. A complex block is a [re|im] pair of 128-bit
// registers.
type AMD64GEMM struct {
	Name      string
	ElemBytes int
	Complex   bool
	// StrideB and StrideC are the column distances, in blocks, the B and
	// C offsets were generated with; the lowered code reads ldbc and
	// ldc. Step advances pB by one block, which the lowered code
	// replaces by ldbk.
	StrideB, StrideC          int
	Zero, Step, Save, SaveOvw Prog
	// AVX lowers a real kernel to 256-bit AVX instead of SSE2.
	AVX bool
}

// AMD64RectAdd is the real TRMM rectangle kernel to lower, given as the
// ktmpl.TRMMRectLoop pieces of its spec. The generated TEXT block
// implements
//
//	func Name(pa, x, c *E, k, rs, ldx, ldc int)
//
// C += A·X over k K steps: X block (l, j) at x + l·rs + j·ldx blocks, C
// block (r, j) at c + r·rs + j·ldc. The group that computes C's first
// columns stores them before the next group reads X, so X and C must not
// share elements.
type AMD64RectAdd struct {
	Name      string
	ElemBytes int
	// StrideC and StrideX are the column distances, in blocks, the C and
	// X offsets were generated with; the lowered code reads ldc and ldx.
	// Step advances pX by one block and C's rows are one block apart in
	// the IR; the lowered code replaces both by rs.
	StrideC, StrideX     int
	Preload, Step, Store Prog
}

// AMD64TriMul is the real TRMM triangle kernel to lower, given as the
// ktmpl.TRMMTriLoop pieces of its spec. The generated TEXT block
// implements
//
//	func Name(pa, b *E, ncols, rs, cs int)
//
// multiplying ncols B columns in place by the packed triangle at pa, B
// block (i, l) at b + i·rs + l·cs blocks. The triangle, the column and
// the product temporary must fit X0–X15 together, and the column at most
// 4 rows.
type AMD64TriMul struct {
	Name      string
	ElemBytes int
	Load, Col Prog
}

// LowerAMD64 renders the kernels as one Go assembly file; op names the
// templates they come from (gemm, trmm) and the iatf-asm -op that writes
// the file. The file is left out of purego builds, whose kernels package
// keeps the pure-Go kernels.
func LowerAMD64(op string, ks ...AMD64Kernel) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by iatf-asm -op %s-amd64 from the ktmpl %s templates; DO NOT EDIT.\n\n", op, strings.ToUpper(op))
	b.WriteString("//go:build !purego\n\n#include \"textflag.h\"\n")
	for _, k := range ks {
		g := &amd64Gen{w: &b}
		if err := k.lowerAMD64(g); err != nil {
			return nil, fmt.Errorf("asm: lowering %s: %w", g.fn, err)
		}
	}
	return b.Bytes(), nil
}

// pending is an IR register's value that is still in memory: the operand
// to load it from, and whether the load is a broadcast (LD1R).
type pending struct {
	mem   string
	bcast bool
}

// addressing is how the operands of one pointer register are addressed:
// off a base register, and, for a tile read by columns, the element
// distance between its columns in the IR offsets and the registers
// holding 1× and 3× the run-time distance in bytes. kstep, when set,
// holds the run-time K step in bytes, by which a tile step advances the
// base instead of the one block its IR adds. rows, when set, holds 1×
// and 3× the run-time row stride in bytes: IR row r of a column (r
// blocks on) lies at r·rows[0] from the column's base, which is cols[c]
// for column c, so no index register is left for the column.
type addressing struct {
	base       string
	colElems   int // 0: contiguous
	idx1, idx3 string
	kstep      string
	rows       [2]string
	cols       [4]string
}

type amd64Gen struct {
	w         *bytes.Buffer
	fn        string
	eb        int    // element bytes
	bb        int    // block bytes: 16, or 32 for a complex [re|im] pair
	sfx       string // "PS" or "PD"
	ptr       [NumPRegs]addressing
	streamP   PReg     // the tile step's B (or X) pointer
	stream    RegMask  // IR registers loaded from streamP
	alphaArgs []string // operands LD1R from pAl+i broadcasts

	// X layout of the tile forms (columnGroups): the B block's registers
	// from xB, the product temporary tmp, accumulators from xAcc.
	xB, xAcc int
	slot     [NumVRegs]int // register of a stream IR register within its block
	tmp      int           // X register of a multiply-accumulate's product

	// Per section: a column group, or the whole triangle kernel.
	xOf      [NumVRegs]int // X register of each IR register, -1 = none
	acc      RegMask       // the group's accumulators
	other    RegMask       // accumulators of the other groups
	resident RegMask       // registers that never leave their X register
	addr     [NumVRegs]*pending
	hold     [numXRegs]int // IR register each X register holds, -1 = none
	written  RegMask       // non-accumulator IR registers computed in this section
}

func (g *amd64Gen) op(format string, args ...any) {
	fmt.Fprintf(g.w, "\t"+format+"\n", args...)
}

func (g *amd64Gen) label(format string, args ...any) {
	fmt.Fprintf(g.w, format+":\n", args...)
}

// begin names the function being lowered and fixes its element and
// block size.
func (g *amd64Gen) begin(name string, elemBytes int, complex bool) error {
	g.fn, g.eb, g.bb = name, elemBytes, 16
	if complex {
		g.bb = 32
	}
	switch elemBytes {
	case 4:
		g.sfx = "PS"
	case 8:
		g.sfx = "PD"
	default:
		return fmt.Errorf("element size %d is not 4 or 8", elemBytes)
	}
	return nil
}

// text writes the function header: its Go signature over the element
// type E, and the TEXT line with the argument frame size.
func (g *amd64Gen) text(sig string, argBytes int) {
	typ := map[int]string{4: "float32", 8: "float64"}[g.eb]
	fmt.Fprintf(g.w, "\n// func %s%s\n", g.fn, strings.ReplaceAll(sig, "E", typ))
	fmt.Fprintf(g.w, "TEXT ·%s(SB), NOSPLIT, $0-%d\n", g.fn, argBytes)
}

// blocks loads the run-time block count arg into r as bytes.
func (g *amd64Gen) blocks(arg, r string) {
	g.op("MOVQ %s, %s", arg, r)
	g.op("SHLQ $%d, %s", bits.TrailingZeros(uint(g.bb)), r)
}

// columns addresses p's tile by columns: base holds its start, the IR
// offsets put its columns stride blocks apart, and arg holds the
// run-time distance in blocks, which columns loads as bytes into r1 and
// three times that into r3.
func (g *amd64Gen) columns(p PReg, base string, stride int, arg, r1, r3 string) {
	g.ptr[p] = addressing{base: base, colElems: stride * g.bb / g.eb, idx1: r1, idx3: r3}
	g.blocks(arg, r1)
	g.op("LEAQ (%s)(%s*2), %s", r1, r1, r3)
}

func (k AMD64GEMM) lowerAMD64(g *amd64Gen) error {
	if err := g.begin(k.Name, k.ElemBytes, k.Complex); err != nil {
		return err
	}
	if k.StrideB < 1 || k.StrideC < 1 {
		return fmt.Errorf("StrideB %d, StrideC %d", k.StrideB, k.StrideC)
	}
	if k.AVX && k.Complex {
		return fmt.Errorf("AVX cannot pair complex rows: the re and im planes of adjacent rows are not adjacent")
	}
	g.ptr[PA] = addressing{base: "SI"}
	g.streamP = PB
	sig, alpha := "(pa, pb, c *E, k, ldbk, ldbc, ldc int, alpha E, ovw bool)", []string{"alpha"}
	if k.Complex {
		sig, alpha = "(pa, pb, c *E, k, ldbk, ldbc, ldc int, alphaRe, alphaIm E, ovw bool)", []string{"alphaRe", "alphaIm"}
	}
	for i, name := range alpha {
		g.alphaArgs = append(g.alphaArgs, fmt.Sprintf("%s+%d(FP)", name, 56+i*k.ElemBytes))
	}
	var groups [][]uint8
	var y *ymmGen
	var err error
	if k.AVX {
		y, err = newYMMGen(g, k.Step)
	} else {
		groups, err = g.columnGroups(k.Step)
	}
	if err != nil {
		return err
	}
	ovwOff := 56 + len(alpha)*k.ElemBytes
	g.text(sig, ovwOff+1)
	g.op("MOVQ c+16(FP), DX")
	g.columns(PC, "DX", k.StrideC, "ldc+48(FP)", "R8", "R9")
	g.columns(PB, "DI", k.StrideB, "ldbc+40(FP)", "R10", "R11")
	g.ptr[PB].kstep = "R12"
	g.blocks("ldbk+32(FP)", "R12")
	ovw := fmt.Sprintf("ovw+%d(FP)", ovwOff)
	if k.AVX {
		return y.lower(k, ovw)
	}
	return g.tile(groups, "pb+8(FP)", k.Zero, k.Step, func(i int) error {
		g.op("CMPB %s, $0", ovw)
		g.op("JNE ovw%d", i)
		if err := g.straight(k.Save, PC); err != nil {
			return err
		}
		g.op("JMP done%d", i)
		g.label("ovw%d", i)
		if err := g.straight(k.SaveOvw, PC); err != nil {
			return err
		}
		g.label("done%d", i)
		return nil
	})
}

func (k AMD64RectAdd) lowerAMD64(g *amd64Gen) error {
	if err := g.begin(k.Name, k.ElemBytes, false); err != nil {
		return err
	}
	if k.StrideC < 1 || k.StrideX < 1 {
		return fmt.Errorf("StrideC %d, StrideX %d", k.StrideC, k.StrideX)
	}
	g.ptr[PA] = addressing{base: "SI"}
	g.streamP = PX
	groups, err := g.columnGroups(k.Step)
	if err != nil {
		return err
	}
	g.text("(pa, x, c *E, k, rs, ldx, ldc int)", 56)
	// C's columns start at DX, R8, R9 and BX; its rows and X's K steps
	// are rs apart (R12, 3·rs in R13).
	g.op("MOVQ c+16(FP), DX")
	rows := g.rowStride("rs+32(FP)", "R12", "R13")
	g.blocks("ldc+48(FP)", "R8")
	g.op("LEAQ (DX)(R8*2), R9")
	g.op("LEAQ (R9)(R8*1), BX")
	g.op("ADDQ DX, R8")
	g.ptr[PC] = addressing{base: "DX", colElems: k.StrideC * g.bb / g.eb, rows: rows, cols: [4]string{"DX", "R8", "R9", "BX"}}
	g.columns(PX, "DI", k.StrideX, "ldx+40(FP)", "R10", "R11")
	g.ptr[PX].kstep = "R12"
	return g.tile(groups, "x+8(FP)", k.Preload, k.Step, func(int) error {
		return g.straight(k.Store, PC)
	})
}

// rowStride loads the run-time row stride arg, in blocks, as bytes into
// r1 and three times that into r3: an addressing's rows.
func (g *amd64Gen) rowStride(arg, r1, r3 string) [2]string {
	g.blocks(arg, r1)
	g.op("LEAQ (%s)(%s*2), %s", r1, r1, r3)
	return [2]string{r1, r3}
}

func (k AMD64TriMul) lowerAMD64(g *amd64Gen) error {
	if err := g.begin(k.Name, k.ElemBytes, false); err != nil {
		return err
	}
	// The triangle's blocks take X0 up, the column's the registers after
	// them, and the product the last one.
	g.unmap()
	g.tmp = numXRegs - 1
	next := 0
	assign := func(in Instr) {
		for _, r := range g.regs(in) {
			if next < g.tmp {
				g.xOf[r] = next
			}
			next++
		}
	}
	for _, in := range k.Load {
		if in.Op != LDR && in.Op != LDP || in.P != PA {
			return fmt.Errorf("triangle load holds %v from %v", in.Op, in.P)
		}
		assign(in)
		g.resident |= in.Writes()
	}
	for _, in := range k.Col {
		if in.Op == LDR || in.Op == LDP {
			assign(in)
		}
	}
	if next+1 > numXRegs {
		return fmt.Errorf("triangle and column need %d X registers", next+1)
	}
	g.ptr[PA] = addressing{base: "SI"}
	g.text("(pa, b *E, ncols, rs, cs int)", 40)
	g.op("MOVQ pa+0(FP), SI")
	g.op("MOVQ b+8(FP), DI")
	g.op("MOVQ ncols+16(FP), CX")
	g.ptr[PB] = addressing{base: "DI", rows: g.rowStride("rs+24(FP)", "R9", "R10"), cols: [4]string{"DI"}}
	g.blocks("cs+32(FP)", "R8")
	for _, in := range k.Load {
		g.comment(in)
		for i, r := range g.regs(in) {
			m, err := g.mem(PA, int(in.Off)+i*16/g.eb)
			if err != nil {
				return err
			}
			g.op("MOVU%s %s, X%d", g.sfx, m, g.xOf[r])
		}
	}
	g.op("TESTQ CX, CX")
	g.op("JEQ done")
	g.label("loop")
	if err := g.straight(k.Col, PB); err != nil {
		return err
	}
	g.op("ADDQ R8, DI")
	g.op("DECQ CX")
	g.op("JNE loop")
	g.label("done")
	g.op("RET")
	return nil
}

// columnGroups reads the accumulator columns off a tile step, one column
// per B block in first-use order, packs consecutive columns into groups
// and fixes the X layout of every group: the most columns whose
// accumulators fit above the A blocks, the B block's registers and the
// temporary.
func (g *amd64Gen) columnGroups(step Prog) ([][]uint8, error) {
	var cols []int            // B blocks, in first-use order
	accs := map[int][]uint8{} // each B block's accumulators, in first-use order
	var block [NumVRegs]int   // B block of each stream register
	var off [NumPRegs]int
	nA, regElems, blockElems := 0, 16/g.eb, g.bb/g.eb
	for _, in := range step {
		switch in.Op {
		case LDR, LDP:
			for i, r := range g.regs(in) {
				switch in.P {
				case g.streamP:
					e := off[in.P] + int(in.Off) + i*regElems
					block[r], g.slot[r] = e/blockElems, e%blockElems/regElems
					g.stream |= vbit(r)
				case PA:
					nA = max(nA, int(r)+1)
				}
			}
		case ADDI:
			off[in.P] += int(in.Off)
		case FMLA, FMLS:
			if !g.stream.Has(vbit(in.B)) {
				return nil, fmt.Errorf("%v multiplies by V%d, which is not loaded from %v", in.Op, in.B, g.streamP)
			}
			b := block[in.B]
			if _, ok := accs[b]; !ok {
				cols = append(cols, b)
			}
			if !slices.Contains(accs[b], in.D) {
				accs[b] = append(accs[b], in.D)
			}
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("step has no multiply-accumulate")
	}
	per := 0
	for _, a := range accs {
		per = max(per, len(a))
	}
	nB := blockElems / regElems
	n := min((numXRegs-nA-nB-1)/per, len(cols))
	if n < 1 {
		return nil, fmt.Errorf("a column of %d accumulators does not fit beside %d A and %d B registers", per, nA, nB)
	}
	g.xAcc = numXRegs - n*per
	g.tmp = g.xAcc - 1
	g.xB = g.tmp - nB
	var groups [][]uint8
	for i := 0; i < len(cols); i += n {
		var grp []uint8
		for _, c := range cols[i:min(i+n, len(cols))] {
			grp = append(grp, accs[c]...)
		}
		groups = append(groups, grp)
	}
	return groups, nil
}

// tile emits the column groups of a tile kernel: per group, load the
// pointer arguments (A, then B or X from arg), fill the accumulators
// with init, run the K loop over step, then lower the group's save.
func (g *amd64Gen) tile(groups [][]uint8, arg string, init, step Prog, save func(group int) error) error {
	for i, grp := range groups {
		g.unmap()
		g.acc, g.other = 0, 0
		for j, r := range grp {
			g.acc |= vbit(r)
			g.xOf[r] = g.xAcc + j
		}
		for j, o := range groups {
			for _, r := range o {
				if j != i {
					g.other |= vbit(r)
				}
			}
		}
		g.resident = g.acc
		for r := range g.xOf {
			switch v := vbit(uint8(r)); {
			case g.acc.Has(v):
			case g.stream.Has(v):
				g.xOf[r] = g.xB + g.slot[r]
			case r < g.tmp:
				g.xOf[r] = r
			}
		}
		g.op("MOVQ pa+0(FP), SI")
		g.op("MOVQ %s, DI", arg)
		g.op("MOVQ k+24(FP), CX")
		if err := g.init(init); err != nil {
			return err
		}
		g.op("TESTQ CX, CX")
		g.op("JEQ save%d", i)
		g.label("loop%d", i)
		if err := g.step(step); err != nil {
			return err
		}
		g.op("DECQ CX")
		g.op("JNE loop%d", i)
		g.label("save%d", i)
		if err := save(i); err != nil {
			return err
		}
	}
	g.op("RET")
	return nil
}

// unmap clears the register map.
func (g *amd64Gen) unmap() {
	for r := range g.xOf {
		g.xOf[r] = -1
	}
}

// init fills the group's accumulators: MOVI zeroes one (GEMM), a load
// from C preloads it (the TRMM rectangle). Entries for other groups'
// accumulators are dropped.
func (g *amd64Gen) init(p Prog) error {
	g.reset()
	var filled RegMask
	for _, in := range p {
		load := (in.Op == LDR || in.Op == LDP) && in.P == PC
		if in.Op != MOVI && !load {
			return fmt.Errorf("accumulator init holds %v from %v", in.Op, in.P)
		}
		regs := g.regs(in)
		if g.other.Has(vbit(regs[0])) {
			continue
		}
		g.comment(in)
		for i, r := range regs {
			if !g.acc.Has(vbit(r)) {
				return fmt.Errorf("accumulator init fills V%d, no accumulator of the group", r)
			}
			filled |= vbit(r)
			x := g.xOf[r]
			if !load {
				g.op("XOR%s X%d, X%d", g.sfx, x, x)
				continue
			}
			m, err := g.mem(PC, int(in.Off)+i*16/g.eb)
			if err != nil {
				return err
			}
			g.op("MOVU%s %s, X%d", g.sfx, m, x)
		}
	}
	if filled != g.acc {
		return fmt.Errorf("accumulator init fills %d of %d accumulators", bits.OnesCount64(uint64(filled)), bits.OnesCount64(uint64(g.acc)))
	}
	return nil
}

// reset forgets register contents and pending loads: the state at a
// branch target.
func (g *amd64Gen) reset() {
	g.addr = [NumVRegs]*pending{}
	for x := range g.hold {
		g.hold[x] = -1
	}
	g.written = 0
}

// step lowers one K step of a tile; pA and the stream pointer advance
// once, at its end (advance).
func (g *amd64Gen) step(p Prog) error {
	g.reset()
	var off [NumPRegs]int
	for _, in := range p {
		switch in.Op {
		case LDR, LDP:
			if in.P != PA && in.P != g.streamP {
				return fmt.Errorf("step loads from %v", in.P)
			}
			if in.P == PA {
				for _, r := range g.regs(in) {
					if g.xOf[r] >= g.xB {
						return fmt.Errorf("A block V%d does not fit below the B registers X%d", r, g.xB)
					}
				}
			}
			if err := g.define(in, func(o int) (string, error) { return g.mem(in.P, off[in.P]+o) }); err != nil {
				return err
			}
		case ADDI:
			if in.P != PA && in.P != g.streamP {
				return fmt.Errorf("step advances %v", in.P)
			}
			off[in.P] += int(in.Off)
		case FMLA, FMLS:
			if err := g.arith(in); err != nil {
				return err
			}
		default:
			return fmt.Errorf("step holds %v", in.Op)
		}
	}
	return g.advance(off)
}

// advance moves pA and the stream pointer past one K step: by the IR's
// constant offsets, or by the run-time K step when the stream pointer
// has one (its IR then advances one block).
func (g *amd64Gen) advance(off [NumPRegs]int) error {
	for _, p := range []PReg{PA, g.streamP} {
		a := g.ptr[p]
		switch {
		case a.kstep != "" && off[p] != g.bb/g.eb:
			return fmt.Errorf("step advances %v by %d elements, not one block", p, off[p])
		case a.kstep != "":
			g.op("ADDQ %s, %s", a.kstep, a.base)
		case off[p] != 0:
			g.op("ADDQ $%d, %s", off[p]*g.eb, a.base)
		}
	}
	return nil
}

// straight lowers a straight-line piece whose loads and stores address
// p: a tile's save or store (C), or a triangle's column (B). Loads and
// stores of other groups' C columns are dropped with the arithmetic that
// reads their accumulators.
func (g *amd64Gen) straight(prog Prog, p PReg) error {
	g.reset()
	for _, in := range prog {
		switch in.Op {
		case LD1R:
			if in.P != PAlpha || in.Off < 0 || int(in.Off) >= len(g.alphaArgs) {
				return fmt.Errorf("broadcast from %v%+d", in.P, in.Off)
			}
			g.addr[in.D] = &pending{mem: g.alphaArgs[in.Off], bcast: true}
			g.forget(in.D)
		case LDR, LDP:
			if in.P != p {
				return fmt.Errorf("load from %v", in.P)
			}
			if err := g.define(in, func(o int) (string, error) { return g.mem(p, o) }); err != nil {
				return err
			}
		case FMUL, FMLA, FMLS:
			if err := g.arith(in); err != nil {
				return err
			}
		case STR, STP:
			if in.P != p {
				return fmt.Errorf("store to %v", in.P)
			}
			if err := g.store(in); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%v in a straight-line piece", in.Op)
		}
	}
	return nil
}

// define records the destinations of an IR load as pending; memOf maps
// the element offset of each destination to its memory operand.
func (g *amd64Gen) define(in Instr, memOf func(elemOff int) (string, error)) error {
	for i, r := range g.regs(in) {
		m, err := memOf(int(in.Off) + i*16/g.eb)
		if err != nil {
			return err
		}
		g.addr[r] = &pending{mem: m}
		g.forget(r)
	}
	return nil
}

// regs lists the registers a load or store moves, in memory order.
func (g *amd64Gen) regs(in Instr) []uint8 {
	if in.Op == LDP || in.Op == STP {
		return []uint8{in.D, in.D2}
	}
	return []uint8{in.D}
}

// forget drops r from its X register: r has been redefined.
func (g *amd64Gen) forget(r uint8) {
	g.written &^= vbit(r)
	if x, err := g.xreg(r); err == nil && g.hold[x] == int(r) {
		g.hold[x] = -1
	}
}

// xreg maps an IR register to its X register.
func (g *amd64Gen) xreg(r uint8) (int, error) {
	if x := g.xOf[r]; x >= 0 {
		return x, nil
	}
	return 0, fmt.Errorf("V%d has no X register", r)
}

// use returns the X register holding r, loading r first if it is still
// in memory.
func (g *amd64Gen) use(r uint8) (int, error) {
	x, err := g.xreg(r)
	if err != nil {
		return 0, err
	}
	if g.resident.Has(vbit(r)) || g.hold[x] == int(r) {
		return x, nil
	}
	p := g.addr[r]
	if p == nil {
		return 0, fmt.Errorf("V%d read before it is loaded", r)
	}
	switch {
	case !p.bcast:
		g.op("MOVU%s %s, X%d", g.sfx, p.mem, x)
	case g.eb == 4:
		g.op("MOVSS %s, X%d", p.mem, x)
		g.op("SHUFPS $0x00, X%d, X%d", x, x)
	default:
		g.op("MOVSD %s, X%d", p.mem, x)
		g.op("UNPCKLPD X%d, X%d", x, x)
	}
	g.hold[x] = int(r)
	return x, nil
}

// arith lowers FMLA (D += A·B: multiply into the temporary, then add),
// FMLS (D −= A·B: the same multiply, then subtract) and FMUL (D = A·B,
// in place when D is A). An instruction reading another group's
// accumulators is dropped, and its destination no longer holds a value
// of this group, so a later store of it is dropped too.
func (g *amd64Gen) arith(in Instr) error {
	if in.Reads()&g.other != 0 {
		if g.acc.Has(vbit(in.D)) {
			return fmt.Errorf("%v mixes column groups", in.Op)
		}
		g.forget(in.D)
		g.addr[in.D] = nil
		return nil
	}
	if g.acc != 0 && (in.Reads()|vbit(in.D))&g.acc == 0 {
		return fmt.Errorf("%v reads no accumulator of the group", in.Op)
	}
	if (g.resident &^ g.acc).Has(vbit(in.D)) {
		return fmt.Errorf("%v overwrites V%d, which stays loaded across the loop", in.Op, in.D)
	}
	g.comment(in)
	xa, err := g.use(in.A)
	if err != nil {
		return err
	}
	xb, err := g.use(in.B)
	if err != nil {
		return err
	}
	xd, err := g.xreg(in.D)
	if err != nil {
		return err
	}
	switch {
	case in.Op == FMLA || in.Op == FMLS:
		if _, err := g.use(in.D); err != nil {
			return err
		}
		add := "ADD"
		if in.Op == FMLS {
			add = "SUB"
		}
		g.op("MOVA%s X%d, X%d", g.sfx, xa, g.tmp)
		g.op("MUL%s X%d, X%d", g.sfx, xb, g.tmp)
		g.op("%s%s X%d, X%d", add, g.sfx, g.tmp, xd)
	case in.D == in.A:
		g.op("MUL%s X%d, X%d", g.sfx, xb, xd)
	case xd == xa || xd == xb:
		return fmt.Errorf("FMUL V%d overwrites its own source", in.D)
	default:
		g.op("MOVA%s X%d, X%d", g.sfx, xa, xd)
		g.op("MUL%s X%d, X%d", g.sfx, xb, xd)
	}
	g.hold[xd] = int(in.D)
	if !g.acc.Has(vbit(in.D)) {
		g.addr[in.D] = nil // the value now differs from memory
		g.written |= vbit(in.D)
	}
	return nil
}

// store lowers STR/STP of registers this section computed: its
// accumulators and the registers its arithmetic wrote. Stores of other
// registers belong to another group and are dropped.
func (g *amd64Gen) store(in Instr) error {
	regs := g.regs(in)
	mine := (g.acc | g.written).Has(vbit(in.D))
	for _, r := range regs {
		if (g.acc | g.written).Has(vbit(r)) != mine {
			return fmt.Errorf("%v mixes column groups", in.Op)
		}
	}
	if !mine {
		return nil
	}
	g.comment(in)
	for i, r := range regs {
		m, err := g.mem(in.P, int(in.Off)+i*16/g.eb)
		if err != nil {
			return err
		}
		x, err := g.use(r)
		if err != nil {
			return err
		}
		g.op("MOVU%s X%d, %s", g.sfx, x, m)
	}
	return nil
}

// mem addresses element offset off from pointer p. For a tile read by
// columns, column off/colElems lies at base + column·idx1 (idx3 holds
// 3·idx1). For a row-strided operand, its row r lies at r·rows[0] from
// the column's own base register.
func (g *amd64Gen) mem(p PReg, off int) (string, error) {
	a := g.ptr[p]
	if a.base == "" {
		return "", fmt.Errorf("%v is not an operand here", p)
	}
	col, row := 0, off
	if a.colElems > 0 {
		col, row = off/a.colElems, off%a.colElems
	}
	if col >= 4 {
		return "", fmt.Errorf("%v column %d beyond the addressable 4", p, col)
	}
	base, idx := a.base, scaled(a.idx1, a.idx3, col)
	if a.rows[0] != "" {
		blk := g.bb / g.eb
		if row/blk >= 4 {
			return "", fmt.Errorf("%v row %d beyond the addressable 4", p, row/blk)
		}
		base, idx, row = a.cols[col], scaled(a.rows[0], a.rows[1], row/blk), row%blk
	}
	if row == 0 {
		return "(" + base + ")" + idx, nil
	}
	return fmt.Sprintf("%d(%s)%s", row*g.eb, base, idx), nil
}

// scaled is the index of the i-th multiple (0…3) of a distance held in
// r1, with 3× it in r3.
func scaled(r1, r3 string, i int) string {
	return [...]string{"", "(" + r1 + "*1)", "(" + r1 + "*2)", "(" + r3 + "*1)"}[i]
}

// comment writes the IR instruction being lowered, in ARMv8 syntax.
func (g *amd64Gen) comment(in Instr) {
	in.Comment = ""
	fmt.Fprintf(g.w, "\t// %s\n", SyntaxFor(g.eb).Format(in))
}

// numYRegs is the AVX register file, Y0–Y15.
const numYRegs = 16

// ymmGen lowers a real AMD64GEMM to 256-bit AVX. The compact layout
// stores rows 2i and 2i+1 of a column in adjacent 128-bit blocks, in the
// packed A panel and in C, so one YMM register holds both rows, row 2i
// in its low half:
//
//   - the two rows' accumulators share a register;
//   - their A blocks load with one VMOVUPx;
//   - a B block is broadcast into both halves (VBROADCASTF128), and
//     alpha into every lane (VBROADCASTSS/SD);
//   - the save loads, updates and stores C's two rows whole.
//
// So the IR's arithmetic must come in row pairs: two consecutive
// instructions of one kind reading one B register, whose row operands
// are an accumulator pair or two blocks adjacent in memory, each
// register always with the same partner. A real 4×4 tile takes 8
// accumulators, 2 A registers, 1 B and 1 temporary, 12 of the 16, so
// the K loop runs once for all columns; a tile that does not fit is
// refused. An FMLA is still VMULPx into the temporary, then VADDPx, with
// the SSE2 form's operand order, so the results are bit-identical to
// it. VZEROUPPER precedes the RET: Go's scalar float code is legacy SSE.
type ymmGen struct {
	*amd64Gen
	accHi map[uint8]uint8 // accumulator pairs, lo → hi
	accY  map[uint8]int   // Y register of each accumulator pair, by lo
	yTmp  int             // Y register of a multiply-accumulate's product
	yB    int             // Y register of the step's B broadcast

	// Per piece (the step, a save).
	pairs map[uint8]uint8  // the piece's other row pairs, lo → hi
	yOf   map[uint8]int    // Y register of a row pair (by lo) or an alpha
	free  int              // the next Y register yOf hands out
	src   map[uint8]ymmSrc // where each loaded IR register's block is
	held  [numYRegs]int    // IR register (a pair's lo) each Y holds, -1 = none
	lo    *Instr           // arithmetic waiting for its row partner
	st    *ymmStore        // a stored row waiting for its partner
}

// ymmSrc is the block an IR load names: element offset off from p, or
// the alpha argument an LD1R broadcasts.
type ymmSrc struct {
	p     PReg
	off   int
	alpha string
}

// ymmStore is the first row of a pair store: its register and element
// offset from pC.
type ymmStore struct {
	lo  uint8
	off int
}

// newYMMGen pairs the step's multiply-accumulates into rows and fixes
// the Y layout: A pairs from Y0, then B, the temporary, and the
// accumulators in the top registers. Lowering the pieces checks each
// pair's kind, B register and memory.
func newYMMGen(g *amd64Gen, step Prog) (*ymmGen, error) {
	y := &ymmGen{amd64Gen: g, accHi: map[uint8]uint8{}, accY: map[uint8]int{}}
	var ar []Instr
	rows := map[uint8]int{}
	for _, in := range step {
		if in.Op == FMLA || in.Op == FMLS {
			ar = append(ar, in)
			rows[in.B]++
		}
	}
	for b, n := range rows {
		if n%2 != 0 {
			return nil, fmt.Errorf("B block V%d multiplies %d rows, which do not pair", b, n)
		}
	}
	aHi := map[uint8]uint8{}
	var accs []uint8
	for i := 0; i < len(ar); i += 2 {
		lo, hi := ar[i], ar[i+1]
		if _, err := bind(aHi, lo.A, hi.A); err != nil {
			return nil, err
		}
		fresh, err := bind(y.accHi, lo.D, hi.D)
		if err != nil {
			return nil, err
		}
		if fresh {
			accs = append(accs, lo.D)
		}
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("step has no multiply-accumulate")
	}
	if n := len(aHi) + 2 + len(accs); n > numYRegs {
		return nil, fmt.Errorf("%d A pairs, B, the temporary and %d accumulators need %d Y registers", len(aHi), len(accs), n)
	}
	for i, r := range accs {
		y.accY[r] = numYRegs - len(accs) + i
	}
	y.yTmp = numYRegs - len(accs) - 1
	y.yB = y.yTmp - 1
	return y, nil
}

// bind records lo and hi as a row pair of m and reports whether the pair
// is new; a register already paired otherwise is refused.
func bind(m map[uint8]uint8, lo, hi uint8) (bool, error) {
	if h, ok := m[lo]; ok && h == hi {
		return false, nil
	}
	if lo == hi {
		return false, fmt.Errorf("V%d pairs with itself", lo)
	}
	for l, h := range m {
		if l == lo || l == hi || h == lo || h == hi {
			return false, fmt.Errorf("V%d and V%d cross the row pair V%d, V%d", lo, hi, l, h)
		}
	}
	m[lo] = hi
	return true, nil
}

// lower emits the kernel body after the GEMM prologue: zero the
// accumulators, run the K loop once, then the save ovw selects.
func (y *ymmGen) lower(k AMD64GEMM, ovw string) error {
	g := y.amd64Gen
	g.op("MOVQ pa+0(FP), SI")
	g.op("MOVQ pb+8(FP), DI")
	g.op("MOVQ k+24(FP), CX")
	if err := y.zero(k.Zero); err != nil {
		return err
	}
	g.op("TESTQ CX, CX")
	g.op("JEQ save")
	g.label("loop")
	if err := y.piece(k.Step, true); err != nil {
		return err
	}
	g.op("DECQ CX")
	g.op("JNE loop")
	g.label("save")
	g.op("CMPB %s, $0", ovw)
	g.op("JNE ovw")
	if err := y.piece(k.Save, false); err != nil {
		return err
	}
	g.op("JMP done")
	g.label("ovw")
	if err := y.piece(k.SaveOvw, false); err != nil {
		return err
	}
	g.label("done")
	g.op("VZEROUPPER")
	g.op("RET")
	return nil
}

// zero lowers the accumulator init: one VXORPx per accumulator pair,
// after both of its MOVIs, which must both be there.
func (y *ymmGen) zero(p Prog) error {
	filled := map[uint8]bool{}
	for _, in := range p {
		if in.Op != MOVI {
			return fmt.Errorf("accumulator init holds %v from %v", in.Op, in.P)
		}
		if !y.accRow(in.D) {
			return fmt.Errorf("accumulator init fills V%d, no accumulator", in.D)
		}
		y.comment(in)
		filled[in.D] = true
		for lo, hi := range y.accHi {
			if (lo == in.D || hi == in.D) && filled[lo] && filled[hi] {
				r := y.accY[lo]
				y.op("VXOR%s Y%d, Y%d, Y%d", y.sfx, r, r, r)
			}
		}
	}
	for lo, hi := range y.accHi {
		if !filled[lo] || !filled[hi] {
			return fmt.Errorf("accumulator init leaves V%d or V%d unfilled", lo, hi)
		}
	}
	return nil
}

// piece lowers the K step (step) or a save. Loads are recorded and
// emitted at first use; arithmetic and stores lower at the second
// instruction of each row pair.
func (y *ymmGen) piece(p Prog, step bool) error {
	g := y.amd64Gen
	y.pairs, y.yOf, y.src, y.free, y.lo, y.st = map[uint8]uint8{}, map[uint8]int{}, map[uint8]ymmSrc{}, 0, nil, nil
	for i := range y.held {
		y.held[i] = -1
	}
	regElems := 16 / g.eb
	var off [NumPRegs]int
	for i := range p {
		in := &p[i]
		if y.lo != nil && in.Op != FMLA && in.Op != FMLS && in.Op != FMUL {
			return fmt.Errorf("%v V%d has no row partner", y.lo.Op, y.lo.D)
		}
		if y.st != nil && in.Op != STR && in.Op != STP {
			return fmt.Errorf("store of V%d has no row partner", y.st.lo)
		}
		switch {
		case in.Op == LD1R && !step:
			if in.P != PAlpha || in.Off < 0 || int(in.Off) >= len(g.alphaArgs) {
				return fmt.Errorf("broadcast from %v%+d", in.P, in.Off)
			}
			y.define(in.D, ymmSrc{alpha: g.alphaArgs[in.Off]})
		case (in.Op == LDR || in.Op == LDP) && (step && (in.P == PA || in.P == PB) || !step && in.P == PC):
			for j, r := range g.regs(*in) {
				y.define(r, ymmSrc{p: in.P, off: off[in.P] + int(in.Off) + j*regElems})
			}
		case in.Op == ADDI && step && (in.P == PA || in.P == PB):
			off[in.P] += int(in.Off)
		case in.Op == FMLA || in.Op == FMLS || in.Op == FMUL && !step:
			if y.lo == nil {
				y.comment(*in)
				y.lo = in
				continue
			}
			if err := y.arith(*y.lo, *in); err != nil {
				return err
			}
			y.lo = nil
		case (in.Op == STR || in.Op == STP) && !step && in.P == PC:
			for j, r := range g.regs(*in) {
				if err := y.store(*in, r, int(in.Off)+j*regElems); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("%v from %v in an AVX piece", in.Op, in.P)
		}
	}
	switch {
	case y.lo != nil:
		return fmt.Errorf("%v V%d has no row partner", y.lo.Op, y.lo.D)
	case y.st != nil:
		return fmt.Errorf("store of V%d has no row partner", y.st.lo)
	case step:
		return g.advance(off)
	}
	return nil
}

// define records a load of r: its old value, and its pair's, is gone.
func (y *ymmGen) define(r uint8, s ymmSrc) {
	y.src[r] = s
	for i, h := range y.held {
		if h == int(r) || h >= 0 && y.pairs[uint8(h)] == r {
			y.held[i] = -1
		}
	}
}

// arith lowers the row pair (lo, hi) of FMLA, FMLS or FMUL.
func (y *ymmGen) arith(lo, hi Instr) error {
	if lo.Op != hi.Op || lo.B != hi.B {
		return fmt.Errorf("%v V%d and %v V%d are not one row pair", lo.Op, lo.D, hi.Op, hi.D)
	}
	y.comment(hi)
	ya, err := y.rows(lo.A, hi.A, true)
	if err != nil {
		return err
	}
	yb, err := y.broadcast(lo.B)
	if err != nil {
		return err
	}
	yd, err := y.rows(lo.D, hi.D, lo.Op != FMUL)
	if err != nil {
		return err
	}
	if lo.Op == FMUL {
		y.op("VMUL%s Y%d, Y%d, Y%d", y.sfx, yb, ya, yd)
	} else {
		add := "ADD"
		if lo.Op == FMLS {
			add = "SUB"
		}
		y.op("VMUL%s Y%d, Y%d, Y%d", y.sfx, yb, ya, y.yTmp)
		y.op("V%s%s Y%d, Y%d, Y%d", add, y.sfx, y.yTmp, yd, yd)
	}
	y.held[yd] = int(lo.D)
	return nil
}

// rows returns the Y register of the row pair (lo, hi): an accumulator
// pair, or a pair of this piece, which read loads with one VMOVUPx from
// two blocks adjacent in memory unless its register already holds it.
func (y *ymmGen) rows(lo, hi uint8, read bool) (int, error) {
	if h, ok := y.accHi[lo]; ok {
		if h != hi {
			return 0, fmt.Errorf("accumulator V%d pairs with V%d, not V%d", lo, h, hi)
		}
		return y.accY[lo], nil
	}
	if y.accRow(lo) || y.accRow(hi) {
		return 0, fmt.Errorf("V%d and V%d cross an accumulator pair", lo, hi)
	}
	if _, err := bind(y.pairs, lo, hi); err != nil {
		return 0, err
	}
	r, err := y.reg(lo)
	if err != nil || !read || y.held[r] == int(lo) {
		return r, err
	}
	sl, okl := y.src[lo]
	sh, okh := y.src[hi]
	switch {
	case !okl || !okh:
		return 0, fmt.Errorf("V%d or V%d read before it is loaded", lo, hi)
	case sl.alpha != "" || sh.alpha != "" || sl.p != sh.p || sh.off != sl.off+16/y.eb:
		return 0, fmt.Errorf("rows V%d and V%d are not adjacent in memory", lo, hi)
	}
	m, err := y.mem(sl.p, sl.off)
	if err != nil {
		return 0, err
	}
	y.op("VMOVU%s %s, Y%d", y.sfx, m, r)
	y.held[r] = int(lo)
	return r, nil
}

// accRow reports whether r is an accumulator, of either row.
func (y *ymmGen) accRow(r uint8) bool {
	for l, h := range y.accHi {
		if r == l || r == h {
			return true
		}
	}
	return false
}

// broadcast returns the Y register holding r in every row: a B block
// broadcast into both halves, in the one B register, or an alpha
// broadcast into every lane.
func (y *ymmGen) broadcast(r uint8) (int, error) {
	s, ok := y.src[r]
	if !ok {
		return 0, fmt.Errorf("V%d read before it is loaded", r)
	}
	x := y.yB
	if s.alpha != "" {
		var err error
		if x, err = y.reg(r); err != nil {
			return 0, err
		}
	}
	if y.held[x] == int(r) {
		return x, nil
	}
	if s.alpha != "" {
		y.op("VBROADCASTS%s %s, Y%d", y.sfx[1:], s.alpha, x)
	} else {
		m, err := y.mem(s.p, s.off)
		if err != nil {
			return 0, err
		}
		y.op("VBROADCASTF128 %s, Y%d", m, x)
	}
	y.held[x] = int(r)
	return x, nil
}

// reg returns r's Y register in this piece, handing out the next free
// one below the B register at first use.
func (y *ymmGen) reg(r uint8) (int, error) {
	if x, ok := y.yOf[r]; ok {
		return x, nil
	}
	if y.free >= y.yB {
		return 0, fmt.Errorf("V%d finds no free Y register below Y%d", r, y.yB)
	}
	y.yOf[r] = y.free
	y.free++
	return y.yOf[r], nil
}

// store lowers a save's store of r at element offset off: the row
// pair's first row waits, the second writes both rows with one VMOVUPx.
func (y *ymmGen) store(in Instr, r uint8, off int) error {
	if y.st == nil {
		x, ok := y.yOf[r]
		if _, paired := y.pairs[r]; !ok || !paired || y.held[x] != int(r) {
			return fmt.Errorf("%v of V%d, which holds no computed row pair", in.Op, r)
		}
		y.comment(in)
		y.st = &ymmStore{lo: r, off: off}
		return nil
	}
	if y.pairs[y.st.lo] != r || off != y.st.off+16/y.eb {
		return fmt.Errorf("stores of V%d and V%d are not one row pair adjacent in memory", y.st.lo, r)
	}
	if in.Op == STR {
		y.comment(in)
	}
	m, err := y.mem(PC, y.st.off)
	if err != nil {
		return err
	}
	y.op("VMOVU%s Y%d, %s", y.sfx, y.yOf[y.st.lo], m)
	y.st = nil
	return nil
}
