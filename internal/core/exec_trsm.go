package core

import (
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/layout"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// trsmOffsets lays out the TRSM arena. Lengths are per group (operands)
// or per super-batch slot (packing buffers).
type trsmOffsets struct {
	a, b       int
	lenA, lenB int
	packTri    int
	lenTri     int
	packB      int
	lenPB      int
	total      int
}

func trsmLayout(pl *TRSMPlan, groups int) trsmOffsets {
	p := pl.P
	bl := blockLen(p.DT, pl.Tun.lanes(p.DT))
	var o trsmOffsets
	o.lenA = pl.MEff * pl.MEff * bl
	o.lenB = p.M * p.N * bl
	o.a = 0
	o.b = o.a + groups*o.lenA
	o.packTri = o.b + groups*o.lenB
	o.lenTri = pack.TriLen(bl, pl.Panels)
	o.packB = o.packTri + pl.GroupsPerBatch*o.lenTri
	if pl.ReverseB || pl.TransposeB { // the model path canonicalizes B
		o.lenPB = pl.MEff * pl.NEff * bl
	}
	o.total = o.packB + pl.GroupsPerBatch*o.lenPB
	return o
}

// runTRSM executes the plan over an arena holding `groups` groups.
func runTRSM[E vec.Float](pl *TRSMPlan, ar *arena[E], o trsmOffsets, sim *machine.Sim) error {
	p := pl.P
	vm := &asm.VM[E]{Mem: ar.mem}
	if sim != nil {
		vm.Trace = func(in asm.Instr, addr int) { sim.Exec(in, addr) }
	}
	var rec *pack.Recorder
	if sim != nil {
		rec = &pack.Recorder{}
	}
	ctx := &pack.Ctx[E]{Mem: ar.mem, DT: p.DT, VL: ar.vl, Rec: rec}

	transAEff := p.TransA == matrix.Transpose
	if p.Side == matrix.Right {
		transAEff = !transAEff
	}
	tm := pack.NewTriMap(pl.MEff, p.Uplo == matrix.Upper, transAEff, p.Diag == matrix.Unit)
	progs, err := pl.programs(pl.Tun, true)
	if err != nil {
		return err
	}
	nct := len(pl.ColTiles)

	bl := ar.bl
	canonB := pl.ReverseB || pl.TransposeB // B copied into canonical order (pack.BCopy)
	gb := pl.GroupsPerBatch
	for sb := 0; sb < ar.groups; sb += gb {
		end := sb + gb
		if end > ar.groups {
			end = ar.groups
		}
		// Packing pass: triangle (reciprocal diagonal) and, for
		// non-canonical modes, the B buffer; then the alpha pre-scale.
		for g := sb; g < end; g++ {
			slot := g - sb
			srcA := pack.Geom{Off: o.a + g*o.lenA, Rows: pl.MEff, Cols: pl.MEff, BlockLen: bl}
			pack.Tri(ctx, srcA, tm, pl.Panels, o.packTri+slot*o.lenTri)

			geomB := pack.Geom{Off: o.b + g*o.lenB, Rows: p.M, Cols: p.N, BlockLen: bl}
			target := geomB
			if canonB {
				pack.BCopy(ctx, geomB, pl.ReverseB, pl.TransposeB, o.packB+slot*o.lenPB)
				target = pack.Geom{Off: o.packB + slot*o.lenPB, Rows: pl.MEff, Cols: pl.NEff, BlockLen: bl}
			}
			if p.Alpha != 1 {
				pack.Scale(ctx, target, real(p.Alpha), imag(p.Alpha))
			}
		}
		replayPacking(sim, rec, ar.vl)

		// Solve pass.
		for g := sb; g < end; g++ {
			slot := g - sb
			triBase := o.packTri + slot*o.lenTri
			targetOff := o.b + g*o.lenB
			if canonB {
				targetOff = o.packB + slot*o.lenPB
			}
			j0 := 0
			for j, ct := range pl.ColTiles {
				colBase := targetOff + j0*pl.MEff*bl
				for s, st := range pl.steps {
					pr := progs[s*nct+j]
					if sim != nil {
						sim.AddCycles(kernelDispatchCycles)
					}
					if st.r0 > 0 {
						vm.P[asm.PA] = triBase + st.rectOff
						vm.P[asm.PX] = colBase
						vm.P[asm.PC] = colBase + st.r0*bl
						if err := vm.Run(pr.rect); err != nil {
							return fmt.Errorf("core: trsm rect panel r0=%d: %w", st.r0, err)
						}
					}
					vm.P[asm.PA] = triBase + st.triOff
					vm.P[asm.PB] = colBase + st.r0*bl
					if err := vm.Run(pr.tri); err != nil {
						return fmt.Errorf("core: trsm tri panel r0=%d: %w", st.r0, err)
					}
				}
				j0 += ct
			}
		}
		// Write back canonical buffers.
		if canonB {
			for g := sb; g < end; g++ {
				slot := g - sb
				geomB := pack.Geom{Off: o.b + g*o.lenB, Rows: p.M, Cols: p.N, BlockLen: bl}
				pack.BUncopy(ctx, geomB, pl.ReverseB, pl.TransposeB, o.packB+slot*o.lenPB)
			}
			replayPacking(sim, rec, ar.vl)
		}
	}
	return nil
}

// ExecTRSM runs the plan functionally (and through the pipeline model
// when sim is non-nil) on compact operands, overwriting B with the
// solution X.
func ExecTRSM[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], sim *machine.Sim) error {
	p := pl.P
	if a.Type != p.DT || b.Type != p.DT {
		return fmt.Errorf("core: dtype mismatch")
	}
	if a.Count != p.Count || b.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	if a.Rows != pl.MEff || a.Cols != pl.MEff || b.Rows != p.M || b.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d for %s %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, p.Mode(), p.M, p.N)
	}
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: ExecTRSM requires the native lane count; use SimTRSM for the %d-lane model", pl.Tun.VL)
	}
	groups := a.Groups()
	o := trsmLayout(pl, groups)
	ar := &arena[E]{mem: make([]E, o.total), vl: p.DT.Pack(), bl: blockLen(p.DT, p.DT.Pack()), groups: groups}
	copy(ar.mem[o.a:], a.Data)
	copy(ar.mem[o.b:], b.Data)
	if err := runTRSM(pl, ar, o, sim); err != nil {
		return err
	}
	copy(b.Data, ar.mem[o.b:o.b+groups*o.lenB])
	return nil
}

// SimTRSM executes the plan on a synthetic arena purely for timing.
func SimTRSM(pl *TRSMPlan, groups int, sim *machine.Sim) (int64, error) {
	p := pl.P
	o := trsmLayout(pl, groups)
	vl := pl.Tun.lanes(p.DT)
	var err error
	if p.DT.ElemBytes() == 8 {
		ar := &arena[float64]{mem: make([]float64, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
		fillArena(ar.mem)
		err = runTRSM(pl, ar, o, sim)
	} else {
		ar := &arena[float32]{mem: make([]float32, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
		fillArena(ar.mem)
		err = runTRSM(pl, ar, o, sim)
	}
	if err != nil {
		return 0, err
	}
	return sim.Cycles(), nil
}
