package core

import (
	"context"
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/ktmpl"
	"iatf/internal/layout"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// Compact batched TRMM — B := alpha·op(A)·B (Left) or alpha·B·op(A)
// (Right) with triangular A — is this library's extension of the IATF
// framework to a further level-3 routine (the paper's future work). It
// reuses the whole run-time machinery of TRSM: side reduction, triangle
// canonicalization, panel decomposition, column tiling and L1 batching;
// the dataflow runs bottom-up instead of top-down and the kernels are the
// multiplying forms (TriMul, RectAdd), on both the native and the VM/cycle
// backends.

// TRMMProblem describes a compact batched TRMM.
type TRMMProblem struct {
	DT     vec.DType
	M, N   int // B is M×N; A is M×M (Left) or N×N (Right)
	Side   matrix.Side
	Uplo   matrix.Uplo
	TransA matrix.Trans
	Diag   matrix.Diag
	Alpha  complex128
	Count  int
}

// Mode returns the four-letter mode string.
func (p TRMMProblem) Mode() string {
	return p.Side.String() + p.TransA.String() + p.Uplo.String() + p.Diag.String()
}

// FLOPs returns the useful floating-point work of the whole batch.
func (p TRMMProblem) FLOPs() float64 {
	dim := float64(p.M)
	other := float64(p.N)
	if p.Side == matrix.Right {
		dim, other = other, dim
	}
	return p.DT.FlopsPerElem() / 2 * dim * dim * other * float64(p.Count)
}

// TRMMPlan is the generated execution plan; its geometry is the one
// TRSMPlan embeds.
type TRMMPlan struct {
	P   TRMMProblem
	Tun Tuning

	TriGeom

	// Labels: optional pprof label context; see GEMMPlan.Labels.
	Labels context.Context

	// RT: per-engine execution resources; see GEMMPlan.RT.
	RT *Runtime
}

// distinct kernel-memo key wrappers: TriSpec/RectSpec are shared with
// TRSM but generate different programs here.
type trmmTriKey struct{ s ktmpl.TriSpec }
type trmmRectKey struct{ s ktmpl.RectSpec }

// NewTRMMPlan runs the run-time stage for a TRMM problem.
func NewTRMMPlan(p TRMMProblem, tun Tuning) (*TRMMPlan, error) {
	geo, err := newTriGeom("TRMM", p.DT, p.M, p.N, p.Side, p.Uplo, p.TransA, p.Count, tun)
	if err != nil {
		return nil, err
	}
	return &TRMMPlan{P: p, Tun: tun, TriGeom: geo}, nil
}

// trmmLayout lays out the VM arena for the TRMM sim/VM backend (same
// scheme as trsmLayout).
func trmmLayout(pl *TRMMPlan, groups int) trsmOffsets {
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

// runTRMM executes the plan on the VM backend, optionally feeding the
// pipeline model — the cycle-model twin of the native triWorker.
func runTRMM[E vec.Float](pl *TRMMPlan, ar *arena[E], o trsmOffsets, sim *machine.Sim) error {
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
	tm.Recip = false

	progs, err := pl.programs(pl.Tun, false)
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
				for s := len(pl.steps) - 1; s >= 0; s-- {
					st := pl.steps[s]
					pr := progs[s*nct+j]
					if sim != nil {
						sim.AddCycles(kernelDispatchCycles)
					}
					vm.P[asm.PA] = triBase + st.triOff
					vm.P[asm.PB] = colBase + st.r0*bl
					if err := vm.Run(pr.tri); err != nil {
						return fmt.Errorf("core: trmm tri panel r0=%d: %w", st.r0, err)
					}
					if st.r0 > 0 {
						vm.P[asm.PA] = triBase + st.rectOff
						vm.P[asm.PX] = colBase
						vm.P[asm.PC] = colBase + st.r0*bl
						if err := vm.Run(pr.rect); err != nil {
							return fmt.Errorf("core: trmm rect panel r0=%d: %w", st.r0, err)
						}
					}
				}
				j0 += ct
			}
		}
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

// ExecTRMM runs the plan on the VM backend (and through the pipeline
// model when sim is non-nil), overwriting B.
func ExecTRMM[E vec.Float](pl *TRMMPlan, a, b *layout.Compact[E], sim *machine.Sim) error {
	p := pl.P
	if a.Count != p.Count || b.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	if a.Rows != pl.MEff || a.Cols != pl.MEff || b.Rows != p.M || b.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: ExecTRMM requires the native lane count; use SimTRMM for the %d-lane model", pl.Tun.VL)
	}
	groups := a.Groups()
	o := trmmLayout(pl, groups)
	ar := &arena[E]{mem: make([]E, o.total), vl: p.DT.Pack(), bl: blockLen(p.DT, p.DT.Pack()), groups: groups}
	copy(ar.mem[o.a:], a.Data)
	copy(ar.mem[o.b:], b.Data)
	if err := runTRMM(pl, ar, o, sim); err != nil {
		return err
	}
	copy(b.Data, ar.mem[o.b:o.b+groups*o.lenB])
	return nil
}

// SimTRMM executes the plan on a synthetic arena purely for timing.
func SimTRMM(pl *TRMMPlan, groups int, sim *machine.Sim) (int64, error) {
	p := pl.P
	o := trmmLayout(pl, groups)
	vl := pl.Tun.lanes(p.DT)
	var err error
	if p.DT.ElemBytes() == 8 {
		ar := &arena[float64]{mem: make([]float64, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
		fillArena(ar.mem)
		err = runTRMM(pl, ar, o, sim)
	} else {
		ar := &arena[float32]{mem: make([]float32, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
		fillArena(ar.mem)
		err = runTRMM(pl, ar, o, sim)
	}
	if err != nil {
		return 0, err
	}
	return sim.Cycles(), nil
}
