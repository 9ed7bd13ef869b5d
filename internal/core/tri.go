package core

import (
	"context"
	"errors"
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/bufpool"
	"iatf/internal/kernels"
	"iatf/internal/ktmpl"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// TRSM and TRMM share the whole run-time stage except their kernels.
// Both reduce the problem to a Left/Lower/NoTrans triangle over a
// canonical B, split the triangle into register-sized panels and B into
// kernel-width column tiles, and size super-batches with one Batch
// Counter. TriGeom is that geometry; both plan types embed it and one
// native worker runs both ops over it, reading each group's B where the
// compact layout stores it (BStrides). The ops differ in three places:
//   - the packed diagonal: reciprocals for TRSM (the solve kernels
//     multiply instead of dividing), the true diagonal for TRMM;
//   - the panel sweep: TRSM solves top-down (rectangle update, then the
//     triangle), TRMM multiplies bottom-up (triangle, then rectangle
//     accumulation) so every panel still reads original rows;
//   - the kernels: Rect/Tri against RectAdd/TriMul, natively and as
//     the VM programs the model path fetches per op.

// TriGeom is the canonical geometry of a triangular plan.
type TriGeom struct {
	// The kernels always run Left/Lower/NoTrans.
	MEff, NEff     int  // triangle dim and B width after side reduction
	TransposeB     bool // Right side: run against Bᵀ
	ReverseB       bool // effective-upper: index-reversed
	Panels         []int
	ColTiles       []int
	GroupsPerBatch int

	dt     vec.DType
	transA bool // effective transpose of A after side reduction
	steps  []triStep
}

// triStep is one panel: its rows and where its two kernels read the
// packed triangle.
type triStep struct {
	r0, q   int // panel rows
	rectOff int // element offset of the panel's rectangular part in the packed triangle
	triOff  int // element offset of the panel's triangular part
}

// newTriGeom runs the run-time stage of a triangular problem: side
// reduction, panels and column tiles, the Batch Counter and each panel's
// packed-triangle offsets.
func newTriGeom(op string, dt vec.DType, m, n int, side matrix.Side, uplo matrix.Uplo, transA matrix.Trans, count int,
	tun Tuning) (TriGeom, error) {
	if m < 1 || n < 1 || count < 1 {
		return TriGeom{}, fmt.Errorf("core: invalid %s problem %dx%d count %d", op, m, n, count)
	}
	if m > maxTriDim || n > maxTriDim {
		return TriGeom{}, fmt.Errorf("core: %s supports dimensions up to %d (got %dx%d); this is a small-matrix library", op, maxTriDim, m, n)
	}
	g := TriGeom{MEff: m, NEff: n, dt: dt, transA: transA == matrix.Transpose}

	// Side reduction: X·op(A) = αB  ⇔  op(A)ᵀ·Xᵀ = αBᵀ.
	if side == matrix.Right {
		g.MEff, g.NEff = n, m
		g.TransposeB = true
		g.transA = !g.transA
	}
	g.ReverseB = (uplo == matrix.Upper) != g.transA // effective triangle is upper

	// Panels: whole triangle in registers when it fits (M ≤ 5 real,
	// M ≤ 3 complex); otherwise main-kernel-height panels.
	if g.MEff <= ktmpl.MaxTriM(dt) {
		g.Panels = []int{g.MEff}
	} else {
		g.Panels = ktmpl.SplitDim(g.MEff, descending(ktmpl.TRSMPanel(dt)))
	}
	g.ColTiles = ktmpl.SplitDim(g.NEff, descending(ktmpl.MainTRSMKernel(dt).NC))

	// Batch Counter: packed triangle + B per group within L1.
	g.GroupsPerBatch = tun.groupsPerBatch(dt, g.MEff*(g.MEff+1)/2+g.MEff*g.NEff, count)

	// Each panel's packed-triangle offsets.
	bl := blockLen(dt, tun.lanes(dt))
	g.steps = make([]triStep, 0, len(g.Panels))
	r0, off := 0, 0
	for _, q := range g.Panels {
		g.steps = append(g.steps, triStep{r0: r0, q: q, rectOff: off, triOff: off + q*r0*bl})
		off += (q*r0 + q*(q+1)/2) * bl
		r0 += q
	}
	return g, nil
}

// BStrides returns where the native kernels read and write B in place,
// in every mode (§4.4's no-packing strategy): canonical block (i, j) of
// a group's B, M×N in the compact layout, sits at o + i·rs + j·cs blocks.
//
//	Left, effective lower:   o = 0,        rs = 1,  cs = M
//	Left, effective upper:   o = M−1,      rs = −1, cs = M
//	Right, effective lower:  o = 0,        rs = M,  cs = 1
//	Right, effective upper:  o = (N−1)·M,  rs = −M, cs = 1
//
// The VM path copies B into that canonical order instead (pack.BCopy).
func (g *TriGeom) BStrides() (o, rs, cs int) {
	if g.TransposeB {
		m, n := g.NEff, g.MEff
		if g.ReverseB {
			return (n - 1) * m, -m, 1
		}
		return 0, m, 1
	}
	if g.ReverseB {
		return g.MEff - 1, -1, g.MEff
	}
	return 0, 1, g.MEff
}

// triProgs is one panel's VM programs for one column tile: the
// rectangle (nil for the first panel, which has none) and the triangle.
type triProgs struct{ rect, tri asm.Prog }

// programs fetches the VM programs of every panel and column tile,
// indexed panel-major (panel s, tile j at s·len(ColTiles)+j). solve picks
// TRSM's kernels, else TRMM's, which the memo keys apart.
func (g *TriGeom) programs(tun Tuning, solve bool) ([]triProgs, error) {
	src := tun.kernels(g.dt)
	progs := make([]triProgs, len(g.steps)*len(g.ColTiles))
	for s, st := range g.steps {
		for j, ct := range g.ColTiles {
			rs := ktmpl.RectSpec{DT: g.dt, MC: st.q, NC: ct, K: st.r0, StrideC: g.MEff, StrideX: g.MEff, VL: tun.VL}
			ts := ktmpl.TriSpec{DT: g.dt, M: st.q, NCols: ct, StrideB: g.MEff, VL: tun.VL}
			pr := &progs[s*len(g.ColTiles)+j]
			var rectErr, triErr error
			if solve {
				if st.r0 > 0 {
					pr.rect, rectErr = src.get(rs, func() (asm.Prog, error) { return ktmpl.GenTRSMRect(rs) })
				}
				pr.tri, triErr = src.get(ts, func() (asm.Prog, error) { return ktmpl.GenTRSMTri(ts) })
			} else {
				if st.r0 > 0 {
					pr.rect, rectErr = src.get(trmmRectKey{rs}, func() (asm.Prog, error) { return ktmpl.GenTRMMRect(rs) })
				}
				pr.tri, triErr = src.get(trmmTriKey{ts}, func() (asm.Prog, error) { return ktmpl.GenTRMMTri(ts) })
			}
			if err := errors.Join(rectErr, triErr); err != nil {
				return nil, err
			}
		}
	}
	return progs, nil
}

// ExecTRSMNativePrepacked runs the TRSM plan with the native kernels,
// overwriting B with the solution, over `workers` participants of the
// persistent worker pool (<= 0 means auto, GOMAXPROCS). preTri, when
// non-nil, must hold the output of PrepackTRSMTri for this plan
// (group-indexed, per PrepackTriLen) and the per-call triangle pack,
// reciprocal diagonal included, is skipped; nil packs it per call.
func ExecTRSMNativePrepacked[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], preTri []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, workers)
}

// ExecTRMMNativePrepacked is the TRMM twin of ExecTRSMNativePrepacked:
// B is overwritten with the product, and preTri holds the output of
// PrepackTRMMTri.
func ExecTRMMNativePrepacked[E vec.Float](pl *TRMMPlan, a, b *layout.Compact[E], preTri []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, workers)
}

// triCall is one native execution of a triangular plan: its geometry
// plus what the worker reads from the plan's problem and per-call copy.
type triCall struct {
	geo    *TriGeom
	solve  bool // TRSM; false is TRMM
	unit   bool
	m, n   int // B's shape
	count  int
	alpha  complex128
	vl     int // the plan's lane override; 0 = native
	rt     *Runtime
	labels context.Context
}

func (pl *TRSMPlan) call() triCall {
	p := pl.P
	return triCall{geo: &pl.TriGeom, solve: true, unit: p.Diag == matrix.Unit, m: p.M, n: p.N,
		count: p.Count, alpha: p.Alpha, vl: pl.Tun.VL, rt: pl.RT.or(), labels: pl.Labels}
}

func (pl *TRMMPlan) call() triCall {
	p := pl.P
	return triCall{geo: &pl.TriGeom, unit: p.Diag == matrix.Unit, m: p.M, n: p.N,
		count: p.Count, alpha: p.Alpha, vl: pl.Tun.VL, rt: pl.RT.or(), labels: pl.Labels}
}

// execTri validates one native triangular execution and splits its
// groups over the worker pool in super-batch chunks.
func execTri[E vec.Float](c triCall, a, b *layout.Compact[E], preTri []E, workers int) error {
	g := c.geo
	if c.vl != 0 && c.vl != g.dt.Pack() {
		return fmt.Errorf("core: native execution requires the native lane count")
	}
	if a.Count != c.count || b.Count != c.count {
		return fmt.Errorf("core: batch count mismatch")
	}
	if a.Rows != g.MEff || a.Cols != g.MEff || b.Rows != c.m || b.Cols != c.n {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if preTri != nil && len(preTri) < g.PrepackTriLen(a.Groups()) {
		return fmt.Errorf("core: prepacked tri has %d elements, need %d", len(preTri), g.PrepackTriLen(a.Groups()))
	}
	c.rt.Sched.RunLabeled(c.labels, a.Groups(), workers, g.GroupsPerBatch, func(lo, hi int) {
		triWorker(c, a, b, preTri, lo, hi)
	})
	return nil
}

// triWorker runs groups [gLo, gHi) one super-batch at a time on the
// calling sched worker: pack the chunk (triangle unless prepacked, the α
// scale), then sweep its panels over each group's B in place, addressed
// through BStrides.
func triWorker[E vec.Float](c triCall, a, b *layout.Compact[E], preTri []E, gLo, gHi int) {
	g := c.geo
	vl := g.dt.Pack()
	bl := blockLen(g.dt, vl)
	cplx := g.dt.IsComplex()
	lenA := g.MEff * g.MEff * bl
	lenB := c.m * c.n * bl
	lenTri := pack.TriLen(bl, g.Panels)
	gb := g.GroupsPerBatch
	o, rs, cs := g.BStrides()

	var packTri []E
	if preTri == nil {
		buf := bufpool.Get[E](c.rt.Bufs, gb*lenTri)
		defer bufpool.Put(c.rt.Bufs, buf)
		packTri = buf.Slice()
	}

	rect, diag := kernels.RectStrided[E], kernels.TriStrided[E]
	switch {
	case c.solve && cplx:
		rect, diag = kernels.RectCplx[E], kernels.TriCplx[E]
	case !c.solve && cplx:
		rect, diag = kernels.RectAddCplx[E], kernels.TriMulCplx[E]
	case !c.solve:
		rect, diag = kernels.RectAdd[E], kernels.TriMul[E]
	}

	for sb := gLo; sb < gHi; sb += gb {
		end := min(sb+gb, gHi)
		for grp := sb; grp < end; grp++ {
			if packTri != nil {
				npackTri(a.Data[grp*lenA:(grp+1)*lenA], g.MEff, g.ReverseB, g.transA,
					c.unit, c.solve, g.Panels, cplx, vl, bl, packTri[(grp-sb)*lenTri:])
			}
			if c.alpha != 1 {
				nscale(b.Data[grp*lenB:(grp+1)*lenB], g.MEff*g.NEff, cplx, vl, real(c.alpha), imag(c.alpha))
			}
		}
		for grp := sb; grp < end; grp++ {
			var tri []E
			if packTri != nil {
				tri = packTri[(grp-sb)*lenTri:]
			} else {
				tri = preTri[grp*lenTri:]
			}
			img := b.Data[grp*lenB : (grp+1)*lenB]
			// Panel by panel: columns are independent, so each column sees
			// the same operations in the same order as in a sweep tile by
			// tile, and the triangle kernel takes every column in one call.
			for i := range g.steps {
				st := &g.steps[i]
				if !c.solve {
					// Bottom-up: each panel multiplies its own rows before
					// any panel above it is touched, so the rectangle
					// accumulation reads original values.
					st = &g.steps[len(g.steps)-1-i]
				}
				rows := o + st.r0*rs
				if !c.solve {
					diag(tri[st.triOff:], img, rows, st.q, g.NEff, rs, cs, vl)
				}
				for j, col := 0, o; st.r0 > 0 && j < len(g.ColTiles); j++ {
					rect(tri[st.rectOff:], img, img, col, col+st.r0*rs, st.q, g.ColTiles[j], st.r0, rs, cs, cs, vl)
					col += g.ColTiles[j] * cs
				}
				if c.solve {
					diag(tri[st.triOff:], img, rows, st.q, g.NEff, rs, cs, vl)
				}
			}
		}
	}
}

// npackTri packs the triangle of one group — the native twin of
// pack.Tri. recip stores the diagonal as reciprocals (TRSM); TRMM packs
// the true diagonal.
func npackTri[E vec.Float](src []E, m int, reverse, swap, unit, recip bool, panels []int, cplx bool, vl, bl int, dst []E) {
	cur := 0
	srcBlock := func(i, j int) int {
		if reverse {
			i, j = m-1-i, m-1-j
		}
		if swap {
			i, j = j, i
		}
		return (j*m + i) * bl
	}
	r0 := 0
	for _, q := range panels {
		for l := 0; l < r0; l++ {
			for r := 0; r < q; r++ {
				s := srcBlock(r0+r, l)
				copy(dst[cur:cur+bl], src[s:s+bl])
				cur += bl
			}
		}
		for i := 0; i < q; i++ {
			for j := 0; j <= i; j++ {
				s := srcBlock(r0+i, r0+j)
				switch {
				case i != j:
					copy(dst[cur:cur+bl], src[s:s+bl])
				case unit:
					for lane := 0; lane < vl; lane++ {
						dst[cur+lane] = 1
						if cplx {
							dst[cur+vl+lane] = 0
						}
					}
				case !recip:
					copy(dst[cur:cur+bl], src[s:s+bl])
				case !cplx:
					for lane := 0; lane < vl; lane++ {
						if v := src[s+lane]; v != 0 {
							dst[cur+lane] = 1 / v
						} else {
							dst[cur+lane] = 0
						}
					}
				default:
					for lane := 0; lane < vl; lane++ {
						re := float64(src[s+lane])
						im := float64(src[s+vl+lane])
						den := re*re + im*im
						if den != 0 {
							dst[cur+lane] = E(re / den)
							dst[cur+vl+lane] = E(-im / den)
						} else {
							dst[cur+lane] = 0
							dst[cur+vl+lane] = 0
						}
					}
				}
				cur += bl
			}
		}
		r0 += q
	}
}
