package core

import (
	"context"
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
// native worker runs both ops over it. The ops differ in three places:
//   - the packed diagonal: reciprocals for TRSM (the solve kernels
//     multiply instead of dividing), the true diagonal for TRMM;
//   - the panel sweep: TRSM solves top-down (rectangle update, then the
//     triangle), TRMM multiplies bottom-up (triangle, then rectangle
//     accumulation) so every panel still reads original rows;
//   - the kernels: Rect/Tri against RectAdd/TriMul, generated and
//     cached per op.

// TriGeom is the canonical geometry of a triangular plan.
type TriGeom struct {
	// The kernels always run Left/Lower/NoTrans.
	MEff, NEff     int  // triangle dim and B width after side reduction
	TransposeB     bool // Right side: run against Bᵀ
	ReverseB       bool // effective-upper: index-reversed
	PackB          bool // B copied into a canonical buffer
	Panels         []int
	ColTiles       []int
	GroupsPerBatch int

	dt     vec.DType
	transA bool // effective transpose of A after side reduction
	steps  []triStep
}

// triStep is one panel's kernel pair within a column tile.
type triStep struct {
	r0, q   int              // panel rows
	rectOff int              // element offset of the panel's rectangular part in the packed triangle
	triOff  int              // element offset of the panel's triangular part
	rect    map[int]asm.Prog // VM/cycle-backend kernels, keyed by column-tile width
	tri     map[int]asm.Prog
}

// newTriGeom runs the run-time stage of a triangular problem: side
// reduction, the Pack Selector's B decision, panels and column tiles,
// the Batch Counter and each panel's packed-triangle offsets. rect and
// tri instantiate the op's kernels for one panel and tile width.
func newTriGeom(op string, dt vec.DType, m, n int, side matrix.Side, uplo matrix.Uplo, transA matrix.Trans, count int,
	tun Tuning, rect func(ktmpl.RectSpec) (asm.Prog, error), tri func(ktmpl.TriSpec) (asm.Prog, error)) (TriGeom, error) {
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

	// Pack Selector: B needs the canonical buffer only when its row order
	// or orientation changes; the plain lower case runs in place
	// (§4.4's no-packing strategy for LNLN).
	g.PackB = g.TransposeB || g.ReverseB

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

	// Kernels per panel × column-tile width.
	bl := blockLen(dt, tun.lanes(dt))
	r0, off := 0, 0
	for _, q := range g.Panels {
		st := triStep{r0: r0, q: q, rectOff: off, triOff: off + q*r0*bl,
			rect: map[int]asm.Prog{}, tri: map[int]asm.Prog{}}
		for _, ct := range dedupe(g.ColTiles) {
			if r0 > 0 {
				prog, err := rect(ktmpl.RectSpec{DT: dt, MC: q, NC: ct, K: r0,
					StrideC: g.MEff, StrideX: g.MEff, VL: tun.VL})
				if err != nil {
					return TriGeom{}, err
				}
				st.rect[ct] = prog
			}
			prog, err := tri(ktmpl.TriSpec{DT: dt, M: q, NCols: ct, StrideB: g.MEff, VL: tun.VL})
			if err != nil {
				return TriGeom{}, err
			}
			st.tri[ct] = prog
		}
		g.steps = append(g.steps, st)
		off += (q*r0 + q*(q+1)/2) * bl
		r0 += q
	}
	return g, nil
}

// ExecTRSMNativePrepacked runs the TRSM plan with the native kernels,
// overwriting B with the solution, over `workers` participants of the
// persistent worker pool (<= 0 means auto, GOMAXPROCS). preTri, when
// non-nil, must hold the output of PrepackTRSMTri for this plan
// (group-indexed, per PrepackTriLen) and the per-call triangle pack,
// reciprocal diagonal included, is skipped; nil packs it per call.
func ExecTRSMNativePrepacked[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], preTri []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, nil, nil, workers)
}

// ExecTRMMNativePrepacked is the TRMM twin of ExecTRSMNativePrepacked:
// B is overwritten with the product, and preTri holds the output of
// PrepackTRMMTri.
func ExecTRMMNativePrepacked[E vec.Float](pl *TRMMPlan, a, b *layout.Compact[E], preTri []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, nil, nil, workers)
}

// Chained execution for cross-op fusion: when two adjacent triangular
// stages of a chain canonicalize B the same way (equal ReverseB and
// TransposeB), the producer's nBUncopy and the consumer's nBCopy are
// inverse block permutations — BUncopy∘BCopy is the identity on every
// group, so the pair can be elided bit-exactly by handing the canonical
// image straight across the stage boundary.
//
// The image is a full-batch, group-indexed canonical array of exactly
// len(b.Data) elements (MEff·NEff == M·N, so the canonical group length
// equals the compact group length). Ownership stays with the caller
// (the chain executor), which must either hand the buffer to the next
// stage or re-materialize it into B with ScatterCanonicalB — while an
// image is live, b.Data is stale.

// ExecTRSMNativeChained is ExecTRSMNativePrepacked with the B operand's
// canonical image handed across stage boundaries. inB, when non-nil,
// holds B's canonical image (per ScatterCanonicalB geometry) and the
// copy of B into it is skipped; outB, when non-nil, receives the solved
// canonical image and the write-back into B is skipped. When both are
// given they must be the same buffer (the solve runs in place on the
// donated image). Both nil is ExecTRSMNativePrepacked. A handoff
// requires a plan with PackB.
func ExecTRSMNativeChained[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], preTri, inB, outB []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, inB, outB, workers)
}

// ExecTRMMNativeChained is the TRMM twin of ExecTRSMNativeChained.
func ExecTRMMNativeChained[E vec.Float](pl *TRMMPlan, a, b *layout.Compact[E], preTri, inB, outB []E, workers int) error {
	return execTri(pl.call(), a, b, preTri, inB, outB, workers)
}

// ScatterCanonicalB re-materializes a donated canonical image into B —
// the per-group nBUncopy a producer stage elided. The chain executor
// calls it when a fused handoff is abandoned (stage error, context
// cancellation) so B is left exactly as the serial sequence would have
// left it after the producer stage.
func ScatterCanonicalB[E vec.Float](b *layout.Compact[E], reverse, transpose bool, canon []E) {
	bl := b.BlockLen()
	lenB := b.Rows * b.Cols * bl
	for g := 0; g < b.Groups(); g++ {
		nBUncopy(b.Data[g*lenB:(g+1)*lenB], b.Rows, b.Cols, reverse, transpose, bl, canon[g*lenB:])
	}
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
func execTri[E vec.Float](c triCall, a, b *layout.Compact[E], preTri, inB, outB []E, workers int) error {
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
	canon := inB
	if canon == nil {
		canon = outB
	}
	if canon != nil && !g.PackB {
		return fmt.Errorf("core: chained B handoff requires a canonicalizing plan (PackB)")
	}
	if inB != nil && len(inB) < len(b.Data) {
		return fmt.Errorf("core: donated canonical B has %d elements, need %d", len(inB), len(b.Data))
	}
	if outB != nil && len(outB) < len(b.Data) {
		return fmt.Errorf("core: canonical B out has %d elements, need %d", len(outB), len(b.Data))
	}
	if inB != nil && outB != nil && &inB[0] != &outB[0] {
		return fmt.Errorf("core: chained in/out images must alias (in-place handoff)")
	}
	if preTri != nil && len(preTri) < g.PrepackTriLen(a.Groups()) {
		return fmt.Errorf("core: prepacked tri has %d elements, need %d", len(preTri), g.PrepackTriLen(a.Groups()))
	}
	donated, keep := inB != nil, outB != nil
	c.rt.Sched.RunLabeled(c.labels, a.Groups(), workers, g.GroupsPerBatch, func(lo, hi int) {
		triWorker(c, a, b, preTri, canon, donated, keep, lo, hi)
	})
	return nil
}

// triImage returns where group grp's canonical B lives: the chain's
// image when one is handed over, else the super-batch slot buffer when
// the plan packs B, else B itself.
func triImage[E vec.Float](b, canon, slots []E, grp, slot, lenB int) []E {
	switch {
	case canon != nil:
		return canon[grp*lenB : (grp+1)*lenB]
	case slots != nil:
		return slots[slot*lenB : (slot+1)*lenB]
	}
	return b[grp*lenB : (grp+1)*lenB]
}

// triWorker runs groups [gLo, gHi) one super-batch at a time on the
// calling sched worker: pack the chunk (triangle unless prepacked, B's
// canonical image unless donated, the α scale), sweep its panels, then
// write it back unless the image is kept for the next chain stage.
func triWorker[E vec.Float](c triCall, a, b *layout.Compact[E], preTri, canon []E, donated, keep bool, gLo, gHi int) {
	g := c.geo
	vl := g.dt.Pack()
	bl := blockLen(g.dt, vl)
	cplx := g.dt.IsComplex()
	lenA := g.MEff * g.MEff * bl
	lenB := c.m * c.n * bl
	lenTri := pack.TriLen(bl, g.Panels)
	gb := g.GroupsPerBatch

	var packTri, slots []E
	if preTri == nil {
		buf := bufpool.Get[E](c.rt.Bufs, gb*lenTri)
		defer bufpool.Put(c.rt.Bufs, buf)
		packTri = buf.Slice()
	}
	if g.PackB && canon == nil {
		buf := bufpool.Get[E](c.rt.Bufs, gb*lenB)
		defer bufpool.Put(c.rt.Bufs, buf)
		slots = buf.Slice()
	}

	rect, diag := kernels.Rect[E], kernels.Tri[E]
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
			slot := grp - sb
			if packTri != nil {
				npackTri(a.Data[grp*lenA:(grp+1)*lenA], g.MEff, g.ReverseB, g.transA,
					c.unit, c.solve, g.Panels, cplx, vl, bl, packTri[slot*lenTri:])
			}
			img := triImage(b.Data, canon, slots, grp, slot, lenB)
			if g.PackB && !donated {
				nBCopy(b.Data[grp*lenB:(grp+1)*lenB], c.m, c.n, g.ReverseB, g.TransposeB, bl, img)
			}
			if c.alpha != 1 {
				nscale(img, g.MEff*g.NEff, cplx, vl, real(c.alpha), imag(c.alpha))
			}
		}
		for grp := sb; grp < end; grp++ {
			slot := grp - sb
			var tri []E
			if packTri != nil {
				tri = packTri[slot*lenTri:]
			} else {
				tri = preTri[grp*lenTri:]
			}
			img := triImage(b.Data, canon, slots, grp, slot, lenB)
			j0 := 0
			for _, ct := range g.ColTiles {
				col := img[j0*g.MEff*bl:]
				for i := range g.steps {
					st := &g.steps[i]
					if !c.solve {
						// Bottom-up: each panel multiplies its own rows
						// before any panel above it is touched, so the
						// rectangle accumulation reads original values.
						st = &g.steps[len(g.steps)-1-i]
					}
					rows := col[st.r0*bl:]
					if c.solve && st.r0 > 0 {
						rect(tri[st.rectOff:], col, rows, st.q, ct, st.r0, g.MEff, g.MEff, vl)
					}
					diag(tri[st.triOff:], rows, st.q, ct, g.MEff, vl)
					if !c.solve && st.r0 > 0 {
						rect(tri[st.rectOff:], col, rows, st.q, ct, st.r0, g.MEff, g.MEff, vl)
					}
				}
				j0 += ct
			}
		}
		if g.PackB && !keep {
			for grp := sb; grp < end; grp++ {
				nBUncopy(b.Data[grp*lenB:(grp+1)*lenB], c.m, c.n, g.ReverseB, g.TransposeB, bl,
					triImage(b.Data, canon, slots, grp, grp-sb, lenB))
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

// nBCopy/nBUncopy canonicalize B — the native twins of pack.BCopy/BUncopy.
func nBCopy[E vec.Float](src []E, rows, cols int, reverse, transpose bool, bl int, dst []E) {
	dr, dc := rows, cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := i, j
			if transpose {
				si, sj = j, i
			}
			if reverse {
				if transpose {
					sj = cols - 1 - sj
				} else {
					si = rows - 1 - si
				}
			}
			s := (sj*rows + si) * bl
			d := (j*dr + i) * bl
			copy(dst[d:d+bl], src[s:s+bl])
		}
	}
}

func nBUncopy[E vec.Float](dst []E, rows, cols int, reverse, transpose bool, bl int, src []E) {
	dr, dc := rows, cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := i, j
			if transpose {
				si, sj = j, i
			}
			if reverse {
				if transpose {
					sj = cols - 1 - sj
				} else {
					si = rows - 1 - si
				}
			}
			s := (j*dr + i) * bl
			d := (sj*rows + si) * bl
			copy(dst[d:d+bl], src[s:s+bl])
		}
	}
}
