package core

import (
	"context"
	"fmt"

	"iatf/internal/bufpool"
	"iatf/internal/kernels"
	"iatf/internal/ktmpl"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Compact batched SYRK — C := alpha·op(A)·op(A)ᵀ + beta·C touching only
// one triangle of C — completes the level-3 story alongside GEMM, TRSM
// and TRMM. It reuses the GEMM machinery wholesale: the A operand is
// packed once as row panels (N-shape) and once transposed as column
// panels (Z-shape), the off-diagonal triangle tiles run the plain GEMM
// kernels, and square diagonal tiles compute into a scratch tile whose
// triangle is merged. Native backend.

// SYRKProblem describes a compact batched SYRK.
type SYRKProblem struct {
	DT          vec.DType
	N, K        int // C is N×N; op(A) is N×K
	Uplo        matrix.Uplo
	Trans       matrix.Trans
	Alpha, Beta complex128
	Count       int
}

// FLOPs returns the useful floating-point work of the whole batch
// (half a GEMM: only one triangle is produced).
func (p SYRKProblem) FLOPs() float64 {
	return p.DT.FlopsPerElem() / 2 * float64(p.N) * float64(p.N+1) * float64(p.K) * float64(p.Count)
}

// SYRKPlan is the generated execution plan.
type SYRKPlan struct {
	P   SYRKProblem
	Tun Tuning

	Tiles          []int // symmetric tile grid on both C dimensions
	KChunks        []int
	GroupsPerBatch int

	// Labels: optional pprof label context; see GEMMPlan.Labels.
	Labels context.Context

	// RT: per-engine execution resources; see GEMMPlan.RT.
	RT *Runtime
}

// syrkTileGrid returns the symmetric tile sizes: the largest kernel size
// valid as both mc and nc for the type.
func syrkTileGrid(dt vec.DType) []int {
	m := ktmpl.MainGEMMKernel(dt)
	q := m.MC
	if m.NC < q {
		q = m.NC
	}
	return descending(q)
}

// NewSYRKPlan runs the run-time stage for a SYRK problem.
func NewSYRKPlan(p SYRKProblem, tun Tuning) (*SYRKPlan, error) {
	if p.N < 1 || p.K < 1 || p.Count < 1 {
		return nil, fmt.Errorf("core: invalid SYRK problem N=%d K=%d count %d", p.N, p.K, p.Count)
	}
	grid := syrkTileGrid(p.DT)
	t := tiles(p.N, grid[0])
	if err := checkPlanCalls("SYRK", t*(t+1)/2*tiles(p.K, maxKernelK), p.N, p.K); err != nil {
		return nil, err
	}
	pl := &SYRKPlan{P: p, Tun: tun}
	pl.Tiles = ktmpl.SplitDim(p.N, grid)
	pl.KChunks = splitK(p.K)

	// Batch Counter: op(A)'s two packed copies + C per group.
	pl.GroupsPerBatch = tun.groupsPerBatch(p.DT, 2*p.N*p.K+p.N*p.N, p.Count)
	return pl, nil
}

// ExecSYRKNativeParallel runs the plan with the native kernels,
// updating the requested triangle of C in place, with worker-parallel
// groups. workers <= 0 means auto (GOMAXPROCS).
func ExecSYRKNativeParallel[E vec.Float](pl *SYRKPlan, a, c *layout.Compact[E], workers int) error {
	p := pl.P
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: native execution requires the native lane count")
	}
	if a.Count != p.Count || c.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	wantAR, wantAC := p.N, p.K
	if p.Trans == matrix.Transpose {
		wantAR, wantAC = p.K, p.N
	}
	if a.Rows != wantAR || a.Cols != wantAC || c.Rows != p.N || c.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d C=%dx%d", a.Rows, a.Cols, c.Rows, c.Cols)
	}
	pl.RT.or().Sched.RunLabeled(pl.Labels, a.Groups(), workers, pl.GroupsPerBatch, func(lo, hi int) {
		syrkWorker(pl, a, c, lo, hi)
	})
	return nil
}

func syrkWorker[E vec.Float](pl *SYRKPlan, a, c *layout.Compact[E], gLo, gHi int) {
	p := pl.P
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	cplx := p.DT.IsComplex()
	lenA := p.N * p.K * bl
	lenC := p.N * p.N * bl
	trans := p.Trans == matrix.Transpose
	aRows := a.Rows

	gb := pl.GroupsPerBatch
	rt := pl.RT.or()
	bufA := bufpool.Get[E](rt.Bufs, gb*lenA)  // N-shape row panels
	bufAT := bufpool.Get[E](rt.Bufs, gb*lenA) // Z-shape column panels of op(A)ᵀ
	bufS := bufpool.Get[E](rt.Bufs, 4*4*bl)   // one diagonal tile
	defer bufpool.Put(rt.Bufs, bufA)
	defer bufpool.Put(rt.Bufs, bufAT)
	defer bufpool.Put(rt.Bufs, bufS)
	packA, packAT, scratch := bufA.Slice(), bufAT.Slice(), bufS.Slice()
	alphaRe, alphaIm := E(real(p.Alpha)), E(imag(p.Alpha))
	upper := p.Uplo == matrix.Upper

	for sb := gLo; sb < gHi; sb += gb {
		end := sb + gb
		if end > gHi {
			end = gHi
		}
		for g := sb; g < end; g++ {
			slot := g - sb
			src := a.Data[g*a.GroupLen():]
			// op(A) row panels (N-shape) and op(A)ᵀ column panels
			// (Z-shape): for op(A)ᵀ the packed "B" operand reads op(A)
			// with the opposite transposition.
			npackA(src, aRows, trans, pl.Tiles, p.K, bl, packA[slot*lenA:])
			npackB(src, aRows, !trans, pl.Tiles, p.K, bl, packAT[slot*lenA:])
		}
		for g := sb; g < end; g++ {
			slot := g - sb
			cg := c.Data[g*lenC : (g+1)*lenC]
			// Beta pass over the requested triangle only.
			scaleTriangle(cg, p.N, upper, cplx, vl, real(p.Beta), imag(p.Beta))

			i0 := 0
			for ti, mc := range pl.Tiles {
				j0 := 0
				for tj, nc := range pl.Tiles {
					lowerTile := j0 < i0
					upperTile := j0 > i0
					diag := ti == tj
					want := diag || (upper && upperTile) || (!upper && lowerTile)
					if !want {
						j0 += nc
						continue
					}
					kOff := 0
					for _, kc := range pl.KChunks {
						pa := packA[slot*lenA+(i0*p.K+kOff*mc)*bl:]
						pb := packAT[slot*lenA+(j0*p.K+kOff*nc)*bl:]
						if diag {
							// Compute the full square tile into scratch,
							// then merge its triangle.
							first := kOff == 0
							if cplx {
								kernels.GEMMCplx(pa, pb, scratch, mc, nc, kc, mc, vl, alphaRe, alphaIm, first)
							} else {
								kernels.GEMM(pa, pb, scratch, mc, nc, kc, mc, vl, alphaRe, first)
							}
						} else {
							cb := cg[(j0*p.N+i0)*bl:]
							if cplx {
								kernels.GEMMCplx(pa, pb, cb, mc, nc, kc, p.N, vl, alphaRe, alphaIm, false)
							} else {
								kernels.GEMM(pa, pb, cb, mc, nc, kc, p.N, vl, alphaRe, false)
							}
						}
						kOff += kc
					}
					if diag {
						mergeTriangle(cg, scratch, p.N, i0, mc, upper, cplx, vl)
					}
					j0 += nc
				}
				i0 += mc
			}
		}
	}
}

// scaleTriangle scales the uplo triangle (with diagonal) of an N×N group
// by a scalar.
func scaleTriangle[E vec.Float](cg []E, n int, upper, cplx bool, vl int, re, im float64) {
	if re == 1 && im == 0 {
		return
	}
	bl := vl
	if cplx {
		bl = 2 * vl
	}
	for j := 0; j < n; j++ {
		lo, hi := j, n // lower: rows j..n-1
		if upper {
			lo, hi = 0, j+1
		}
		off := (j*n + lo) * bl
		nscale(cg[off:], hi-lo, cplx, vl, re, im)
	}
}

// mergeTriangle adds the triangle of a computed diagonal scratch tile
// into C (the scratch already carries alpha; C already carries beta·C).
func mergeTriangle[E vec.Float](cg, scratch []E, n, i0, q int, upper, cplx bool, vl int) {
	bl := vl
	if cplx {
		bl = 2 * vl
	}
	for cc := 0; cc < q; cc++ {
		for r := 0; r < q; r++ {
			inTri := r >= cc
			if upper {
				inTri = r <= cc
			}
			if !inTri {
				continue
			}
			dst := ((i0+cc)*n + i0 + r) * bl
			src := (cc*q + r) * bl
			for e := 0; e < bl; e++ {
				cg[dst+e] += scratch[src+e]
			}
		}
	}
}
