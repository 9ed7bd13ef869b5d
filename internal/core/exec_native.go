package core

import (
	"fmt"

	"iatf/internal/bufpool"
	"iatf/internal/kernels"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// The native backend executes plans with the pure-Go kernels directly on
// the compact storage — no simulation arena, no copies. Packing is done
// with the same panel orders as the pack package (the VM/native
// backend-equivalence tests pin them to each other bit for bit), but
// reads and writes separate slices so operands stay in place.
//
// Group-level parallelism implements the paper's stated future work
// (multi-core): interleave groups are fully independent, so the sched
// worker pool pulls super-batch-sized chunks of the group range, each
// chunk packing into pooled buffers. workers <= 0 means auto
// (GOMAXPROCS); see sched.Resolve.
//
// Packing is synchronous: the worker that owns a chunk packs each
// super-batch, computes it and writes it back before moving on. A packer
// goroutine running one super-batch ahead cost more in handoffs and
// context switches than it hid (EXPERIMENTS.md, "Synchronous packing").

// npackA packs the A row panels of one group (N-shape).
func npackA[E vec.Float](src []E, rows int, trans bool, mtiles []int, k, bl int, dst []E) {
	cur := 0
	i0 := 0
	for _, mc := range mtiles {
		if !trans {
			run := mc * bl
			s := i0 * bl
			for l := 0; l < k; l++ {
				copy(dst[cur:cur+run], src[s:s+run])
				s += rows * bl
				cur += run
			}
		} else {
			colStride := rows * bl
			base := i0 * colStride
			for l := 0; l < k; l++ {
				s := base + l*bl
				for r := 0; r < mc; r++ {
					copy(dst[cur:cur+bl], src[s:s+bl])
					s += colStride
					cur += bl
				}
			}
		}
		i0 += mc
	}
}

// npackB packs the B column panels of one group (Z-shape).
func npackB[E vec.Float](src []E, rows int, trans bool, ntiles []int, k, bl int, dst []E) {
	cur := 0
	j0 := 0
	for _, nc := range ntiles {
		if !trans {
			colStride := rows * bl
			base := j0 * colStride
			for l := 0; l < k; l++ {
				s := base + l*bl
				for cc := 0; cc < nc; cc++ {
					copy(dst[cur:cur+bl], src[s:s+bl])
					s += colStride
					cur += bl
				}
			}
		} else {
			run := nc * bl
			s := j0 * bl
			for l := 0; l < k; l++ {
				copy(dst[cur:cur+run], src[s:s+run])
				s += rows * bl
				cur += run
			}
		}
		j0 += nc
	}
}

// nscale scales a dense group region by a (possibly complex) scalar.
func nscale[E vec.Float](data []E, n int, cplx bool, vl int, re, im float64) {
	if !cplx {
		r := E(re)
		for i := 0; i < n*vl; i++ {
			data[i] *= r
		}
		return
	}
	for b := 0; b < n; b++ {
		off := b * 2 * vl
		for lane := 0; lane < vl; lane++ {
			x := float64(data[off+lane])
			y := float64(data[off+vl+lane])
			data[off+lane] = E(x*re - y*im)
			data[off+vl+lane] = E(x*im + y*re)
		}
	}
}

// ExecGEMMNativePrepacked runs the plan with the native Go kernels,
// updating C in place, over `workers` participants of the persistent
// worker pool splitting the interleave groups into super-batch chunks
// (<= 0 means auto, GOMAXPROCS). preA/preB, when non-nil, must hold the
// output of PrepackGEMMA/PrepackGEMMB for this plan (group-indexed, per
// PrepackALen/PrepackBLen), and the corresponding pack pass is skipped.
// A nil pre-buffer packs that operand per call.
func ExecGEMMNativePrepacked[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], preA, preB []E, workers int) error {
	p := pl.P
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: native execution requires the native lane count")
	}
	if a.Type != p.DT || b.Type != p.DT || c.Type != p.DT {
		return fmt.Errorf("core: dtype mismatch")
	}
	if a.Count != p.Count || b.Count != p.Count || c.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	wantAR := p.M
	if p.TransA == matrix.Transpose {
		wantAR = p.K
	}
	wantBR := p.K
	if p.TransB == matrix.Transpose {
		wantBR = p.N
	}
	if a.Rows != wantAR || b.Rows != wantBR || c.Rows != p.M || c.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if preA != nil && len(preA) < pl.PrepackALen(a.Groups()) {
		return fmt.Errorf("core: prepacked A has %d elements, need %d", len(preA), pl.PrepackALen(a.Groups()))
	}
	if preB != nil && len(preB) < pl.PrepackBLen(b.Groups()) {
		return fmt.Errorf("core: prepacked B has %d elements, need %d", len(preB), pl.PrepackBLen(b.Groups()))
	}
	pl.RT.or().Sched.RunLabeled(pl.Labels, a.Groups(), workers, pl.GroupsPerBatch, func(lo, hi int) {
		gemmWorker(pl, a, b, c, preA, preB, lo, hi)
	})
	return nil
}

// gemmWorker runs groups [gLo, gHi) one super-batch at a time on the
// calling sched worker: pack the chunk's A and B panels into the slot
// buffers (unless prepacked or on a no-packing fast path), then compute.
func gemmWorker[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], preA, preB []E, gLo, gHi int) {
	p := pl.P
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	cplx := p.DT.IsComplex()
	lenA := p.M * p.K * bl
	lenB := p.K * p.N * bl
	lenC := p.M * p.N * bl
	transA := p.TransA == matrix.Transpose
	transB := p.TransB == matrix.Transpose

	gb := pl.GroupsPerBatch
	rt := pl.RT.or()
	var packA, packB []E
	if pl.PackA && preA == nil {
		bufA := bufpool.Get[E](rt.Bufs, gb*lenA)
		defer bufpool.Put(rt.Bufs, bufA)
		packA = bufA.Slice()
	}
	if pl.PackB && preB == nil {
		bufB := bufpool.Get[E](rt.Bufs, gb*lenB)
		defer bufpool.Put(rt.Bufs, bufB)
		packB = bufB.Slice()
	}

	alphaRe, alphaIm := E(real(p.Alpha)), E(imag(p.Alpha))
	for sb := gLo; sb < gHi; sb += gb {
		end := min(sb+gb, gHi)
		for g := sb; g < end; g++ {
			slot := g - sb
			if packA != nil {
				npackA(a.Data[g*lenA:(g+1)*lenA], a.Rows, transA, pl.MTiles, p.K, bl, packA[slot*lenA:])
			}
			if packB != nil {
				npackB(b.Data[g*lenB:(g+1)*lenB], b.Rows, transB, pl.NTiles, p.K, bl, packB[slot*lenB:])
			}
		}
		for g := sb; g < end; g++ {
			slot := g - sb
			cg := c.Data[g*lenC : (g+1)*lenC]
			ovw := p.Beta == 0
			if p.Beta != 1 && !ovw {
				nscale(cg, p.M*p.N, cplx, vl, real(p.Beta), imag(p.Beta))
			}
			for _, t := range pl.tiles {
				kOff := 0
				for _, kc := range pl.KChunks {
					var pa, pb []E
					switch {
					case !pl.PackA:
						pa = a.Data[g*lenA+kOff*p.M*bl:]
					case preA != nil:
						pa = preA[g*lenA+(t.i0*p.K+kOff*t.mc)*bl:]
					default:
						pa = packA[slot*lenA+(t.i0*p.K+kOff*t.mc)*bl:]
					}
					switch {
					case !pl.PackB:
						// No-packing fast path: B is stored N×K and the
						// plan has a single N tile, so the trans pack
						// order coincides with storage order.
						pb = b.Data[g*lenB+kOff*p.N*bl:]
					case preB != nil:
						pb = preB[g*lenB+(t.j0*p.K+kOff*t.nc)*bl:]
					default:
						pb = packB[slot*lenB+(t.j0*p.K+kOff*t.nc)*bl:]
					}
					cb := cg[(t.j0*p.M+t.i0)*bl:]
					// Only the first chunk may overwrite (beta = 0);
					// later chunks always accumulate.
					chunkOvw := ovw && kOff == 0
					if cplx {
						kernels.GEMMCplx(pa, pb, cb, t.mc, t.nc, kc, p.M, vl, alphaRe, alphaIm, chunkOvw)
					} else {
						kernels.GEMM(pa, pb, cb, t.mc, t.nc, kc, p.M, vl, alphaRe, chunkOvw)
					}
					kOff += kc
				}
			}
		}
	}
}

// PipelineStats and PipelineSnapshot exist only because
// perfbench/traced.go reads them for its core.pipeline_* metrics. The
// streaming pack/compute pipeline they counted is gone (packing is
// synchronous, see the top of this file), so the snapshot is always
// zero. Delete both once the benchmark drops those metrics.
type PipelineStats struct {
	Chunks, Stalls, Fallbacks uint64
}

// PipelineSnapshot returns zero counters.
func PipelineSnapshot() PipelineStats { return PipelineStats{} }
