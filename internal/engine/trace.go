package engine

import (
	"fmt"

	"iatf/internal/core"
	"iatf/internal/obs"
	"iatf/internal/sched"
)

// Trace-event assembly: each builder renders one dispatched call's
// command queue — the packing kernels the Pack Selector chose, the
// tile/kernel sequence of one interleave group, the Batch Counter's
// super-batch size and the worker split — mirroring the traversal order
// of the native executors in internal/core. Builders only run for traced
// calls, so they may allocate freely.

// traceBase fills the descriptor and worker-split fields shared by all
// ops: groups are pulled in super-batch-sized chunks by up to `workers`
// participants (capped by the chunk count, as sched.Run does).
func traceBase(op *OpDesc, dtype, mode string, m, n, k, count, groups, gpb int, outcome obs.CacheOutcome) obs.TraceEvent {
	chunks := (groups + gpb - 1) / gpb
	workers := sched.Resolve(op.Workers)
	if workers > chunks {
		workers = chunks
	}
	return obs.TraceEvent{
		Op: op.Kind.String(), DType: dtype, Mode: mode,
		M: m, N: n, K: k, Count: count,
		CacheOutcome:   outcome.String(),
		Groups:         groups,
		GroupsPerBatch: gpb,
		Chunks:         chunks,
		Workers:        workers,
	}
}

func gemmTrace(op *OpDesc, pl *core.GEMMPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), gemmMode(op.TransA, op.TransB),
		p.M, p.N, p.K, p.Count, groups, pl.GroupsPerBatch, outcome)
	if pl.PackA {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "npackA",
			Detail: fmt.Sprintf("A row panels (N-shape), M tiles %v, K=%d", pl.MTiles, p.K)})
	} else {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "none",
			Detail: "A no-packing fast path (§4.4): native order already is the row panel"})
	}
	if pl.PackB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "npackB",
			Detail: fmt.Sprintf("B column panels (Z-shape), N tiles %v, K=%d", pl.NTiles, p.K)})
	} else {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "none",
			Detail: "B no-packing fast path (§4.4): Bᵀ storage already is the single column panel"})
	}
	if p.Beta != 0 && p.Beta != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "nscale",
			Detail: fmt.Sprintf("C *= beta (%v)", p.Beta)})
	}
	i0 := 0
	for _, mc := range pl.MTiles {
		j0 := 0
		for _, nc := range pl.NTiles {
			kOff := 0
			for _, kc := range pl.KChunks {
				ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
					Kernel: fmt.Sprintf("%sgemm_%dx%d", p.DT, mc, nc),
					Detail: fmt.Sprintf("C[%d:%d,%d:%d] += op(A)·op(B), k=%d:%d",
						i0, i0+mc, j0, j0+nc, kOff, kOff+kc)})
				kOff += kc
			}
			j0 += nc
		}
		i0 += mc
	}
	return ev
}

// triTrace renders a TRSM or TRMM command queue. The ops share the
// triangle/B packing and the panel decomposition; TRSM solves panels
// top-down against the reciprocal diagonal (rectangle update first),
// TRMM multiplies them bottom-up with the true diagonal (rectangle
// update last).
func triTrace(op *OpDesc, key planKey, count int, tv *triView, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	solve := key.kind == OpTRSM
	ev := traceBase(op, key.dt.String(), shapeOf(key).Mode, key.m, key.n, 0, count, groups, tv.gpb, outcome)
	diag := "true diagonal"
	if solve {
		diag = "reciprocal diagonal"
	}
	ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "npackTri",
		Detail: fmt.Sprintf("packed triangle, panels %v, %s", tv.panels, diag)})
	if tv.packB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "nBCopy",
			Detail: fmt.Sprintf("canonicalize B (reverse=%v, transpose=%v)", tv.reverse, tv.transpose)})
	} else {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "none",
			Detail: "B in place: canonical lower solve order (§4.4)"})
	}
	if op.Alpha != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "nscale",
			Detail: fmt.Sprintf("B *= alpha (%v)", op.Alpha)})
	}
	dt := key.dt
	for _, ct := range tv.colTiles {
		for j := range tv.panels {
			i := j
			if !solve {
				i = len(tv.panels) - 1 - j
			}
			q, r0 := tv.panels[i], 0
			for _, p := range tv.panels[:i] {
				r0 += p
			}
			rect := obs.Command{Stage: "compute",
				Kernel: fmt.Sprintf("%strmm_rect_%dx%d", dt, q, ct),
				Detail: fmt.Sprintf("rows %d:%d += A[%d:,0:%d]·B[0:%d], %d cols", r0, r0+q, r0, r0, r0, ct)}
			tri := obs.Command{Stage: "compute",
				Kernel: fmt.Sprintf("%strmm_tri_%d", dt, q),
				Detail: fmt.Sprintf("rows %d:%d *= %dx%d triangle, %d cols", r0, r0+q, q, q, ct)}
			if solve {
				rect.Kernel = fmt.Sprintf("%strsm_rect_%dx%d", dt, q, ct)
				rect.Detail = fmt.Sprintf("panel rows %d:%d -= A[%d:,0:%d]·X, %d cols", r0, r0+q, r0, r0, ct)
				tri.Kernel = fmt.Sprintf("%strsm_tri_%d", dt, q)
				tri.Detail = fmt.Sprintf("solve %dx%d triangle, rows %d:%d, %d cols", q, q, r0, r0+q, ct)
			}
			switch {
			case r0 == 0:
				ev.Queue = append(ev.Queue, tri)
			case solve:
				ev.Queue = append(ev.Queue, rect, tri)
			default:
				ev.Queue = append(ev.Queue, tri, rect)
			}
		}
	}
	if tv.packB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "writeback", Kernel: "nBUncopy",
			Detail: "restore B from the canonical buffer"})
	}
	return ev
}

func syrkTrace(op *OpDesc, pl *core.SYRKPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), op.TransA.String()+op.Uplo.String(),
		p.N, p.N, p.K, p.Count, groups, pl.GroupsPerBatch, outcome)
	ev.Queue = append(ev.Queue,
		obs.Command{Stage: "pack", Kernel: "npackA",
			Detail: fmt.Sprintf("op(A) row panels (N-shape), tiles %v, K=%d", pl.Tiles, p.K)},
		obs.Command{Stage: "pack", Kernel: "npackB",
			Detail: fmt.Sprintf("op(A)ᵀ column panels (Z-shape), tiles %v, K=%d", pl.Tiles, p.K)})
	if p.Beta != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "scaleTriangle",
			Detail: fmt.Sprintf("%s triangle of C *= beta (%v)", op.Uplo, p.Beta)})
	}
	upper := op.Uplo.String() == "U"
	i0 := 0
	for ti, mc := range pl.Tiles {
		j0 := 0
		for tj, nc := range pl.Tiles {
			diag := ti == tj
			want := diag || (upper && j0 > i0) || (!upper && j0 < i0)
			if !want {
				j0 += nc
				continue
			}
			kernel := fmt.Sprintf("%sgemm_%dx%d", p.DT, mc, nc)
			detail := fmt.Sprintf("C[%d:%d,%d:%d] += op(A)·op(A)ᵀ, K=%d", i0, i0+mc, j0, j0+nc, p.K)
			if diag {
				detail = fmt.Sprintf("scratch tile %dx%d += op(A)·op(A)ᵀ, K=%d; merge %s triangle into C[%d:%d,%d:%d]",
					mc, nc, p.K, op.Uplo, i0, i0+mc, j0, j0+nc)
			}
			ev.Queue = append(ev.Queue, obs.Command{Stage: "compute", Kernel: kernel, Detail: detail})
			j0 += nc
		}
		i0 += mc
	}
	return ev
}
