// Package core implements the IATF run-time stage (paper §5): given the
// input matrix properties — size, data type, transposition, side, triangle,
// diagonal — it generates an execution plan:
//
//   - the Batch Counter picks how many interleave groups to pack per
//     super-batch so the packed working set stays inside the L1 data cache;
//   - the Pack Selector chooses packing kernels, or the no-packing fast
//     path when the computing kernel can already walk the operand where
//     it is stored;
//   - the Execution Plan Generator tiles the problem over the Table 1
//     kernel sizes and splits long reductions into K chunks.
//
// Plans are geometry only: which kernel runs where, never the kernel's
// code. The kernels belong to the install-time stage. On the native path
// they are the compiled kernels of internal/kernels; the VM and
// cycle-model executors in this package build each kernel's template
// spec from the plan's geometry when they run, and fetch its generated,
// scheduled program from the process kernel memo.
package core

import (
	"context"
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/kopt"
	"iatf/internal/ktmpl"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Tuning holds the machine parameters the run-time stage tunes against.
type Tuning struct {
	Prof machine.Profile
	// L1Budget is the packed-working-set budget in bytes per super-batch
	// (the Batch Counter's bound). Zero selects the profile's L1 size.
	L1Budget int
	// DisableOptimizer skips the instruction scheduler (ablation).
	DisableOptimizer bool
	// DisablePrefetch skips PRFM insertion (ablation).
	DisablePrefetch bool
	// ForceGroupsPerBatch overrides the batch counter (ablation); 0 = auto.
	ForceGroupsPerBatch int
	// ForcePackA disables the A no-packing fast path (ablation).
	ForcePackA bool
	// VL overrides the vector lane count (the MKL-compact model); 0 = native.
	VL int
}

// DefaultTuning targets the Kunpeng 920 model.
func DefaultTuning() Tuning {
	return Tuning{Prof: machine.Kunpeng920()}
}

func (t Tuning) l1() int {
	if t.L1Budget > 0 {
		return t.L1Budget
	}
	if len(t.Prof.Cache.Levels) > 0 {
		return t.Prof.Cache.Levels[0].SizeBytes
	}
	return 64 << 10
}

func (t Tuning) lanes(dt vec.DType) int {
	if t.VL > 0 {
		return t.VL
	}
	return t.Prof.Lanes(dt.ElemBytes())
}

// groupsPerBatch is the Batch Counter: the interleave groups one
// super-batch packs so their working set fits the L1 budget. matElems
// is one matrix's share of that working set in elements, so a group
// holds matElems blocks. The result is at least one, ForceGroupsPerBatch
// when set, and at most the groups of a count-matrix batch under the
// tuned lane count.
func (t Tuning) groupsPerBatch(dt vec.DType, matElems, count int) int {
	gb := max(t.l1()/(matElems*blockLen(dt, t.lanes(dt))*dt.ElemBytes()), 1)
	if t.ForceGroupsPerBatch > 0 {
		gb = t.ForceGroupsPerBatch
	}
	lanes := dt.Pack()
	if t.VL > 0 {
		lanes = t.VL
	}
	return min(gb, (count+lanes-1)/lanes)
}

func (t Tuning) optimize(p asm.Prog, dt vec.DType) asm.Prog {
	if t.DisableOptimizer {
		return p
	}
	return kopt.Optimize(p, kopt.Options{
		Prof:      t.Prof,
		ElemBytes: dt.ElemBytes(),
		Prefetch:  !t.DisablePrefetch,
	})
}

// kernelMemo memoizes generated and scheduled kernel programs for the VM
// and cycle-model executors, this reproduction's stand-in for the
// paper's install-time kernel library. A key is the full parameter tuple
// (specs are comparable structs), the ablation switches and the
// scheduling machine's fingerprint: list schedules depend on the
// profile's ports and latencies, so tunings for different machines never
// share them.
type kernelKey struct {
	spec any
	opt  bool
	pf   bool
	prof string // machine-profile fingerprint
}

var kernelMemo = kopt.NewMemo()

// kernelSource fetches programs from the kernel memo for one executor
// call; the memo key's tuning half is computed once per call, since
// fingerprinting formats and hashes the whole machine profile.
type kernelSource struct {
	tun  Tuning
	dt   vec.DType
	prof string // machine.Fingerprint(tun.Prof)
}

func (t Tuning) kernels(dt vec.DType) kernelSource {
	return kernelSource{tun: t, dt: dt, prof: machine.Fingerprint(t.Prof)}
}

// get returns the scheduled program for spec, generating it with gen and
// running the kernel optimizer on a miss.
func (k kernelSource) get(spec any, gen func() (asm.Prog, error)) (asm.Prog, error) {
	key := kernelKey{spec: spec, opt: !k.tun.DisableOptimizer, pf: !k.tun.DisablePrefetch, prof: k.prof}
	if p, ok := kernelMemo.Get(key); ok {
		return p, nil
	}
	raw, err := gen()
	if err != nil {
		return nil, err
	}
	p := k.tun.optimize(raw, k.dt)
	kernelMemo.Put(key, p)
	return p, nil
}

// KernelMemoStats returns the process kernel memo's lookup counters. The
// third result is always zero; it stays for callers written against the
// three-result form.
func KernelMemoStats() (hits, misses, imported uint64) {
	hits, misses = kernelMemo.Stats()
	return hits, misses, 0
}

// SwapKernelMemo replaces the process kernel memo and returns the
// previous one — a test hook for simulating a cold process in-process.
func SwapKernelMemo(m *kopt.Memo) *kopt.Memo {
	old := kernelMemo
	kernelMemo = m
	return old
}

// GEMMProblem describes a compact batched GEMM: C = alpha·op(A)·op(B) + beta·C
// over Count matrices.
type GEMMProblem struct {
	DT             vec.DType
	M, N, K        int
	TransA, TransB matrix.Trans
	Alpha, Beta    complex128
	Count          int
}

// Mode returns the two-letter mode string ("NN", "NT", ...).
func (p GEMMProblem) Mode() string { return p.TransA.String() + p.TransB.String() }

// FLOPs returns the useful floating-point work of the whole batch.
func (p GEMMProblem) FLOPs() float64 {
	return p.DT.FlopsPerElem() * float64(p.M) * float64(p.N) * float64(p.K) * float64(p.Count)
}

// maxKernelK caps the reduction length of one generated straight-line
// kernel; longer reductions are split into sequential accumulating chunks
// (the kernels accumulate into C, so chunking is exact). The cap bounds
// both kernel length and the optimizer's O(n²) dependence analysis.
const maxKernelK = 48

// maxTriDim bounds the triangular routines' matrix dimension: their
// packed-triangle kernels have K = panel offset, which is not chunked.
// The paper's domain is small matrices (1–33); 128 leaves generous room.
const maxTriDim = 128

// maxPlanCalls bounds the kernel calls one interleave group of a GEMM or
// SYRK plan makes (tiles × K chunks). A GEMM plan holds one entry per
// tile, and the VM executor fetches one program per call: a d GEMM of
// 1024³ (65,536 tiles, 1.4 million calls) takes 2 ms and 2.2 MB to plan,
// and its VM run would fetch 1.4 million programs. This is a small-matrix
// library, so the bound admits every shape up to 256³, and it is checked
// before anything is allocated.
const maxPlanCalls = 1 << 16

// checkPlanCalls refuses a plan of more than maxPlanCalls kernel calls
// per group; calls is a float64 product, so no shape overflows it.
func checkPlanCalls(op string, calls float64, dims ...int) error {
	if calls > maxPlanCalls {
		return fmt.Errorf("core: %s %v needs %.3g kernel calls per group, over the %d a plan may hold; this is a small-matrix library", op, dims, calls, maxPlanCalls)
	}
	return nil
}

// tiles is the tile count of a dimension of n split into tiles of at
// most size (ktmpl.SplitDim's count when every smaller size exists).
func tiles(n, size int) float64 { return float64((n-1)/size + 1) }

// splitK returns the K-chunk lengths.
func splitK(k int) []int {
	var out []int
	for k > maxKernelK {
		out = append(out, maxKernelK)
		k -= maxKernelK
	}
	return append(out, k)
}

// tile is one kernel invocation footprint within the M×N tiling. A tile
// runs one kernel per K chunk, each consuming the next packed K range.
type tile struct {
	i0, mc int
	j0, nc int
}

// GEMMPlan is a generated execution plan for a GEMMProblem.
type GEMMPlan struct {
	P   GEMMProblem
	Tun Tuning

	MTiles, NTiles []int
	KChunks        []int // reduction split into bounded kernel lengths
	PackA          bool  // false = no-packing fast path for A (§4.4)
	PackB          bool  // false = the native kernels read B in place (§4.4)
	GroupsPerBatch int   // Batch Counter decision, in interleave groups

	// Labels is an optional pprof label context adopted by pool workers
	// executing this plan. Never set on cached plans — only on the
	// per-call stack copy the engine splices scalars into.
	Labels context.Context

	// RT is the dispatching engine's Runtime (worker pool + buffer
	// pools); nil falls back to the process default. Like Labels, it is
	// stamped onto the per-call stack copy only, never the cached plan.
	RT *Runtime

	tiles []tile
}

// NewGEMMPlan runs the run-time stage for a GEMM problem.
func NewGEMMPlan(p GEMMProblem, tun Tuning) (*GEMMPlan, error) {
	return newGEMMPlan(p, tun, ktmpl.MTiles(p.DT), ktmpl.NTiles(p.DT))
}

// NewGEMMPlanWithKernel builds a plan whose tiling leads with a forced
// main kernel size instead of the CMAR-optimal one — the kernel-size
// ablation that validates Eq. 2/3.
func NewGEMMPlanWithKernel(p GEMMProblem, tun Tuning, mc, nc int) (*GEMMPlan, error) {
	if ktmpl.RegistersNeeded(p.DT, mc, nc) > 32 {
		return nil, fmt.Errorf("core: forced kernel %dx%d exceeds the register file", mc, nc)
	}
	msizes := descending(mc)
	nsizes := descending(nc)
	return newGEMMPlan(p, tun, msizes, nsizes)
}

func descending(n int) []int {
	out := make([]int, 0, n)
	for s := n; s >= 1; s-- {
		out = append(out, s)
	}
	return out
}

func newGEMMPlan(p GEMMProblem, tun Tuning, msizes, nsizes []int) (*GEMMPlan, error) {
	if p.M < 1 || p.N < 1 || p.K < 1 || p.Count < 1 {
		return nil, fmt.Errorf("core: invalid GEMM problem %dx%dx%d count %d", p.M, p.N, p.K, p.Count)
	}
	calls := tiles(p.M, msizes[0]) * tiles(p.N, nsizes[0]) * tiles(p.K, maxKernelK)
	if err := checkPlanCalls("GEMM", calls, p.M, p.N, p.K); err != nil {
		return nil, err
	}
	pl := &GEMMPlan{P: p, Tun: tun}
	pl.MTiles = ktmpl.SplitDim(p.M, msizes)
	pl.NTiles = ktmpl.SplitDim(p.N, nsizes)

	// Pack Selector: A skips packing in non-transposed mode when a single
	// row panel covers M — the native compact order already is the
	// N-shaped panel.
	mainMC := msizes[0]
	pl.PackA = tun.ForcePackA || !(p.TransA == matrix.NoTrans && p.M <= mainMC)

	// B is never packed on the native path: every main and edge kernel
	// takes B's K-step and column strides, so it reads block (l, j) of a
	// tile where the compact layout stores it — K steps 1 block and
	// columns K blocks apart for NoTrans, K steps N blocks and columns 1
	// block apart for Trans. Only the ForcePackA ablation packs it, into
	// the Z-shaped panel (K steps nc blocks, columns 1 block apart). The
	// cycle-model backend keeps packing B (its arena layout predates the
	// strided kernels); the copy is exact, so both backends stay
	// bit-identical.
	pl.PackB = tun.ForcePackA

	// Batch Counter: A + B + the C tile per group must fit the L1 budget.
	pl.GroupsPerBatch = tun.groupsPerBatch(p.DT, p.M*p.K+p.K*p.N+p.M*p.N, p.Count)

	// Execution Plan Generator: the tiles, each running one kernel per K
	// chunk.
	pl.KChunks = splitK(p.K)
	pl.tiles = make([]tile, 0, len(pl.MTiles)*len(pl.NTiles))
	i0 := 0
	for _, mc := range pl.MTiles {
		j0 := 0
		for _, nc := range pl.NTiles {
			pl.tiles = append(pl.tiles, tile{i0: i0, mc: mc, j0: j0, nc: nc})
			j0 += nc
		}
		i0 += mc
	}
	return pl, nil
}

// BStrides returns how the native kernels address B in a tile of nc
// columns: block (l, j), K step l of column j, sits l·ldbk + j·ldbc
// blocks from the tile's first block. In place that is ldbk = 1,
// ldbc = K (NoTrans) or ldbk = N, ldbc = 1 (Trans); the ForcePackA
// ablation's packed Z-shaped panel has ldbk = nc, ldbc = 1.
func (pl *GEMMPlan) BStrides(nc int) (ldbk, ldbc int) {
	switch {
	case pl.PackB:
		return nc, 1
	case pl.P.TransB == matrix.Transpose:
		return pl.P.N, 1
	}
	return 1, pl.P.K
}

// programs fetches the VM program of every tile and K chunk, indexed
// tile-major (tile i, chunk c at i·len(KChunks)+c).
func (pl *GEMMPlan) programs() ([]asm.Prog, error) {
	p := pl.P
	src := pl.Tun.kernels(p.DT)
	progs := make([]asm.Prog, 0, len(pl.tiles)*len(pl.KChunks))
	for _, t := range pl.tiles {
		for _, kc := range pl.KChunks {
			spec := ktmpl.GEMMSpec{DT: p.DT, MC: t.mc, NC: t.nc, K: kc, StrideC: p.M, VL: pl.Tun.VL}
			prog, err := src.get(spec, func() (asm.Prog, error) { return ktmpl.GenGEMM(spec) })
			if err != nil {
				return nil, err
			}
			progs = append(progs, prog)
		}
	}
	return progs, nil
}

// blockLen returns the element footprint of one compact block.
func blockLen(dt vec.DType, vl int) int {
	if dt.IsComplex() {
		return 2 * vl
	}
	return vl
}

// Instructions returns the total instruction count of the generated
// programs one interleave group runs — a size proxy for the info tool.
func (pl *GEMMPlan) Instructions() (int, error) {
	progs, err := pl.programs()
	n := 0
	for _, p := range progs {
		n += len(p)
	}
	return n, err
}

// TRSMProblem describes a compact batched TRSM: solve
// op(A)·X = alpha·B (Left) or X·op(A) = alpha·B (Right), overwriting B.
type TRSMProblem struct {
	DT     vec.DType
	M, N   int // B is M×N; A is M×M (Left) or N×N (Right)
	Side   matrix.Side
	Uplo   matrix.Uplo
	TransA matrix.Trans
	Diag   matrix.Diag
	Alpha  complex128
	Count  int
}

// Mode returns the four-letter mode string the paper uses (e.g. "LNLN":
// Left, Non-transposed, Lower, Non-unit).
func (p TRSMProblem) Mode() string {
	return p.Side.String() + p.TransA.String() + p.Uplo.String() + p.Diag.String()
}

// FLOPs returns the useful floating-point work of the whole batch
// (triangular solve: M²·N multiply-adds for Left, N²·M for Right).
func (p TRSMProblem) FLOPs() float64 {
	dim := float64(p.M)
	other := float64(p.N)
	if p.Side == matrix.Right {
		dim, other = other, dim
	}
	return p.DT.FlopsPerElem() / 2 * dim * dim * other * float64(p.Count)
}

// TRSMPlan is a generated execution plan for a TRSMProblem.
type TRSMPlan struct {
	P   TRSMProblem
	Tun Tuning

	TriGeom

	// Labels: optional pprof label context; see GEMMPlan.Labels.
	Labels context.Context

	// RT: the dispatching engine's Runtime; see GEMMPlan.RT.
	RT *Runtime
}

// NewTRSMPlan runs the run-time stage for a TRSM problem.
func NewTRSMPlan(p TRSMProblem, tun Tuning) (*TRSMPlan, error) {
	geo, err := newTriGeom("TRSM", p.DT, p.M, p.N, p.Side, p.Uplo, p.TransA, p.Count, tun)
	if err != nil {
		return nil, err
	}
	return &TRSMPlan{P: p, Tun: tun, TriGeom: geo}, nil
}
