package engine

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// pathScalars are the values FuzzPathParity draws Alpha and Beta from.
// The last entry stands for the dtype's smallest subnormal.
var pathScalars = [...]float64{0, math.Copysign(0, -1), 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 0}

// pathStage is one stage of a drawn list: its descriptor and the
// indexes of its operands in the list's operand set.
type pathStage struct {
	op    OpDesc
	slots []int
}

// pathList is a drawn stage list over a set of distinct operands, each
// with its shape; tri marks the triangles, whose diagonal is boosted so
// the solves stay finite.
type pathList struct {
	stages []pathStage
	shapes [][2]int
	tri    []bool
}

func (l *pathList) operand(rows, cols int, tri bool) int {
	l.shapes = append(l.shapes, [2]int{rows, cols})
	l.tri = append(l.tri, tri)
	return len(l.shapes) - 1
}

// drawPath builds a valid list from a draw: a GEMM, TRSM, TRMM or SYRK,
// the GEMM→TRSM→TRSM chain, or TRMM then TRSM over one triangle and one
// B, with modes' bits as TransA, TransB, Side, Uplo and Diag on every
// stage, read by its op or not.
func drawPath(kind, modes uint8, m, n, k int, alpha, beta complex128) pathList {
	bit := func(i int) int { return int(modes>>i) & 1 }
	op := OpDesc{TransA: matrix.Trans(bit(0)), TransB: matrix.Trans(bit(1)), Side: matrix.Side(bit(2)),
		Uplo: matrix.Uplo(bit(3)), Diag: matrix.Diag(bit(4)), Alpha: alpha, Beta: beta, Workers: 1}
	shaped := func(r, c int, t matrix.Trans) (int, int) {
		if t == matrix.Transpose {
			return c, r
		}
		return r, c
	}
	var l pathList
	gemm := func() int {
		g := op
		g.Kind = OpGEMM
		ar, ac := shaped(m, k, g.TransA)
		br, bc := shaped(k, n, g.TransB)
		a, b, c := l.operand(ar, ac, false), l.operand(br, bc, false), l.operand(m, n, false)
		l.stages = append(l.stages, pathStage{g, []int{a, b, c}})
		return c
	}
	tri := func(kinds ...OpKind) {
		d := m
		if op.Side == matrix.Right {
			d = n
		}
		a, b := l.operand(d, d, true), l.operand(m, n, false)
		for _, k := range kinds {
			t := op
			t.Kind = k
			l.stages = append(l.stages, pathStage{t, []int{a, b}})
		}
	}
	switch kind % 6 {
	case 0:
		gemm()
	case 1:
		tri(OpTRSM)
	case 2:
		tri(OpTRMM)
	case 3:
		s := op
		s.Kind = OpSYRK
		ar, ac := shaped(m, k, s.TransA)
		a, c := l.operand(ar, ac, false), l.operand(m, m, false)
		l.stages = append(l.stages, pathStage{s, []int{a, c}})
	case 4:
		// The queue-fused chain: C = U⁻¹·L⁻¹·op(A)·op(B).
		c := gemm()
		lo, up := op, op
		lo.Kind, lo.Side, lo.Uplo, lo.Diag = OpTRSM, matrix.Left, matrix.Lower, matrix.Unit
		up.Kind, up.Side, up.Uplo, up.Diag = OpTRSM, matrix.Left, matrix.Upper, matrix.NonUnit
		l.stages = append(l.stages,
			pathStage{lo, []int{l.operand(m, m, true), c}},
			pathStage{up, []int{l.operand(m, m, true), c}})
	default:
		// The fusable pair: B stays packed between the stages when both
		// plans canonicalize it alike (Left, Upper, NoTrans does), else
		// each stage solves it in place.
		tri(OpTRMM, OpTRSM)
	}
	return l
}

// flipUnread inverts every field op does not read.
func flipUnread(op OpDesc) OpDesc {
	switch op.Kind {
	case OpGEMM:
		op.Side, op.Uplo, op.Diag = 1-op.Side, 1-op.Uplo, 1-op.Diag
	case OpTRSM, OpTRMM:
		op.TransB, op.Beta = 1-op.TransB, complex(42, -1)
	case OpSYRK:
		op.TransB, op.Side, op.Diag = 1-op.TransB, 1-op.Side, 1-op.Diag
	}
	return op
}

// pathRig holds the engines FuzzPathParity runs every input on, built
// once per fuzz process: a one-shard and a two-shard set, and an engine
// whose dispatcher parks after each drain until released.
type pathRig struct {
	solo, two *Set
	held      *Engine
	entered   chan int
	release   chan struct{}
	occupier  []ChainStage
}

// FuzzPathParity draws one valid stage list — a GEMM, TRSM, TRMM or
// SYRK, the GEMM→TRSM→TRSM chain, or TRMM then TRSM over one triangle
// and one B — over f32 or f64, every mode flag (those its ops do not
// read included), dims 1–17, a count that is not a multiple of P, and
// Alpha and Beta from 0, −0, 1, −2.5, NaN, ±Inf and the smallest
// subnormal. It runs the list five ways on clones of its operands: Run
// on a one-shard set, each stage as its own one-stage Run in order (the
// serial reference), Run on a two-shard set, Run with Call{Chain: true},
// and two Submits queued behind a held dispatcher, the second with every
// unread field flipped. Every operand must end bit-identical to the
// first way's, and the two Submits must drain as one batch and each run
// on its own.
func FuzzPathParity(f *testing.F) {
	tun := core.DefaultTuning()
	rig := &pathRig{
		solo: NewSet(tun, 1, QueueConfig{}), two: NewSet(tun, 2, QueueConfig{}), held: New(tun),
		entered: make(chan int), release: make(chan struct{}),
	}
	rig.held.queue.testHook = func(n int) {
		rig.entered <- n
		<-rig.release
	}
	occ := func() Operand { return op32(layout.NewCompact[float32](vec.S, 1, 1, 1)) }
	rig.occupier = one(OpDesc{Kind: OpGEMM, Alpha: 1, Workers: 1}, occ(), occ(), occ())

	f.Fuzz(func(t *testing.T, kind, modes, m, n, k, alpha, beta, count uint8, f64 bool, seed int64) {
		dt, sub := vec.S, math.SmallestNonzeroFloat32
		if f64 {
			dt, sub = vec.D, math.SmallestNonzeroFloat64
		}
		scalar := func(i uint8) complex128 {
			if v := int(i) % len(pathScalars); v < len(pathScalars)-1 {
				return complex(pathScalars[v], 0)
			}
			return complex(sub, 0)
		}
		c := 1 + int(count)%33
		if c%dt.Pack() == 0 {
			c++
		}
		l := drawPath(kind, modes, 1+int(m)%17, 1+int(n)%17, 1+int(k)%17, scalar(alpha), scalar(beta))
		rng := rand.New(rand.NewSource(seed))
		if f64 {
			pathParity[float64](t, rig, l, dt, c, rng)
		} else {
			pathParity[float32](t, rig, l, dt, c, rng)
		}
	})
}

func pathParity[E vec.Float](t *testing.T, rig *pathRig, l pathList, dt vec.DType, count int, rng *rand.Rand) {
	base := make([]*layout.Compact[E], len(l.shapes))
	for i, sh := range l.shapes {
		base[i] = randCompactT[E](rng, dt, count, sh[0], sh[1])
		for v := 0; l.tri[i] && v < count; v++ {
			for d := 0; d < sh[0]; d++ {
				base[i].Set(v, d, d, E(sh[0]+2), 0)
			}
		}
	}
	clones := func() []*layout.Compact[E] {
		out := make([]*layout.Compact[E], len(base))
		for i, b := range base {
			out[i] = b.Clone()
		}
		return out
	}
	stages := func(ops []*layout.Compact[E], flip bool) []ChainStage {
		out := make([]ChainStage, len(l.stages))
		for i, ps := range l.stages {
			out[i] = ChainStage{Op: ps.op, NOps: len(ps.slots)}
			if flip {
				out[i].Op = flipUnread(ps.op)
			}
			for s, j := range ps.slots {
				out[i].Ops[s] = opOf(dt, ops[j])
			}
		}
		return out
	}
	ctx := context.Background()
	ref := clones()
	if err := rig.solo.Run(ctx, stages(ref, false), Call{}); err != nil {
		t.Fatalf("one-shard Run: %v", err)
	}
	check := func(way string, got []*layout.Compact[E]) {
		t.Helper()
		for i := range ref {
			if !sameBits(ref[i].Data, got[i].Data) {
				t.Errorf("%s: operand %d is not bit-identical to the one-shard Run", way, i)
			}
		}
	}
	serial := clones()
	st := stages(serial, false)
	for i := range st {
		if err := rig.solo.Run(ctx, st[i:i+1], Call{}); err != nil {
			t.Fatalf("stage %d run alone: %v", i, err)
		}
	}
	check("stages run one by one", serial)
	for _, way := range []struct {
		name string
		s    *Set
		call Call
	}{{"two-shard Run", rig.two, Call{}}, {"Run with Chain", rig.solo, Call{Chain: true}}} {
		got := clones()
		if err := way.s.Run(ctx, stages(got, false), way.call); err != nil {
			t.Fatalf("%s: %v", way.name, err)
		}
		check(way.name, got)
	}

	// Park the dispatcher on an occupier so both twins queue into one
	// drained batch. The previous input's dispatch must have cleared the
	// busy flag first, or forcing it here could race its reset.
	q := &rig.held.queue
	for q.busy.Load() {
		runtime.Gosched()
	}
	before := q.snapshot()
	q.busy.Store(true)
	occ, err := rig.held.Submit(ctx, rig.occupier, Call{})
	if err != nil {
		q.busy.Store(false)
		t.Fatalf("occupier: %v", err)
	}
	<-rig.entered
	t1, t2 := clones(), clones()
	f1, err1 := rig.held.Submit(ctx, stages(t1, false), Call{})
	f2, err2 := rig.held.Submit(ctx, stages(t2, true), Call{})
	rig.release <- struct{}{}
	if err1 != nil || err2 != nil {
		t.Fatalf("twin Submits: %v, %v", err1, err2)
	}
	if n := <-rig.entered; n != 2 {
		t.Errorf("the twins drained as a batch of %d, want 2", n)
	}
	rig.release <- struct{}{}
	for i, f := range []*Future{occ, f1, f2} {
		if err := f.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	check("queued Submit", t1)
	check("queued Submit with unread fields flipped", t2)
	after := q.snapshot()
	if d := after.Dispatches - before.Dispatches; d != 3 {
		t.Errorf("Dispatches rose by %d, want 3 (the occupier and both twins)", d)
	}
	if d := after.Coalesced - before.Coalesced; d != 0 {
		t.Errorf("Coalesced rose by %d, want 0", d)
	}
}

// sameBits compares two slices bit for bit, so +0 and −0 differ and
// NaNs match only with equal payloads.
func sameBits[E vec.Float](a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := any(a[i]).(type) {
		case float32:
			if math.Float32bits(x) != math.Float32bits(any(b[i]).(float32)) {
				return false
			}
		case float64:
			if math.Float64bits(x) != math.Float64bits(any(b[i]).(float64)) {
				return false
			}
		}
	}
	return true
}
