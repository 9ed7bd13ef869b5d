package core

import (
	"math/rand"
	"testing"

	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Prepacked operands are a pure reordering of the same packing kernels:
// results with and without them must match the always-packing VM
// backend bit for bit, for every worker count.

func TestPrepackedGEMMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for _, dt := range vec.DTypes {
		for _, mnk := range [][3]int{{4, 4, 4}, {7, 6, 5}, {15, 15, 15}} {
			for _, mode := range [][2]matrix.Trans{
				{matrix.NoTrans, matrix.NoTrans},
				{matrix.NoTrans, matrix.Transpose},
				{matrix.Transpose, matrix.Transpose},
			} {
				p := GEMMProblem{DT: dt, M: mnk[0], N: mnk[1], K: mnk[2],
					TransA: mode[0], TransB: mode[1], Alpha: 1.5, Beta: 1, Count: 21}
				if dt.Real() == vec.S {
					prepackedGEMMParity[float32](t, rng, p)
				} else {
					prepackedGEMMParity[float64](t, rng, p)
				}
			}
		}
	}
}

// prepackedGEMMParity checks A prepacked and packed per call against
// the VM, with B read in place and, under the ForcePackA ablation, B
// packed per call.
func prepackedGEMMParity[E vec.Float](t *testing.T, rng *rand.Rand, p GEMMProblem) {
	t.Helper()
	for _, force := range []bool{false, true} {
		// ForceGroupsPerBatch=1 maximizes the chunk count, so every worker
		// split runs several super-batches through its slot buffers.
		tun := DefaultTuning()
		tun.ForceGroupsPerBatch = 1
		tun.ForcePackA = force
		pl, err := NewGEMMPlan(p, tun)
		if err != nil {
			t.Fatal(err)
		}
		prepackedGEMMPlanParity[E](t, rng, pl)
	}
}

func prepackedGEMMPlanParity[E vec.Float](t *testing.T, rng *rand.Rand, pl *GEMMPlan) {
	t.Helper()
	p := pl.P
	ar, ac := p.M, p.K
	if p.TransA == matrix.Transpose {
		ar, ac = p.K, p.M
	}
	br, bc := p.K, p.N
	if p.TransB == matrix.Transpose {
		br, bc = p.N, p.K
	}
	a := randCompact[E](rng, p.DT, p.Count, ar, ac)
	b := randCompact[E](rng, p.DT, p.Count, br, bc)
	c := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	want := c.Clone()
	if err := ExecGEMM(pl, a, b, want, nil); err != nil {
		t.Fatal(err)
	}

	preA := make([]E, pl.PrepackALen(a.Groups()))
	if len(preA) > 0 {
		if err := PrepackGEMMA(pl, a, preA); err != nil {
			t.Fatal(err)
		}
	} else {
		preA = nil
	}

	for _, workers := range []int{1, 3} {
		// Pack-per-call path.
		got := c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, got, nil, nil, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "pack-per-call", p.Mode(), workers, want.Data, got.Data)

		// Prepacked path: the pack phase is skipped entirely.
		got = c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, got, preA, nil, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "prepacked", p.Mode(), workers, want.Data, got.Data)
	}
}

func diffCompact[E vec.Float](t *testing.T, variant, mode string, workers int, want, got []E) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s %s workers=%d: diverges at element %d: want %v got %v",
				variant, mode, workers, i, want[i], got[i])
		}
	}
}

func TestPrepackedTRSMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	for _, dt := range vec.DTypes {
		for _, mode := range []struct {
			side matrix.Side
			uplo matrix.Uplo
			ta   matrix.Trans
			diag matrix.Diag
		}{
			{matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit},
			{matrix.Left, matrix.Upper, matrix.NoTrans, matrix.NonUnit},
			{matrix.Right, matrix.Lower, matrix.Transpose, matrix.Unit},
		} {
			p := TRSMProblem{DT: dt, M: 9, N: 6, Side: mode.side,
				Uplo: mode.uplo, TransA: mode.ta, Diag: mode.diag, Alpha: 1, Count: 17}
			if dt.Real() == vec.S {
				prepackedTRSMParity[float32](t, rng, p)
			} else {
				prepackedTRSMParity[float64](t, rng, p)
			}
		}
	}
}

func prepackedTRSMParity[E vec.Float](t *testing.T, rng *rand.Rand, p TRSMProblem) {
	t.Helper()
	tun := DefaultTuning()
	tun.ForceGroupsPerBatch = 1
	pl, err := NewTRSMPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[E](rng, p.DT, p.Count, pl.MEff, pl.MEff)
	for v := 0; v < p.Count; v++ {
		for i := 0; i < pl.MEff; i++ {
			re, im := a.At(v, i, i)
			a.Set(v, i, i, re+2, im)
		}
	}
	b := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	want := b.Clone()
	if err := ExecTRSM(pl, a, want, nil); err != nil {
		t.Fatal(err)
	}

	preTri := make([]E, pl.PrepackTriLen(a.Groups()))
	if err := PrepackTRSMTri(pl, a, preTri); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		got := b.Clone()
		if err := ExecTRSMNativePrepacked(pl, a, got, nil, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "pack-per-call", p.Mode(), workers, want.Data, got.Data)

		got = b.Clone()
		if err := ExecTRSMNativePrepacked(pl, a, got, preTri, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "prepacked", p.Mode(), workers, want.Data, got.Data)
	}
}

func TestPrepackedTRMMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for _, dt := range vec.DTypes {
		for _, mode := range []struct {
			side matrix.Side
			uplo matrix.Uplo
			ta   matrix.Trans
			diag matrix.Diag
		}{
			{matrix.Left, matrix.Lower, matrix.NoTrans, matrix.NonUnit},
			{matrix.Left, matrix.Upper, matrix.Transpose, matrix.Unit},
		} {
			p := TRMMProblem{DT: dt, M: 9, N: 6, Side: mode.side,
				Uplo: mode.uplo, TransA: mode.ta, Diag: mode.diag, Alpha: 2, Count: 17}
			if dt.Real() == vec.S {
				prepackedTRMMParity[float32](t, rng, p)
			} else {
				prepackedTRMMParity[float64](t, rng, p)
			}
		}
	}
}

func prepackedTRMMParity[E vec.Float](t *testing.T, rng *rand.Rand, p TRMMProblem) {
	t.Helper()
	tun := DefaultTuning()
	tun.ForceGroupsPerBatch = 1
	pl, err := NewTRMMPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[E](rng, p.DT, p.Count, pl.MEff, pl.MEff)
	b := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	want := b.Clone()
	if err := ExecTRMM(pl, a, want, nil); err != nil {
		t.Fatal(err)
	}

	preTri := make([]E, pl.PrepackTriLen(a.Groups()))
	if err := PrepackTRMMTri(pl, a, preTri); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		got := b.Clone()
		if err := ExecTRMMNativePrepacked(pl, a, got, nil, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "pack-per-call", p.Mode(), workers, want.Data, got.Data)

		got = b.Clone()
		if err := ExecTRMMNativePrepacked(pl, a, got, preTri, workers); err != nil {
			t.Fatal(err)
		}
		diffCompact(t, "prepacked", p.Mode(), workers, want.Data, got.Data)
	}
}

// A stale prepacked image must never be served: prepacking, mutating the
// operand, then re-prepacking has to reflect the new contents.
func TestPrepackReflectsOperandContents(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	p := GEMMProblem{DT: vec.S, M: 6, N: 6, K: 6, Alpha: 1, Beta: 0, Count: 9}
	pl, err := NewGEMMPlan(p, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[float32](rng, vec.S, p.Count, 6, 6)
	b := randCompact[float32](rng, vec.S, p.Count, 6, 6)
	c := randCompact[float32](rng, vec.S, p.Count, 6, 6)

	preA := make([]float32, pl.PrepackALen(a.Groups()))
	pack := func() {
		if err := PrepackGEMMA(pl, a, preA); err != nil {
			t.Fatal(err)
		}
	}
	run := func() []float32 { // returns a copy of C's data
		got := c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, got, preA, nil, 1); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), got.Data...)
	}
	pack()
	before := run()

	// Mutate both operands and re-prepack A: results must change in step
	// (B is read in place).
	for i := range a.Data {
		a.Data[i] *= 3
	}
	for i := range b.Data {
		b.Data[i] += 1
	}
	pack()
	after := run()

	want := c.Clone()
	if err := ExecGEMM(pl, a, b, want, nil); err != nil {
		t.Fatal(err)
	}
	diffCompact(t, "after-mutation", p.Mode(), 1, want.Data, after)
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mutating the operands did not change the prepacked result")
	}
}

// Every bufpool.Get in the native executors is paired with a Put on all
// paths (pack-per-call, prepacked, every B layout): after a quiescent sweep over
// the op/mode matrix the in-use gauge must return to its baseline and no
// double-returns may have been counted.
func TestNativeExecutorsReturnAllBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	// Plans without a stamped Runtime fall back to the process default pool.
	before := DefaultRuntime().Bufs.Snapshot()

	for _, force := range []int{0, 1} { // default chunking and one group per super-batch
		tun := DefaultTuning()
		tun.ForceGroupsPerBatch = force
		for _, workers := range []int{1, 3} {
			p := GEMMProblem{DT: vec.S, M: 8, N: 8, K: 8, Alpha: 1, Beta: 1, Count: 25}
			pl, err := NewGEMMPlan(p, tun)
			if err != nil {
				t.Fatal(err)
			}
			a := randCompact[float32](rng, vec.S, p.Count, 8, 8)
			b := randCompact[float32](rng, vec.S, p.Count, 8, 8)
			c := randCompact[float32](rng, vec.S, p.Count, 8, 8)
			if err := ExecGEMMNativePrepacked(pl, a, b, c, nil, nil, workers); err != nil {
				t.Fatal(err)
			}
			preA := make([]float32, pl.PrepackALen(a.Groups()))
			if len(preA) > 0 {
				if err := PrepackGEMMA(pl, a, preA); err != nil {
					t.Fatal(err)
				}
			} else {
				preA = nil
			}
			if err := ExecGEMMNativePrepacked(pl, a, b, c, preA, nil, workers); err != nil {
				t.Fatal(err)
			}

			tp := TRSMProblem{DT: vec.S, M: 9, N: 6, Side: matrix.Left, Uplo: matrix.Lower,
				TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 2, Count: 25}
			tpl, err := NewTRSMPlan(tp, tun)
			if err != nil {
				t.Fatal(err)
			}
			ta := randCompact[float32](rng, vec.S, tp.Count, tpl.MEff, tpl.MEff)
			for v := 0; v < tp.Count; v++ {
				for i := 0; i < tpl.MEff; i++ {
					re, im := ta.At(v, i, i)
					ta.Set(v, i, i, re+2, im)
				}
			}
			tb := randCompact[float32](rng, vec.S, tp.Count, tp.M, tp.N)
			if err := ExecTRSMNativePrepacked(tpl, ta, tb, nil, workers); err != nil {
				t.Fatal(err)
			}

			mp := TRMMProblem{DT: vec.S, M: 9, N: 6, Side: matrix.Left, Uplo: matrix.Lower,
				TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 2, Count: 25}
			mpl, err := NewTRMMPlan(mp, tun)
			if err != nil {
				t.Fatal(err)
			}
			if err := ExecTRMMNativePrepacked(mpl, ta, tb, nil, workers); err != nil {
				t.Fatal(err)
			}

			// Upper and Right-side plans read B in place through other
			// strides, on the same worker and buffers.
			ra := randCompact[float32](rng, vec.S, tp.Count, tp.N, tp.N)
			for _, md := range []struct {
				side matrix.Side
				uplo matrix.Uplo
			}{{matrix.Left, matrix.Upper}, {matrix.Right, matrix.Lower}, {matrix.Right, matrix.Upper}} {
				tp.Side, tp.Uplo, mp.Side, mp.Uplo = md.side, md.uplo, md.side, md.uplo
				a := ta
				if md.side == matrix.Right {
					a = ra
				}
				utpl, err := NewTRSMPlan(tp, tun)
				if err != nil {
					t.Fatal(err)
				}
				umpl, err := NewTRMMPlan(mp, tun)
				if err != nil {
					t.Fatal(err)
				}
				if err := ExecTRSMNativePrepacked(utpl, a, tb, nil, workers); err != nil {
					t.Fatal(err)
				}
				if err := ExecTRMMNativePrepacked(umpl, a, tb, nil, workers); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	after := DefaultRuntime().Bufs.Snapshot()
	if after.InUse != before.InUse {
		t.Errorf("executors leaked buffers: in-use %d -> %d", before.InUse, after.InUse)
	}
	if after.DoublePuts != before.DoublePuts {
		t.Errorf("executors double-returned buffers: %d -> %d", before.DoublePuts, after.DoublePuts)
	}
	if after.Gets == before.Gets {
		t.Error("sweep exercised no pooled buffers; assertion is vacuous")
	}
}
