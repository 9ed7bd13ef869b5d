package core

import (
	"math/rand"
	"testing"

	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// The cycle model is the backend of the paper figures, so a plan's
// modelled cycle count is part of the contract: it may move with a
// deliberate change to a kernel template, the scheduler or the machine
// model, never with a change to how plans hold or fetch their kernels.
// TestModelCyclesGolden pins exact counts across GEMM dtypes and sizes,
// K chunks, TRSM and TRMM modes, the optimizer ablation and a lane
// override.

// gemmCycles runs one count-8 GEMM plan through ExecGEMM under the
// tuning's machine model.
func gemmCycles(dt vec.DType, n, k int, tun Tuning) func() (int64, error) {
	p := GEMMProblem{DT: dt, M: n, N: n, K: k, Alpha: 1, Beta: 1, Count: 8}
	if dt.ElemBytes() == 4 {
		return func() (int64, error) { return gemmCyclesT[float32](p, tun) }
	}
	return func() (int64, error) { return gemmCyclesT[float64](p, tun) }
}

func gemmCyclesT[E vec.Float](p GEMMProblem, tun Tuning) (int64, error) {
	pl, err := NewGEMMPlan(p, tun)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(int64(p.M*100 + p.K)))
	a := randCompact[E](rng, p.DT, p.Count, p.M, p.K)
	b := randCompact[E](rng, p.DT, p.Count, p.K, p.N)
	c := randCompact[E](rng, p.DT, p.Count, p.M, p.N)
	sim := machine.NewSim(tun.Prof, p.DT.ElemBytes())
	if err := ExecGEMM(pl, a, b, c, sim); err != nil {
		return 0, err
	}
	return sim.Cycles(), nil
}

// triCycles runs one count-8 d TRSM or TRMM plan with square operands of
// order n through ExecTRSM or ExecTRMM on the Kunpeng 920 model.
func triCycles(trmm bool, n int, side matrix.Side, uplo matrix.Uplo, ta matrix.Trans, diag matrix.Diag) func() (int64, error) {
	return func() (int64, error) {
		const count = 8
		tun := DefaultTuning()
		rng := rand.New(rand.NewSource(int64(n)))
		a := randCompact[float64](rng, vec.D, count, n, n)
		for v := 0; v < count; v++ {
			for i := 0; i < n; i++ {
				re, _ := a.At(v, i, i)
				a.Set(v, i, i, re+float64(n), 0)
			}
		}
		b := randCompact[float64](rng, vec.D, count, n, n)
		sim := machine.NewSim(tun.Prof, 8)
		if trmm {
			pl, err := NewTRMMPlan(TRMMProblem{DT: vec.D, M: n, N: n, Side: side, Uplo: uplo, TransA: ta,
				Diag: diag, Alpha: 1, Count: count}, tun)
			if err != nil {
				return 0, err
			}
			err = ExecTRMM(pl, a, b, sim)
			return sim.Cycles(), err
		}
		pl, err := NewTRSMPlan(TRSMProblem{DT: vec.D, M: n, N: n, Side: side, Uplo: uplo, TransA: ta,
			Diag: diag, Alpha: 1, Count: count}, tun)
		if err != nil {
			return 0, err
		}
		err = ExecTRSM(pl, a, b, sim)
		return sim.Cycles(), err
	}
}

func TestModelCyclesGolden(t *testing.T) {
	def := DefaultTuning()
	noOpt := DefaultTuning()
	noOpt.DisableOptimizer = true
	const (
		L, R   = matrix.Left, matrix.Right
		Lo, Up = matrix.Lower, matrix.Upper
		N, T   = matrix.NoTrans, matrix.Transpose
		NU, U  = matrix.NonUnit, matrix.Unit
	)
	cases := []struct {
		name string
		run  func() (int64, error)
		want int64
	}{
		{"gemm s 4³", gemmCycles(vec.S, 4, 4, def), 470},
		{"gemm s 8³", gemmCycles(vec.S, 8, 8, def), 2336},
		{"gemm s 16³", gemmCycles(vec.S, 16, 16, def), 13728},
		{"gemm d 4³", gemmCycles(vec.D, 4, 4, def), 816},
		{"gemm d 8³", gemmCycles(vec.D, 8, 8, def), 4784},
		{"gemm d 16³", gemmCycles(vec.D, 16, 16, def), 29904},
		{"gemm z 4³", gemmCycles(vec.Z, 4, 4, def), 3408},
		{"gemm z 8³", gemmCycles(vec.Z, 8, 8, def), 19680},
		{"gemm z 16³", gemmCycles(vec.Z, 16, 16, def), 113196},
		{"gemm d 8×8×100 (three K chunks)", gemmCycles(vec.D, 8, 100, def), 43254},
		{"gemm d 8³ without the optimizer", gemmCycles(vec.D, 8, 8, noOpt), 5812},
		{"gemm d 8³ at 8 lanes on the Xeon model", func() (int64, error) {
			xeon := machine.XeonGold6240()
			tun := Tuning{Prof: xeon, VL: xeon.Lanes(8)}
			pl, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 8, N: 8, K: 8, Alpha: 1, Beta: 1, Count: 64}, tun)
			if err != nil {
				return 0, err
			}
			return SimGEMM(pl, 4, machine.NewSim(xeon, 8))
		}, 13696},
		{"trsm d 4 LNLN", triCycles(false, 4, L, Lo, N, NU), 549},
		{"trsm d 8 LNLN", triCycles(false, 8, L, Lo, N, NU), 3881},
		{"trsm d 16 LNLN", triCycles(false, 16, L, Lo, N, NU), 20603},
		{"trsm d 4 RTUU", triCycles(false, 4, R, Up, T, U), 1560},
		{"trsm d 8 RTUU", triCycles(false, 8, R, Up, T, U), 5816},
		{"trsm d 16 RTUU", triCycles(false, 16, R, Up, T, U), 23760},
		{"trmm d 4 LNLN", triCycles(true, 4, L, Lo, N, NU), 552},
		{"trmm d 8 LNLN", triCycles(true, 8, L, Lo, N, NU), 4391},
		{"trmm d 16 LNLN", triCycles(true, 16, L, Lo, N, NU), 24030},
		{"trmm d 4 RNUN", triCycles(true, 4, R, Up, N, NU), 920},
		{"trmm d 8 RNUN", triCycles(true, 8, R, Up, N, NU), 4376},
		{"trmm d 16 RNUN", triCycles(true, 16, R, Up, N, NU), 21920},
	}
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: %d modelled cycles, want %d", c.name, got, c.want)
		}
	}
}
