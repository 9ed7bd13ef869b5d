package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Property: a random GEMM problem (dims 1..20, any mode, random
// alpha/beta, random count) matches the reference oracle through the full
// plan + VM pipeline.
func TestGEMMPropertyRandomProblems(t *testing.T) {
	tun := DefaultTuning()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := GEMMProblem{
			DT:     vec.DTypes[rng.Intn(4)],
			M:      1 + rng.Intn(20),
			N:      1 + rng.Intn(20),
			K:      1 + rng.Intn(20),
			TransA: matrix.Trans(rng.Intn(2)),
			TransB: matrix.Trans(rng.Intn(2)),
			Alpha:  complex(1+rng.Float64(), 0),
			Beta:   complex(rng.Float64(), 0),
			Count:  1 + rng.Intn(10),
		}
		if p.DT.IsComplex() {
			p.Alpha = complex(real(p.Alpha), rng.Float64())
		}
		ok := true
		runProp := func() {
			defer func() {
				if r := recover(); r != nil {
					t.Logf("seed=%d panicked: %v (%+v)", seed, r, p)
					ok = false
				}
			}()
			switch p.DT {
			case vec.S:
				checkGEMM[float32, float32](t, vec.S, p, tun)
			case vec.D:
				checkGEMM[float64, float64](t, vec.D, p, tun)
			case vec.C:
				checkGEMM[complex64, float32](t, vec.C, p, tun)
			case vec.Z:
				checkGEMM[complex128, float64](t, vec.Z, p, tun)
			}
		}
		runProp()
		return ok && !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a random TRSM problem matches the oracle.
func TestTRSMPropertyRandomProblems(t *testing.T) {
	tun := DefaultTuning()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := TRSMProblem{
			DT:     vec.DTypes[rng.Intn(4)],
			M:      1 + rng.Intn(16),
			N:      1 + rng.Intn(16),
			Side:   matrix.Side(rng.Intn(2)),
			Uplo:   matrix.Uplo(rng.Intn(2)),
			TransA: matrix.Trans(rng.Intn(2)),
			Diag:   matrix.Diag(rng.Intn(2)),
			Alpha:  complex(0.5+rng.Float64(), 0),
			Count:  1 + rng.Intn(8),
		}
		switch p.DT {
		case vec.S:
			checkTRSM[float32, float32](t, vec.S, p, tun)
		case vec.D:
			checkTRSM[float64, float64](t, vec.D, p, tun)
		case vec.C:
			checkTRSM[complex64, float32](t, vec.C, p, tun)
		case vec.Z:
			checkTRSM[complex128, float64](t, vec.Z, p, tun)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the tiling in every generated plan covers M×N exactly, with
// every tile a registered kernel size.
func TestPlanTilingProperty(t *testing.T) {
	tun := DefaultTuning()
	f := func(m8, n8, k8 uint8, dtSel uint8) bool {
		m, n, k := 1+int(m8)%33, 1+int(n8)%33, 1+int(k8)%33
		dt := vec.DTypes[int(dtSel)%4]
		pl, err := NewGEMMPlan(GEMMProblem{DT: dt, M: m, N: n, K: k, Alpha: 1, Beta: 1, Count: 64}, tun)
		if err != nil {
			return false
		}
		covered := make(map[[2]int]bool)
		for _, tl := range pl.tiles {
			for i := tl.i0; i < tl.i0+tl.mc; i++ {
				for j := tl.j0; j < tl.j0+tl.nc; j++ {
					if covered[[2]int{i, j}] {
						t.Logf("dt=%v %dx%d: cell (%d,%d) covered twice", dt, m, n, i, j)
						return false
					}
					covered[[2]int{i, j}] = true
				}
			}
		}
		return len(covered) == m*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: TRSM plan panels cover MEff exactly and never exceed the
// register-resident triangle bound.
func TestTRSMPanelProperty(t *testing.T) {
	tun := DefaultTuning()
	f := func(m8 uint8, dtSel uint8, right bool) bool {
		m := 1 + int(m8)%33
		dt := vec.DTypes[int(dtSel)%4]
		side := matrix.Left
		if right {
			side = matrix.Right
		}
		pl, err := NewTRSMPlan(TRSMProblem{DT: dt, M: m, N: m, Side: side,
			Uplo: matrix.Lower, Alpha: 1, Count: 16}, tun)
		if err != nil {
			return false
		}
		sum := 0
		maxTri := 5
		if dt.IsComplex() {
			maxTri = 3
		}
		for _, q := range pl.Panels {
			if q < 1 || q > maxTri {
				return false
			}
			sum += q
		}
		csum := 0
		for _, ct := range pl.ColTiles {
			csum += ct
		}
		return sum == pl.MEff && csum == pl.NEff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: native parallel execution with a random worker count matches
// single-worker execution exactly.
func TestParallelWorkersProperty(t *testing.T) {
	tun := DefaultTuning()
	f := func(seed int64, w8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + int(w8)%7
		p := GEMMProblem{DT: vec.S, M: 1 + rng.Intn(10), N: 1 + rng.Intn(10),
			K: 1 + rng.Intn(10), Alpha: 1, Beta: 1, Count: 1 + rng.Intn(100)}
		pl, err := NewGEMMPlan(p, tun)
		if err != nil {
			return false
		}
		ar, br := p.M, p.K
		a := randCompact[float32](rng, vec.S, p.Count, ar, p.K)
		b := randCompact[float32](rng, vec.S, p.Count, br, p.N)
		c := randCompact[float32](rng, vec.S, p.Count, p.M, p.N)
		c1 := c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, c1, nil, nil, 1); err != nil {
			t.Log(err)
			return false
		}
		cw := c.Clone()
		if err := ExecGEMMNativePrepacked(pl, a, b, cw, nil, nil, workers); err != nil {
			t.Log(err)
			return false
		}
		for i := range c1.Data {
			if c1.Data[i] != cw.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
