package core

import (
	"math/rand"
	"testing"

	"iatf/internal/machine"
	"iatf/internal/vec"
)

// The autotuned plan must never model more cycles than the analytic
// default (the default is always among the candidates).
func TestAutotuneNeverWorseThanDefault(t *testing.T) {
	tun := DefaultTuning()
	for _, dt := range []vec.DType{vec.S, vec.Z} {
		for _, n := range []int{3, 6, 7, 11, 15} {
			p := GEMMProblem{DT: dt, M: n, N: n, K: n, Alpha: 1, Beta: 1, Count: 64}
			def, err := NewGEMMPlan(p, tun)
			if err != nil {
				t.Fatal(err)
			}
			tuned, err := AutotuneGEMM(p, tun)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(pl *GEMMPlan) int64 {
				sim := machine.NewSim(tun.Prof, dt.ElemBytes())
				c, err := SimGEMM(pl, 4, sim)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			if td, dd := measure(tuned), measure(def); td > dd {
				t.Errorf("%v n=%d: tuned %d cycles > default %d", dt, n, td, dd)
			}
		}
	}
}

// Tuning decisions must be memoized and reusable across differing
// alpha/beta/count.
func TestAutotuneCacheAndReuse(t *testing.T) {
	tun := DefaultTuning()
	p := GEMMProblem{DT: vec.S, M: 13, N: 13, K: 13, Alpha: 1, Beta: 1, Count: 64}
	before := TuneCacheSize()
	pl1, err := AutotuneGEMM(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	if TuneCacheSize() <= before {
		t.Error("tuning decision not cached")
	}
	p2 := p
	p2.Alpha, p2.Beta, p2.Count = 2, 0, 999
	pl2, err := AutotuneGEMM(p2, tun)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl2.MTiles) != len(pl1.MTiles) {
		t.Error("cached tiling not reused")
	}
	if pl2.P.Count != 999 || pl2.P.Alpha != 2 {
		t.Error("cached plan not re-instantiated for the caller's problem")
	}
}

// Autotuned plans must stay functionally correct.
func TestAutotunedPlanCorrect(t *testing.T) {
	tun := DefaultTuning()
	rng := rand.New(rand.NewSource(31))
	p := GEMMProblem{DT: vec.D, M: 7, N: 7, K: 7, Alpha: 1.5, Beta: 1, Count: 9}
	pl, err := AutotuneGEMM(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	a := randCompact[float64](rng, vec.D, p.Count, 7, 7)
	b := randCompact[float64](rng, vec.D, p.Count, 7, 7)
	c := randCompact[float64](rng, vec.D, p.Count, 7, 7)
	cRef := c.Clone()
	if err := ExecGEMMNativePrepacked(pl, a, b, c, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	def, err := NewGEMMPlan(p, tun)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecGEMMNativePrepacked(def, a, b, cRef, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Different tilings may round differently only if decompositions
	// differ; the accumulation order per element is identical (same K
	// loop), so results must match exactly.
	for i := range c.Data {
		if c.Data[i] != cRef.Data[i] {
			t.Fatalf("autotuned result diverges at %d", i)
		}
	}
}
