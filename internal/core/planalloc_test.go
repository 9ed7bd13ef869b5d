package core

import (
	"testing"

	"iatf/internal/kopt"
	"iatf/internal/vec"
)

// A plan is geometry: building one allocates a few slices and never
// generates or schedules a kernel. Every build below starts from an
// empty kernel memo, the state of a process's first call; allocation
// counts repeat exactly, unlike build times. A plan that generated its
// kernels again would allocate thousands of objects per build.
func TestColdPlanBuildAllocs(t *testing.T) {
	defer SwapKernelMemo(SwapKernelMemo(kopt.NewMemo()))
	tun := DefaultTuning()
	cases := []struct {
		name  string
		build func() error
	}{
		{"GEMM d 16³", func() error {
			_, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 16, N: 16, K: 16, Alpha: 1, Beta: 1, Count: 64}, tun)
			return err
		}},
		{"GEMM d 32³", func() error {
			_, err := NewGEMMPlan(GEMMProblem{DT: vec.D, M: 32, N: 32, K: 32, Alpha: 1, Beta: 1, Count: 64}, tun)
			return err
		}},
		{"TRSM d 16", func() error {
			_, err := NewTRSMPlan(TRSMProblem{DT: vec.D, M: 16, N: 16, Alpha: 1, Count: 64}, tun)
			return err
		}},
		{"TRMM d 16", func() error {
			_, err := NewTRMMPlan(TRMMProblem{DT: vec.D, M: 16, N: 16, Alpha: 1, Count: 64}, tun)
			return err
		}},
	}
	const runs, ceiling = 5, 24
	for _, c := range cases {
		// One empty memo per build, made outside the measured calls.
		memos := make([]*kopt.Memo, runs+1)
		for i := range memos {
			memos[i] = kopt.NewMemo()
		}
		var err error
		n := 0
		got := testing.AllocsPerRun(runs, func() {
			SwapKernelMemo(memos[n])
			n++
			if e := c.build(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > ceiling {
			t.Errorf("%s: a cold plan build allocates %.0f objects, ceiling %d", c.name, got, ceiling)
		}
	}
}
