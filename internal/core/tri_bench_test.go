package core

import (
	"fmt"
	"math/rand"
	"testing"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// BenchmarkTriModes times the native TRSM and TRMM executors in each way
// they address B: d, orders 8 and 16, count 64, one worker, triangles
// packed per call. LNLN reads B's rows downward and LNUN upward; RNLN
// and RNUN read B along its rows, RNLN from B's last column (Aᵀ of a
// lower A is upper). A is the identity and α is 1, so B keeps its values
// across iterations and no call runs on subnormals.
func BenchmarkTriModes(b *testing.B) {
	const count = 64
	for _, op := range []string{"TRSM", "TRMM"} {
		for _, n := range []int{8, 16} {
			for _, md := range []struct {
				name string
				side matrix.Side
				uplo matrix.Uplo
			}{
				{"LNLN", matrix.Left, matrix.Lower},
				{"LNUN", matrix.Left, matrix.Upper},
				{"RNLN", matrix.Right, matrix.Lower},
				{"RNUN", matrix.Right, matrix.Upper},
			} {
				b.Run(fmt.Sprintf("%s/d%d/%s", op, n, md.name), func(b *testing.B) {
					rng := rand.New(rand.NewSource(64))
					a := layout.NewCompact[float64](vec.D, count, n, n)
					for v := 0; v < count; v++ {
						for i := 0; i < n; i++ {
							a.Set(v, i, i, 1, 0)
						}
					}
					bm := randCompact[float64](rng, vec.D, count, n, n)
					run := func() error { return nil }
					if op == "TRSM" {
						pl, err := NewTRSMPlan(TRSMProblem{DT: vec.D, M: n, N: n, Side: md.side, Uplo: md.uplo,
							Alpha: 1, Count: count}, DefaultTuning())
						if err != nil {
							b.Fatal(err)
						}
						run = func() error { return ExecTRSMNativePrepacked(pl, a, bm, nil, 1) }
					} else {
						pl, err := NewTRMMPlan(TRMMProblem{DT: vec.D, M: n, N: n, Side: md.side, Uplo: md.uplo,
							Alpha: 1, Count: count}, DefaultTuning())
						if err != nil {
							b.Fatal(err)
						}
						run = func() error { return ExecTRMMNativePrepacked(pl, a, bm, nil, 1) }
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
