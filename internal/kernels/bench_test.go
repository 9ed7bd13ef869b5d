package kernels

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"iatf/internal/vec"
)

// BenchmarkGEMMVariants times the 4×4 main kernel through GEMMStrided,
// s and d at k 4, 8 and 16, in every variant this CPU runs. The variants
// share one binary and alternate repeat by repeat (a repeat is up to
// 1000 calls of each), so build layout and host drift fall on all of
// them alike. Each reports its own <variant>-ns/call; ns/op is the sum
// over the variants of one call each.
func BenchmarkGEMMVariants(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("s/k=%d", k), func(b *testing.B) { benchGEMMVariants(b, k, fill32) })
		b.Run(fmt.Sprintf("d/k=%d", k), func(b *testing.B) { benchGEMMVariants(b, k, fill64) })
	}
}

func benchGEMMVariants[E vec.Float](b *testing.B, k int, fill func(*rand.Rand, int) []E) {
	var vs []string
	for _, v := range gemmVariants() {
		if v.missing == "" {
			vs = append(vs, v.name)
		}
	}
	var e E
	vl := 16 / int(unsafe.Sizeof(e))
	rng := rand.New(rand.NewSource(7))
	pa, pb, c := fill(rng, 4*k*vl), fill(rng, 4*k*vl), fill(rng, 16*vl)
	spent := make([]time.Duration, len(vs))
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(1000, b.N-done)
		for i, v := range vs {
			restore := useGEMMVariant(v)
			t0 := time.Now()
			for j := 0; j < n; j++ {
				GEMMStrided(pa, pb, c, 4, 4, k, 1, k, 4, vl, 1, true)
			}
			spent[i] += time.Since(t0)
			restore()
		}
		done += n
	}
	for i, v := range vs {
		b.ReportMetric(float64(spent[i].Nanoseconds())/float64(b.N), v+"-ns/call")
	}
}
