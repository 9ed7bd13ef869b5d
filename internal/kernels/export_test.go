package kernels

import "testing"

// gemmVariant is one form of the GEMM main kernels a build holds, by the
// Backend name it runs as; missing names the CPU feature it needs that
// this CPU lacks, "" when it runs here. gemmVariants lists them and
// useGEMMVariant forces one for the process, returning a function that
// restores the probed choice (variant_amd64_test.go,
// variant_purego_test.go).
type gemmVariant struct {
	name, missing string
}

// eachGEMMVariant runs f once per variant as a subtest named after its
// Backend, with that variant forced. A variant this CPU cannot run skips
// and names the feature it lacks.
func eachGEMMVariant(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, v := range gemmVariants() {
		t.Run(v.name, func(t *testing.T) {
			if v.missing != "" {
				t.Skipf("this CPU lacks %s", v.missing)
			}
			defer useGEMMVariant(v.name)()
			f(t)
		})
	}
}
