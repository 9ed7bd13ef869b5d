//go:build !purego

package kernels

func gemmVariants() []gemmVariant {
	v := []gemmVariant{{name: "amd64-avx"}, {name: "amd64-sse2"}}
	if !hasAVX() {
		v[0].missing = "AVX (CPUID.1:ECX AVX and OSXSAVE, XCR0 YMM state)"
	}
	return v
}

func useGEMMVariant(name string) (restore func()) {
	if name != "amd64-avx" && name != "amd64-sse2" || name == "amd64-avx" && !hasAVX() {
		panic("kernels: GEMM variant " + name + " cannot run here")
	}
	prev := gemmAVX
	gemmAVX = name == "amd64-avx"
	Backend = backendName()
	return func() { gemmAVX, Backend = prev, backendName() }
}
