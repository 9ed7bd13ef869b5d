//go:build linux && !purego

package kernels

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPUID/XGETBV probe agrees with the Linux kernel's view of the CPU:
// /proc/cpuinfo lists the avx flag exactly when the CPU has AVX and the
// kernel enabled its register state.
func TestAVXProbeMatchesCPUInfo(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			if got, want := hasAVX(), slices.Contains(strings.Fields(v), "avx"); got != want {
				t.Fatalf("probe reports AVX = %v, /proc/cpuinfo avx flag = %v", got, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
