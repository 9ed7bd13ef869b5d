// Profile fingerprinting: a stable hash of every field that influences
// install-time kernel selection and instruction scheduling. The kernel
// memo keys each list schedule by it, so tunings for different machine
// models never share a schedule.
package machine

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a stable identifier of the profile: its name
// followed by a 64-bit FNV-1a hash over every modeled field — issue
// ports, latencies, vector width, frequency and the full cache
// configuration.
func Fingerprint(p Profile) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%g|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		p.Name, p.FreqGHz, p.VectorBits,
		p.MemPorts, p.FPPorts32, p.FPPorts64, p.GroupWidth, p.IntPorts,
		p.LatFMA, p.LatMul, p.LatAdd, p.LatDiv32, p.LatDiv64)
	for _, lv := range p.Cache.Levels {
		fmt.Fprintf(h, "|%s:%d:%d:%d:%d", lv.Name, lv.SizeBytes, lv.LineBytes, lv.Ways, lv.HitCycles)
	}
	fmt.Fprintf(h, "|mem%d|ss%d", p.Cache.MemoryCycles, p.Cache.StreamSlots)
	return fmt.Sprintf("%s-%016x", p.Name, h.Sum64())
}
