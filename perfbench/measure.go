package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the process CPU time (user+sys) of every thread.
// Children are excluded, so set-up probes never leak into a parent's
// numbers.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ctxSwitches returns the process's voluntary plus involuntary context
// switches.
func ctxSwitches() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Nvcsw + ru.Nivcsw
}

// hostTicks is the aggregate "cpu" line of /proc/stat.
type hostTicks struct {
	total, busy, steal uint64
}

func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t hostTicks
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			// guest and guest_nice (fields 9 and 10) are already
			// counted inside user and nice.
			if i < 8 {
				t.total += v
			}
			switch i {
			case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
				t.busy += v
			case 7:
				t.steal = v
			}
		}
		return t
	}
	return hostTicks{}
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two /proc/stat readings.
func stealPct(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stolenActive is the share of the time the vCPUs wanted to run that the
// hypervisor took: steal ÷ (busy + steal). Idle time accrues no steal, so
// this, not the share of all time, is how much slower running code went.
func stolenActive(a, b hostTicks) float64 {
	run := float64(b.busy - a.busy + b.steal - a.steal)
	if run <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / run
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	return procStatusKB("VmHWM:") / 1024
}

func procStatusKB(key string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gcCount returns the number of GC cycles the runtime started on its own
// (compact-batch forces one after each check, outside its timed window).
func gcCount() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC - ms.NumForcedGC
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the want-quantile of xs, lowered when needed so
// that at least ten samples lie beyond it: a short run never reports a
// tail made of one or two samples.
func tailQuantile(xs []float64, want float64) float64 {
	n := float64(len(xs))
	if q := 1 - 10/n; q < want {
		want = math.Max(q, 0.5)
	}
	return quantile(xs, want)
}

// phaseClock accumulates wall and process-CPU time over the segments of
// a measured phase, so correctness checks between segments stay out of
// both counts.
type phaseClock struct {
	wall, cpu time.Duration
	segWall0  time.Time
	segCPU0   time.Duration
	ticks0    hostTicks
	ctx0      int64
	gc0       uint32
	running   bool

	// Host noise over the phase, set by stop.
	steal, stolen float64 // stealPct and stolenActive
	ctxSw         int64
	gcs           uint32
}

func (c *phaseClock) start() {
	c.ticks0 = readHostTicks()
	c.ctx0 = ctxSwitches()
	c.gc0 = gcCount()
	c.resume()
}

func (c *phaseClock) resume() {
	c.running = true
	c.segCPU0 = cpuNow()
	c.segWall0 = time.Now()
}

func (c *phaseClock) pause() {
	if !c.running {
		return
	}
	c.wall += time.Since(c.segWall0)
	c.cpu += cpuNow() - c.segCPU0
	c.running = false
}

func (c *phaseClock) stop() {
	c.pause()
	t := readHostTicks()
	c.steal, c.stolen = stealPct(c.ticks0, t), stolenActive(c.ticks0, t)
	c.ctxSw = ctxSwitches() - c.ctx0
	c.gcs = gcCount() - c.gc0
}

// elapsed is the measured wall time so far.
func (c *phaseClock) elapsed() time.Duration {
	if c.running {
		return c.wall + time.Since(c.segWall0)
	}
	return c.wall
}
