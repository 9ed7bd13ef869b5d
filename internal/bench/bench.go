// Package bench is the evaluation harness: it regenerates the data behind
// every figure of the paper's §6 on the cycle-level machine models —
// GFLOPS-versus-size curves for compact GEMM and TRSM against the
// baseline library models (Figures 7–10), percent-of-peak comparisons
// against the MKL-compact model on the Xeon profile (Figures 11–12), and
// the headline speedup table of §1/§6.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"iatf/internal/baseline"
	"iatf/internal/core"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// Point is one measurement: a square size and its modeled throughput.
type Point struct {
	Size    int
	GFLOPS  float64
	PctPeak float64
}

// Series is one library's curve across sizes.
type Series struct {
	Lib    string
	Points []Point
}

// At returns the point at a size (ok=false if absent).
func (s Series) At(size int) (Point, bool) {
	for _, p := range s.Points {
		if p.Size == size {
			return p, true
		}
	}
	return Point{}, false
}

// Config fixes the evaluation scale. The paper uses batch 16384 and 100
// repetitions on hardware; the cycle model is deterministic, so Matrices
// sets the simulated steady-state batch per point instead.
type Config struct {
	Matrices int // simulated batch per point
	Sizes    []int
}

func (c Config) groups(dt vec.DType, vl int) int {
	if vl == 0 {
		vl = dt.Pack()
	}
	g := (c.Matrices + vl - 1) / vl
	if g < 1 {
		g = 1
	}
	return g
}

// IATFGEMM runs the compact GEMM model for one size point and returns
// modeled GFLOPS. tun selects the machine model (and lane override for
// the MKL-compact configuration).
func IATFGEMM(dt vec.DType, n int, ta, tb matrix.Trans, tun core.Tuning, cfg Config) (float64, error) {
	p := core.GEMMProblem{DT: dt, M: n, N: n, K: n, TransA: ta, TransB: tb,
		Alpha: 1, Beta: 1, Count: cfg.Matrices}
	pl, err := core.NewGEMMPlan(p, tun)
	if err != nil {
		return 0, err
	}
	sim := machine.NewSim(tun.Prof, dt.ElemBytes())
	groups := cfg.groups(dt, tun.VL)
	cycles, err := core.SimGEMM(pl, groups, sim)
	if err != nil {
		return 0, err
	}
	vl := tun.VL
	if vl == 0 {
		vl = dt.Pack()
	}
	flops := dt.FlopsPerElem() * float64(n) * float64(n) * float64(n) * float64(groups*vl)
	return flops / (float64(cycles) / (tun.Prof.FreqGHz * 1e9)) / 1e9, nil
}

// IATFTRSM runs the compact TRSM model for one size point (square A and
// B, the paper's setup).
func IATFTRSM(dt vec.DType, n int, uplo matrix.Uplo, ta matrix.Trans, diag matrix.Diag, tun core.Tuning, cfg Config) (float64, error) {
	p := core.TRSMProblem{DT: dt, M: n, N: n, Side: matrix.Left, Uplo: uplo,
		TransA: ta, Diag: diag, Alpha: 1, Count: cfg.Matrices}
	pl, err := core.NewTRSMPlan(p, tun)
	if err != nil {
		return 0, err
	}
	sim := machine.NewSim(tun.Prof, dt.ElemBytes())
	groups := cfg.groups(dt, tun.VL)
	cycles, err := core.SimTRSM(pl, groups, sim)
	if err != nil {
		return 0, err
	}
	vl := tun.VL
	if vl == 0 {
		vl = dt.Pack()
	}
	flops := dt.FlopsPerElem() / 2 * float64(n) * float64(n) * float64(n) * float64(groups*vl)
	return flops / (float64(cycles) / (tun.Prof.FreqGHz * 1e9)) / 1e9, nil
}

// BaselineGEMM runs a baseline library model for one size point.
func BaselineGEMM(m baseline.GEMMModel, dt vec.DType, n int, prof machine.Profile, cfg Config) float64 {
	sim := machine.NewSim(prof, dt.ElemBytes())
	count := cfg.groups(dt, 0) * dt.Pack()
	m.RunGEMM(sim, dt, n, n, n, count)
	flops := dt.FlopsPerElem() * float64(n) * float64(n) * float64(n) * float64(count)
	return flops / (sim.Seconds()) / 1e9
}

// BaselineTRSM runs a baseline TRSM model for one size point.
func BaselineTRSM(m baseline.TRSMModel, dt vec.DType, n int, prof machine.Profile, cfg Config) float64 {
	sim := machine.NewSim(prof, dt.ElemBytes())
	count := cfg.groups(dt, 0) * dt.Pack()
	m.RunTRSM(sim, dt, n, n, count)
	flops := dt.FlopsPerElem() / 2 * float64(n) * float64(n) * float64(n) * float64(count)
	return flops / (sim.Seconds()) / 1e9
}

// GEMMFigure computes the Figure 7/8 series for one data type and mode:
// IATF against ARMPL-batch, LIBXSMM (real types only) and OpenBLAS-loop.
func GEMMFigure(dt vec.DType, ta, tb matrix.Trans, cfg Config) ([]Series, error) {
	tun := core.DefaultTuning()
	prof := tun.Prof
	peak := prof.PeakGFLOPS(dt)

	libs := []Series{{Lib: "IATF"}, {Lib: "ARMPL-batch"}, {Lib: "OpenBLAS-loop"}}
	if !dt.IsComplex() {
		libs = append(libs, Series{Lib: "LIBXSMM"})
	}
	for _, n := range cfg.Sizes {
		g, err := IATFGEMM(dt, n, ta, tb, tun, cfg)
		if err != nil {
			return nil, err
		}
		libs[0].Points = append(libs[0].Points, Point{n, g, g / peak})
		g = BaselineGEMM(baseline.ARMPLBatch(), dt, n, prof, cfg)
		libs[1].Points = append(libs[1].Points, Point{n, g, g / peak})
		g = BaselineGEMM(baseline.OpenBLASLoop(), dt, n, prof, cfg)
		libs[2].Points = append(libs[2].Points, Point{n, g, g / peak})
		if !dt.IsComplex() {
			g = BaselineGEMM(baseline.LIBXSMM(), dt, n, prof, cfg)
			libs[3].Points = append(libs[3].Points, Point{n, g, g / peak})
		}
	}
	return libs, nil
}

// TRSMFigure computes the Figure 9/10 series for one data type and mode:
// IATF against looped ARMPL and OpenBLAS TRSM.
func TRSMFigure(dt vec.DType, uplo matrix.Uplo, ta matrix.Trans, diag matrix.Diag, cfg Config) ([]Series, error) {
	tun := core.DefaultTuning()
	prof := tun.Prof
	peak := prof.PeakGFLOPS(dt)
	libs := []Series{{Lib: "IATF"}, {Lib: "ARMPL-loop"}, {Lib: "OpenBLAS-loop"}}
	for _, n := range cfg.Sizes {
		g, err := IATFTRSM(dt, n, uplo, ta, diag, tun, cfg)
		if err != nil {
			return nil, err
		}
		libs[0].Points = append(libs[0].Points, Point{n, g, g / peak})
		g = BaselineTRSM(baseline.ARMPLLoopTRSM(), dt, n, prof, cfg)
		libs[1].Points = append(libs[1].Points, Point{n, g, g / peak})
		g = BaselineTRSM(baseline.OpenBLASLoopTRSM(), dt, n, prof, cfg)
		libs[2].Points = append(libs[2].Points, Point{n, g, g / peak})
	}
	return libs, nil
}

// PctPeakFigure computes the Figure 11/12 comparison: IATF on the Kunpeng
// model versus the same compact algorithm at AVX-512 widths on the Xeon
// model (the MKL-compact stand-in), both as percent of their machine's
// peak.
func PctPeakFigure(dt vec.DType, trsm bool, cfg Config) ([]Series, error) {
	arm := core.DefaultTuning()
	x86 := core.Tuning{Prof: machine.XeonGold6240(), VL: machine.XeonGold6240().Lanes(dt.ElemBytes())}
	out := []Series{{Lib: "IATF (Kunpeng 920)"}, {Lib: "MKL-compact (Xeon 6240)"}}
	for _, n := range cfg.Sizes {
		for i, tun := range []core.Tuning{arm, x86} {
			var g float64
			var err error
			if trsm {
				g, err = IATFTRSM(dt, n, matrix.Lower, matrix.NoTrans, matrix.NonUnit, tun, cfg)
			} else {
				g, err = IATFGEMM(dt, n, matrix.NoTrans, matrix.NoTrans, tun, cfg)
			}
			if err != nil {
				return nil, err
			}
			peak := tun.Prof.PeakGFLOPS(dt)
			out[i].Points = append(out[i].Points, Point{n, g, g / peak})
		}
	}
	return out, nil
}

// MaxSpeedup returns the largest ratio a/b across common sizes and the
// size it occurs at — the headline numbers of §1.
func MaxSpeedup(a, b Series) (float64, int) {
	best, at := 0.0, 0
	for _, pa := range a.Points {
		if pb, ok := b.At(pa.Size); ok && pb.GFLOPS > 0 {
			if r := pa.GFLOPS / pb.GFLOPS; r > best {
				best, at = r, pa.Size
			}
		}
	}
	return best, at
}

// FormatTable renders series as an aligned text table, one row per size.
func FormatTable(title string, series []Series, pct bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%6s", "size")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Lib)
	}
	b.WriteByte('\n')
	sizes := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			sizes[p.Size] = true
		}
	}
	var order []int
	for n := range sizes {
		order = append(order, n)
	}
	sort.Ints(order)
	for _, n := range order {
		fmt.Fprintf(&b, "%6d", n)
		for _, s := range series {
			if p, ok := s.At(n); ok {
				if pct {
					fmt.Fprintf(&b, " %21.1f%%", 100*p.PctPeak)
				} else {
					fmt.Fprintf(&b, " %22.3f", p.GFLOPS)
				}
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IATFTRMM runs the compact TRMM extension model for one size point.
func IATFTRMM(dt vec.DType, n int, tun core.Tuning, cfg Config) (float64, error) {
	p := core.TRMMProblem{DT: dt, M: n, N: n, Side: matrix.Left, Uplo: matrix.Lower,
		TransA: matrix.NoTrans, Diag: matrix.NonUnit, Alpha: 1, Count: cfg.Matrices}
	pl, err := core.NewTRMMPlan(p, tun)
	if err != nil {
		return 0, err
	}
	sim := machine.NewSim(tun.Prof, dt.ElemBytes())
	groups := cfg.groups(dt, tun.VL)
	cycles, err := core.SimTRMM(pl, groups, sim)
	if err != nil {
		return 0, err
	}
	vl := tun.VL
	if vl == 0 {
		vl = dt.Pack()
	}
	flops := dt.FlopsPerElem() / 2 * float64(n) * float64(n) * float64(n) * float64(groups*vl)
	return flops / (float64(cycles) / (tun.Prof.FreqGHz * 1e9)) / 1e9, nil
}

// TRMMFigure computes the extension figure: compact TRMM against looped
// ARMPL/OpenBLAS triangular multiplies (not part of the paper's
// evaluation — this library's future-work extension).
func TRMMFigure(dt vec.DType, cfg Config) ([]Series, error) {
	tun := core.DefaultTuning()
	prof := tun.Prof
	peak := prof.PeakGFLOPS(dt)
	libs := []Series{{Lib: "IATF-ext"}, {Lib: "ARMPL-loop"}, {Lib: "OpenBLAS-loop"}}
	for _, n := range cfg.Sizes {
		g, err := IATFTRMM(dt, n, tun, cfg)
		if err != nil {
			return nil, err
		}
		libs[0].Points = append(libs[0].Points, Point{n, g, g / peak})
		count := cfg.groups(dt, 0) * dt.Pack()
		flops := dt.FlopsPerElem() / 2 * float64(n) * float64(n) * float64(n) * float64(count)
		sim := machine.NewSim(prof, dt.ElemBytes())
		baseline.ARMPLLoopTRMM().RunTRMM(sim, dt, n, n, count)
		g = flops / sim.Seconds() / 1e9
		libs[1].Points = append(libs[1].Points, Point{n, g, g / peak})
		sim = machine.NewSim(prof, dt.ElemBytes())
		baseline.OpenBLASLoopTRMM().RunTRMM(sim, dt, n, n, count)
		g = flops / sim.Seconds() / 1e9
		libs[2].Points = append(libs[2].Points, Point{n, g, g / peak})
	}
	return libs, nil
}
