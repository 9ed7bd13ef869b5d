package ktmpl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iatf/internal/asm"
	"iatf/internal/vec"
)

// runTriMulKernel validates the generated TRMM triangular kernel on the
// VM against a scalar bottom-up multiply.
func runTriMulKernel[E vec.Float](t *testing.T, s TriSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(500*s.M + s.NCols)))
	vl := s.vl()
	comps := s.comps()
	bl := s.blockLen()
	cplx := s.DT.IsComplex()

	randVal := func() complex128 {
		if cplx {
			return complex(rng.Float64(), rng.Float64())
		}
		return complex(rng.Float64(), 0)
	}
	a := make([][][]complex128, vl) // [lane][i][j], lower triangle
	b := make([][][]complex128, vl)
	for l := 0; l < vl; l++ {
		a[l] = make([][]complex128, s.M)
		b[l] = make([][]complex128, s.M)
		for i := 0; i < s.M; i++ {
			a[l][i] = make([]complex128, s.M)
			b[l][i] = make([]complex128, s.NCols)
			for j := 0; j <= i; j++ {
				a[l][i][j] = randVal()
			}
			for c := 0; c < s.NCols; c++ {
				b[l][i][c] = randVal()
			}
		}
	}

	triBlocks := s.M * (s.M + 1) / 2
	lenA := triBlocks * bl
	lenB := s.NCols * s.StrideB * bl
	mem := make([]E, lenA+lenB)
	write := func(off int, vals func(lane int) complex128) {
		for l := 0; l < vl; l++ {
			v := vals(l)
			mem[off+l] = E(real(v))
			if comps == 2 {
				mem[off+vl+l] = E(imag(v))
			}
		}
	}
	idx := 0
	for i := 0; i < s.M; i++ {
		for j := 0; j <= i; j++ {
			i, j := i, j
			write(idx*bl, func(l int) complex128 { return a[l][i][j] }) // true diagonal
			idx++
		}
	}
	for c := 0; c < s.NCols; c++ {
		for i := 0; i < s.M; i++ {
			c, i := c, i
			write(lenA+(c*s.StrideB+i)*bl, func(l int) complex128 { return b[l][i][c] })
		}
	}

	prog, err := GenTRMMTri(s)
	if err != nil {
		t.Fatalf("%v M=%d N=%d: %v", s.DT, s.M, s.NCols, err)
	}
	vm := &asm.VM[E]{Mem: mem}
	vm.P[asm.PA] = 0
	vm.P[asm.PB] = lenA
	if err := vm.Run(prog); err != nil {
		t.Fatalf("%v M=%d N=%d: %v", s.DT, s.M, s.NCols, err)
	}

	tol := 1e-12
	var e E
	if _, ok := any(e).(float32); ok {
		tol = 1e-4
	}
	for l := 0; l < vl; l++ {
		for c := 0; c < s.NCols; c++ {
			for i := 0; i < s.M; i++ {
				want := a[l][i][i] * b[l][i][c]
				for j := 0; j < i; j++ {
					want += a[l][i][j] * b[l][j][c]
				}
				off := lenA + (c*s.StrideB+i)*bl + l
				gre := float64(mem[off])
				gim := 0.0
				if comps == 2 {
					gim = float64(mem[off+vl])
				}
				if dabs(gre-real(want)) > tol || dabs(gim-imag(want)) > tol {
					t.Fatalf("%v M=%d lane=%d (%d,%d) = (%g,%g), want %v",
						s.DT, s.M, l, i, c, gre, gim, want)
				}
			}
		}
	}
}

func TestGenTRMMTriCorrect(t *testing.T) {
	for _, dt := range vec.DTypes {
		for m := 1; m <= MaxTriM(dt); m++ {
			for _, n := range []int{1, 3, 5} {
				s := TriSpec{DT: dt, M: m, NCols: n, StrideB: m + 1}
				if dt.Real() == vec.S {
					runTriMulKernel[float32](t, s)
				} else {
					runTriMulKernel[float64](t, s)
				}
			}
		}
	}
}

func TestGenTRMMTriRejectsDivDiag(t *testing.T) {
	if _, err := GenTRMMTri(TriSpec{DT: vec.D, M: 3, NCols: 2, StrideB: 3, DivDiag: true}); err == nil {
		t.Error("DivDiag accepted by TRMM")
	}
}

// The TRMM rectangular kernel is the FMLA twin of the TRSM one: no FMLS,
// no FMUL, and correct accumulation (validated against a scalar check).
func TestGenTRMMRectCorrect(t *testing.T) {
	for _, dt := range []vec.DType{vec.S, vec.Z} {
		sz := MainTRSMKernel(dt)
		s := RectSpec{DT: dt, MC: sz.MC, NC: sz.NC, K: 5, StrideC: sz.MC + 1, StrideX: 7}
		prog, err := GenTRMMRect(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range prog {
			if in.Op == asm.FMUL && !dt.IsComplex() {
				t.Errorf("%v instr %d: FMUL in the accumulating rect kernel", dt, i)
			}
		}
		if dt.Real() == vec.S {
			runRectAddKernel[float32](t, s, prog)
		} else {
			runRectAddKernel[float64](t, s, prog)
		}
	}
}

func runRectAddKernel[E vec.Float](t *testing.T, s RectSpec, prog asm.Prog) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	g := s.gemm()
	vl := g.vl()
	comps := g.comps()
	bl := g.blockLen()
	cplx := s.DT.IsComplex()

	randVal := func() complex128 {
		if cplx {
			return complex(rng.Float64(), rng.Float64())
		}
		return complex(rng.Float64(), 0)
	}
	alloc3 := func(rows, cols int) [][][]complex128 {
		out := make([][][]complex128, vl)
		for l := range out {
			out[l] = make([][]complex128, rows)
			for r := range out[l] {
				out[l][r] = make([]complex128, cols)
				for c := range out[l][r] {
					out[l][r][c] = randVal()
				}
			}
		}
		return out
	}
	lmat := alloc3(s.MC, s.K)
	x := alloc3(s.K, s.NC)
	btile := alloc3(s.MC, s.NC)

	lenA := s.K * s.MC * bl
	lenX := s.NC * s.StrideX * bl
	lenC := s.NC * s.StrideC * bl
	mem := make([]E, lenA+lenX+lenC)
	write := func(off int, vals func(lane int) complex128) {
		for l := 0; l < vl; l++ {
			v := vals(l)
			mem[off+l] = E(real(v))
			if comps == 2 {
				mem[off+vl+l] = E(imag(v))
			}
		}
	}
	for k := 0; k < s.K; k++ {
		for r := 0; r < s.MC; r++ {
			k, r := k, r
			write((k*s.MC+r)*bl, func(l int) complex128 { return lmat[l][r][k] })
		}
		for c := 0; c < s.NC; c++ {
			k, c := k, c
			write(lenA+(c*s.StrideX+k)*bl, func(l int) complex128 { return x[l][k][c] })
		}
	}
	for c := 0; c < s.NC; c++ {
		for r := 0; r < s.MC; r++ {
			c, r := c, r
			write(lenA+lenX+(c*s.StrideC+r)*bl, func(l int) complex128 { return btile[l][r][c] })
		}
	}

	vm := &asm.VM[E]{Mem: mem}
	vm.P[asm.PA] = 0
	vm.P[asm.PX] = lenA
	vm.P[asm.PC] = lenA + lenX
	if err := vm.Run(prog); err != nil {
		t.Fatal(err)
	}
	tol := 1e-12
	var e E
	if _, ok := any(e).(float32); ok {
		tol = 1e-4
	}
	for l := 0; l < vl; l++ {
		for r := 0; r < s.MC; r++ {
			for c := 0; c < s.NC; c++ {
				want := btile[l][r][c]
				for k := 0; k < s.K; k++ {
					want += lmat[l][r][k] * x[l][k][c]
				}
				off := lenA + lenX + (c*s.StrideC+r)*bl + l
				gre := float64(mem[off])
				gim := 0.0
				if comps == 2 {
					gim = float64(mem[off+vl])
				}
				if dabs(gre-real(want)) > tol || dabs(gim-imag(want)) > tol {
					t.Fatalf("%v (%d,%d) lane %d = (%g,%g), want %v", s.DT, r, c, l, gre, gim, want)
				}
			}
		}
	}
}

// The loop pieces a machine-code backend runs — the triangle Load once,
// then Col per B column with pB stepped by the column stride; the
// rectangle Preload, Step K times, then Store — must leave memory bit
// for bit as the straight-line GenTRMMTri and GenTRMMRect kernels do.
func TestGenTRMMLoopsMatchKernels(t *testing.T) {
	for _, dt := range vec.DTypes {
		if dt.Real() == vec.S {
			testTRMMLoops[float32](t, dt)
		} else {
			testTRMMLoops[float64](t, dt)
		}
	}
}

func testTRMMLoops[E vec.Float](t *testing.T, dt vec.DType) {
	rng := rand.New(rand.NewSource(31))
	// run executes the programs in turn on one VM over a copy of mem;
	// before program i it sets the pointers ptrs(i) returns.
	run := func(mem []E, ptrs func(i int) map[asm.PReg]int, progs ...asm.Prog) []E {
		t.Helper()
		vm := &asm.VM[E]{Mem: append([]E(nil), mem...)}
		for i, prog := range progs {
			for p, off := range ptrs(i) {
				vm.P[p] = off
			}
			if err := vm.Run(prog); err != nil {
				t.Fatalf("%v: %v", dt, err)
			}
		}
		return vm.Mem
	}
	same := func(name string, got, want []E) {
		t.Helper()
		for i := range got {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("%v %s: element %d = %v, straight-line kernel %v", dt, name, i, got[i], want[i])
			}
		}
	}
	fill := func(n int) []E {
		s := make([]E, n)
		for i := range s {
			s[i] = E(4*rng.Float64() - 2)
		}
		return s
	}

	for m := 1; m <= MaxTriM(dt); m++ {
		for _, ncols := range []int{1, 3, 5} {
			s := TriSpec{DT: dt, M: m, NCols: ncols, StrideB: m + 1}
			prog, err := GenTRMMTri(s)
			if err != nil {
				t.Fatal(err)
			}
			l, err := GenTRMMTriLoop(s)
			if err != nil {
				t.Fatal(err)
			}
			lenA, colLen := m*(m+1)/2*s.blockLen(), s.StrideB*s.blockLen()
			mem := fill(lenA + ncols*colLen)
			want := run(mem, func(int) map[asm.PReg]int { return map[asm.PReg]int{asm.PB: lenA} }, prog)
			progs := []asm.Prog{l.Load}
			for c := 0; c < ncols; c++ {
				progs = append(progs, l.Col)
			}
			got := run(mem, func(i int) map[asm.PReg]int {
				return map[asm.PReg]int{asm.PB: lenA + max(i-1, 0)*colLen}
			}, progs...)
			same(fmt.Sprintf("triangle M=%d ncols=%d", m, ncols), got, want)
		}
	}

	sz := MainTRSMKernel(dt)
	for _, k := range []int{1, 2, 5} {
		s := RectSpec{DT: dt, MC: sz.MC, NC: sz.NC, K: k, StrideC: sz.MC + 1, StrideX: k + 2}
		prog, err := GenTRMMRect(s)
		if err != nil {
			t.Fatal(err)
		}
		l, err := GenTRMMRectLoop(s)
		if err != nil {
			t.Fatal(err)
		}
		bl := s.gemm().blockLen()
		lenA, lenX := k*s.MC*bl, s.NC*s.StrideX*bl
		mem := fill(lenA + lenX + s.NC*s.StrideC*bl)
		ptrs := func(i int) map[asm.PReg]int {
			if i > 0 {
				return nil // the steps advance pA and pX themselves
			}
			return map[asm.PReg]int{asm.PX: lenA, asm.PC: lenA + lenX}
		}
		want := run(mem, ptrs, prog)
		progs := []asm.Prog{l.Preload}
		for i := 0; i < k; i++ {
			progs = append(progs, l.Step)
		}
		got := run(mem, ptrs, append(progs, l.Store)...)
		same(fmt.Sprintf("rectangle K=%d", k), got, want)
	}
}
